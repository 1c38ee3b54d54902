"""Span-based tracing: collection (:class:`Tracer`) and export utilities.

Jobs run with ``trace=True`` (or ``trace="phase"`` / a :class:`Tracer`
instance) collect structured records in virtual time:

* **dispatch spans** — one per collective call (start time, duration,
  rank, communicator, operation, algorithm, selection policy, bytes);
* **phase spans** — nested children of composite (hierarchical /
  hybrid) collectives: on-node gather/copy-in, bridge exchange,
  barrier/flag sync, on-node broadcast/copy-out (detail ``"phase"``);
* **p2p spans and queue waits** — individual send/recv waits and
  receive matching delays (detail ``"p2p"``);
* **compute spans** — per compute charge (``kind="compute"``), enabled
  by the orthogonal ``compute=True`` flag (``trace="phase+compute"`` on
  a job) — the ingredient the hidden-vs-exposed overlap analysis of
  :mod:`repro.analysis.critical_path` needs;
* **instant events** — the pre-span record shape, still accepted
  everywhere for backward compatibility (no ``kind``: a dispatch).

Non-blocking collectives run as background processes in their own span
*context*: their spans nest among themselves (the dispatch span covers
issue → completion) and never mis-nest with spans the issuing rank
program opens meanwhile; :func:`to_chrome_trace` renders such
temporally-overlapping spans on separate per-rank rows.

This module turns those records into:

* :func:`summarize` — per-(op, algo) aggregate counts/bytes;
* :func:`to_chrome_trace` — a ``chrome://tracing`` / Perfetto compatible
  JSON object (duration events with proper nesting, one row per rank);
* :func:`format_timeline` — a quick ASCII timeline for terminals.

Critical-path attribution lives in :mod:`repro.analysis.critical_path`;
counter/histogram export lives in :mod:`repro.metrics`.

Determinism: the simulation engine replays identically, spans are
appended in begin order, and span ids are a plain counter — so the same
program always yields a bit-identical span stream (the property the
regression tests serialize and compare).

Example
-------
>>> tracer = Tracer(detail="phase")
>>> parent = tracer.begin({"t": 0.0, "rank": 0, "comm": "world",
...                        "op": "allgather", "algo": "ring",
...                        "nbytes": 64, "kind": "dispatch"})
>>> child = tracer.begin({"t": 0.0, "rank": 0, "comm": "world",
...                       "kind": "phase", "phase": "bridge_exchange",
...                       "nbytes": 64})
>>> child["parent"] == parent["sid"] and child["depth"] == 1
True
>>> tracer.end(child, 1.5e-6); tracer.end(parent, 2.0e-6)
>>> summarize(tracer.records)
{('allgather', 'ring'): {'calls': 1, 'bytes': 64}}
>>> [e["ph"] for e in to_chrome_trace(tracer.records)["traceEvents"]]
['X', 'X', 'M']
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any

__all__ = [
    "Tracer",
    "DETAIL_LEVELS",
    "summarize",
    "to_chrome_trace",
    "format_timeline",
    "save_chrome_trace",
]

#: Ordered trace detail levels: each level includes the previous ones.
DETAIL_LEVELS = {"dispatch": 0, "phase": 1, "p2p": 2}


class Tracer:
    """Collects trace records for one job.

    Parameters
    ----------
    detail:
        ``"dispatch"`` (default) records one span per collective call;
        ``"phase"`` adds nested spans for the internal stages of
        composite algorithms; ``"p2p"`` additionally records individual
        point-to-point waits and receive queue delays.

    The tracer exposes the list API the pre-span trace log had
    (``append`` for instant records, iteration over ``records``), plus
    :meth:`begin`/:meth:`end` for duration spans.  Span records carry:

    ``sid``
        unique span id (a counter — deterministic across runs);
    ``parent``
        ``sid`` of the innermost open span on the same rank, or None;
    ``depth``
        nesting depth (0 = top level);
    ``dur``
        duration in virtual seconds (None while the span is open).
    """

    __slots__ = (
        "detail", "records", "compute", "_level", "_next_sid", "_open",
        "_active_ctx", "_ctx_of_sid", "_next_ctx",
    )

    def __init__(self, detail: str = "dispatch", compute: bool = False):
        try:
            self._level = DETAIL_LEVELS[detail]
        except KeyError:
            known = ", ".join(DETAIL_LEVELS)
            raise ValueError(
                f"unknown trace detail {detail!r}; known: {known}"
            ) from None
        self.detail = detail
        self.compute = compute
        self.records: list[dict] = []
        self._next_sid = 0
        # Open-span stacks keyed by (rank, context).  Context 0 is the
        # rank program; every background non-blocking collective runs in
        # its own context (see run_in_context) so concurrent spans on one
        # rank nest within their own tree instead of corrupting each
        # other's parent/depth bookkeeping.
        self._open: dict[tuple[int, int], list[dict]] = {}
        self._active_ctx: dict[int, int] = {}
        self._ctx_of_sid: dict[int, tuple[int, int]] = {}
        self._next_ctx = 0

    def wants(self, level: str) -> bool:
        """True when records of *level* should be collected.

        ``"compute"`` is an orthogonal flag (compute-charge spans), not a
        member of the detail ladder."""
        if level == "compute":
            return self.compute
        return DETAIL_LEVELS[level] <= self._level

    def append(self, rec: dict) -> None:
        """Record one instant event (the pre-span record shape)."""
        self.records.append(rec)

    def begin(self, rec: dict) -> dict:
        """Open a duration span; *rec* must carry ``t`` and ``rank``.

        The span is appended to :attr:`records` immediately (stream
        order = begin order) with ``dur=None`` until :meth:`end`.
        """
        self._next_sid += 1
        rank = rec["rank"]
        key = (rank, self._active_ctx.get(rank, 0))
        stack = self._open.setdefault(key, [])
        rec["sid"] = self._next_sid
        rec["parent"] = stack[-1]["sid"] if stack else None
        rec["depth"] = len(stack)
        rec["dur"] = None
        stack.append(rec)
        self._ctx_of_sid[self._next_sid] = key
        self.records.append(rec)
        return rec

    def end(self, rec: dict, t: float) -> None:
        """Close a span opened by :meth:`begin` at virtual time *t*."""
        rec["dur"] = t - rec["t"]
        key = self._ctx_of_sid.pop(rec["sid"], (rec["rank"], 0))
        stack = self._open.get(key, [])
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is rec:
                del stack[i]
                break

    def emit_replayed(self, templates: list[dict], base_ticks: float) -> None:
        """Append a recorded span slice, shifted to ``base_ticks``.

        Used by the collective replay cache: *templates* carry ``t`` as
        whole ticks relative to the recorded entry; emission restores
        absolute times on the engine's tick grid (the key keeps its
        place, so a record reads as the live one did), assigns fresh
        span ids (remapping in-slice parents), and tags every record
        ``replayed``.  The open-span stacks are untouched — replay only
        fires when no span is open, so the slice is self-contained.
        """
        from repro.simulator.engine import TICK

        sid_map: dict[int, int] = {}
        for tpl in templates:
            rec = dict(tpl)
            rec["t"] = (base_ticks + rec["t"]) * TICK
            rec["replayed"] = True
            sid = rec.get("sid")
            if sid is not None:
                self._next_sid += 1
                sid_map[sid] = self._next_sid
                rec["sid"] = self._next_sid
                parent = rec.get("parent")
                if parent is not None:
                    rec["parent"] = sid_map[parent]
            self.records.append(rec)

    def run_in_context(self, rank: int, gen):
        """Delegating generator driving *gen* inside a fresh span context.

        Every resume of the wrapped generator runs with the fresh context
        active for *rank*, so spans it begins (and ends) use their own
        open-span stack; while it is suspended the rank's previous
        context is restored.  Used for background non-blocking
        collectives — their dispatch span then covers issue to
        completion with correct internal nesting, and the issuing rank
        program's own spans never become accidental parents/children of
        the background tree.
        """
        self._next_ctx += 1
        ctx_id = self._next_ctx
        active = self._active_ctx
        value: Any = None
        exc: BaseException | None = None
        while True:
            outer = active.get(rank, 0)
            active[rank] = ctx_id
            try:
                if exc is not None:
                    item = gen.throw(exc)
                else:
                    item = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                if outer:
                    active[rank] = outer
                else:
                    active.pop(rank, None)
            try:
                value, exc = (yield item), None
            except BaseException as e:  # forwarded to gen on next resume
                value, exc = None, e

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __repr__(self) -> str:
        return f"Tracer(detail={self.detail!r}, records={len(self.records)})"


def summarize(trace: list[dict]) -> dict[tuple[str, str], dict]:
    """Aggregate dispatch records by (operation, algorithm).

    Returns ``{(op, algo): {"calls": n, "bytes": total}}``.  Phase and
    p2p records are excluded — one collective call contributes exactly
    once, and its byte count follows the profiler conventions of
    :mod:`repro.mpi.profiler` (the dispatch layer records ``req.total``).
    """
    out: dict[tuple[str, str], dict] = defaultdict(
        lambda: {"calls": 0, "bytes": 0}
    )
    for rec in trace:
        if rec.get("kind", "dispatch") != "dispatch":
            continue
        key = (rec["op"], rec["algo"])
        out[key]["calls"] += 1
        out[key]["bytes"] += rec.get("nbytes", 0)
    return dict(out)


def _event_name(rec: dict, kind: str) -> str:
    if kind == "dispatch":
        return f"{rec['op']}:{rec['algo']}"
    if kind == "phase":
        return rec["phase"]
    if kind == "p2p":
        return f"p2p.{rec['op']}"
    if kind == "shm":
        return f"shm.{rec['op']}"
    if kind == "compute":
        return f"compute:{rec['op']}"
    return kind


def _assign_tracks(trace: list[dict]) -> tuple[dict[int, int], int]:
    """Map span ``sid`` → display track, lifting overlapped spans.

    Top-level spans of one rank normally run back-to-back (track 0).
    When a span *starts* while an earlier top-level span of the same
    rank is still open — a pending non-blocking collective overlapping
    the rank program — the later span takes the lowest free track, so
    Chrome/Perfetto renders the two concurrently instead of mis-nesting
    them.  Child spans inherit their root's track.  Returns the map and
    the highest track used (0 = no overlap anywhere).
    """
    track_of: dict[int, int] = {}
    live_of: dict[int, list[tuple[float, int]]] = {}
    max_track = 0
    for rec in trace:
        sid = rec.get("sid")
        if sid is None or rec.get("dur") is None:
            continue
        parent = rec.get("parent")
        if parent is not None:
            track_of[sid] = track_of.get(parent, 0)
            continue
        rank, t = rec["rank"], rec["t"]
        live = [(e, k) for (e, k) in live_of.get(rank, ()) if e > t]
        used = {k for _e, k in live}
        track = 0
        while track in used:
            track += 1
        live.append((t + rec["dur"], track))
        live_of[rank] = live
        track_of[sid] = track
        if track > max_track:
            max_track = track
    return track_of, max_track


#: The record fields a Chrome event carries in its ``args``, in order.
_CHROME_ARGS = ("comm", "nbytes", "policy", "phase", "wait", "sid",
                "parent", "peer", "level", "replayed")


def to_chrome_trace(trace: list[dict]) -> dict:
    """Convert trace records to the Chrome trace-event JSON format.

    Duration records (spans with a closed ``dur``) become complete
    (``"ph": "X"``) events; instant records (and spans left open by a
    crashed run) become thread-scoped instant (``"ph": "i"``) events.
    One row (``tid``) per rank, metadata rows naming each rank last.
    Overlapped spans — a non-blocking collective still pending while the
    rank runs on — are lifted onto extra per-rank rows
    (``rank N (overlap K)``) so they render concurrently; traces without
    overlap are unchanged.  Load the result in ``chrome://tracing`` or
    https://ui.perfetto.dev.  Timestamps are microseconds (the format's
    convention).
    """
    track_of, max_track = _assign_tracks(trace)
    ranks = sorted({rec["rank"] for rec in trace})
    stride = (max(ranks) + 1) if ranks else 1
    lifted: set[tuple[int, int]] = set()
    events: list[dict[str, Any]] = []
    for rec in trace:
        args = {k: rec[k] for k in _CHROME_ARGS if k in rec}
        kind = args["kind"] = rec.get("kind", "dispatch")
        tid = rec["rank"]
        if max_track:
            track = track_of.get(rec.get("sid"), 0)
            if track:
                lifted.add((tid, track))
                tid += track * stride
        event: dict[str, Any] = {
            "name": _event_name(rec, kind),
            "ts": rec["t"] * 1e6,
            "pid": 0,
            "tid": tid,
            "args": args,
        }
        dur = rec.get("dur")
        if dur is not None:
            event["ph"] = "X"
            event["dur"] = dur * 1e6
        else:
            event["ph"] = "i"
            event["s"] = "t"  # thread scoped
        events.append(event)
    for rank in ranks:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "args": {"name": f"rank {rank}"},
            }
        )
    for rank, track in sorted(lifted):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": rank + track * stride,
                "args": {"name": f"rank {rank} (overlap {track})"},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def save_chrome_trace(trace: list[dict], path: str) -> None:
    """Write :func:`to_chrome_trace` output to *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(trace), fh)


def format_timeline(trace: list[dict], width: int = 72,
                    max_rows: int = 40) -> str:
    """ASCII timeline: one line per record, bar position = virtual time.

    Records are sorted by ``(t, rank)`` first, so multi-rank timelines
    read chronologically even though the raw stream is in begin order;
    truncation to *max_rows* keeps the earliest records.  Span records
    show their duration; instant records a bare marker.
    """
    if not trace:
        return "(empty trace)"
    ordered = sorted(trace, key=lambda rec: (rec["t"], rec["rank"]))
    t_max = max(rec["t"] for rec in ordered) or 1.0
    lines = [
        f"{'t(us)':>10}  {'dur(us)':>9}  {'rank':>4}  {'event':<32} timeline",
    ]
    shown = ordered[:max_rows]
    for rec in shown:
        pos = int(rec["t"] / t_max * (width - 1)) if t_max else 0
        bar = "." * pos + "|"
        dur = rec.get("dur")
        dur_s = f"{dur * 1e6:>9.2f}" if dur is not None else f"{'-':>9}"
        lines.append(
            f"{rec['t'] * 1e6:>10.2f}  {dur_s}  {rec['rank']:>4}  "
            f"{_event_name(rec, rec.get('kind', 'dispatch')):<32} {bar}"
        )
    if len(ordered) > max_rows:
        lines.append(f"... (+{len(ordered) - max_rows} more records)")
    return "\n".join(lines)
