"""Macro-event replay cache: memoize repeated collective dispatches.

The benchmark methodology (warmup + repetition loops over the *same*
collective) and the apps (SUMMA panel broadcasts, BPMF allreduces,
stencil halo rounds) dispatch byte-identical collectives hundreds of
times per simulation.  The engine is deterministic, so once one such
dispatch has been simulated its outcome — per-rank virtual-time deltas,
byte/message counter increments, and the span-stream slice — is a pure
function of the *replay key*:

* the job prefix: engine version, machine fingerprint (covers sockets,
  transport, topology), placement (node/socket vectors + socket mode),
  tuning personality, selection policy and trace detail;
* the operation name and the per-rank payload signatures (sizes/roots/
  reduce ops — the dtype signature);
* the vector of relative per-rank entry-time offsets.

When every rank of a world-covering communicator enters a collective at
the *same* timestep (the all-zero offset vector — the only vector this
implementation replays) and the job is quiescent, the dispatch is not
simulated at all.  Instead its record is applied in O(nranks): one
pre-triggered wake event per rank at ``entry + delta``, bulk counter
increments, and the recorded span slice re-emitted time-shifted with a
``replayed`` tag.  Virtual-time latencies, traffic accounting and span
streams are bit-identical to normal execution (the equivalence suite
asserts this); only the processed-event count drops — that is the point.

Recording — one measurement, where the dispatch runs
----------------------------------------------------
The *first* occurrence of each dispatch shape in a job always executes
live: one-off lazy setup (hierarchy sub-communicators, shared windows,
per-comm caches) must happen in the live job exactly as it would with
replay off, so first-occurrence cost — which includes that setup —
stays bit-identical.  Every record is measured by one :class:`_Window`,
opened on an aligned, quiescent occurrence whose key has no record yet
— the first one, or a later one (another arrival order, an occurrence
whose window was vetoed) — from the simultaneous release of the parked
ranks to the entry in which the last of them exits: per-rank tick
durations, exit order, results, counter and profile increments, span
templates and the engine entries the dispatch cost.
The record is measured where it runs, and it primes the lane so the
next occurrence is a hit without a key.  The window only stands for the
dispatch alone when, at its close, every other rank is waiting — in the
world's ``Comm.align()``, or parked at the entry of the next world
dispatch — and nothing but the dispatch's own retiring message steps is
left, no setup gate opened (``Comm._gate``: a first
use that splits or allocates windows, which the job's ``gates`` counter
shows) and every profile was on.  Otherwise (``STATS["inplace_vetoes"]``)
that occurrence simply stays live and the next one tries again; where
the window closed on work beside the dispatch (``trailing_work``,
``not_aligned``), the program does that again, so its key is not
measured again in the job.  A
world dispatch nested in the measured one (a one-node hybrid call's
barrier) is part of it: it parks and runs live inside the window, and
is not decided on its own.  There is no per-operation table: whatever
reaches :meth:`ReplaySession.run` with an encodable call is replayable.
Because scheduled delays are translation-invariant on the engine's tick
grid, records replay bit-identically from any later quiescent entry at
any absolute time.  Records are cached process-globally, so repetitions
across jobs in one process (the sweep service, parameter sweeps) record
only once per dispatch shape.

Lanes — a repetition is recognised, not re-keyed
------------------------------------------------
Keying is O(ranks) per dispatch, and a repetition loop would pay it for
nothing: when every rank repeats its last call, for the same operation in
the same arrival order, the communicator's :class:`_Lane` hands back the
record of the last decision without building a key.  The key stays the
only way a record is first found or made, and every check below still
runs per dispatch (``docs/performance.md``, "Keying").

Bodies — built on the live branch only
--------------------------------------
A dispatch reaches :meth:`ReplaySession.run` as a recipe, ``make(*args)``
— :meth:`Comm._timed` over the ``run_*`` function, or a ``hy_*``
function and its arguments — never as a built coroutine.  The session
builds the body only where the dispatch runs live (released, late, or on
a communicator without a lane), so a hit builds no body: per
rank it runs the call's entry, its park and wake, and its align.
``Comm._timed`` stays the one profiler; what a hit adds to a profile is
its record's increments, bound once per plan.

Safety — quiescence and fall-through
------------------------------------
Replay is gated by a quiescence predicate evaluated when all ranks have
parked: no unmatched p2p sends/receives, no outstanding non-blocking
``CollRequest`` (:func:`~repro.mpi.nonblocking.spawn_collective`
maintains the counter), no live engine process besides the parked rank
programs, and no open trace span.
Anything else — ranks arriving at different timesteps, non-replayable
payloads (real ndarrays), permuted communicators, unknown sync policies
— falls through to normal execution, released *at the entry timestep*,
so misses are unconditionally undistorted.

Each decided dispatch is counted once (:func:`cache_stats`): a hit —
``lane_hits`` of them taken by the lane — or a live run by reason,
``live`` (:data:`LIVE_REASONS`); the last three reasons are the misses.

``REPRO_REPLAY_VERIFY=1`` executes every hit live, measures it with the
window that records, and compares the two records whole — ``events``
only where the window closed clean.
"""

from __future__ import annotations

from dataclasses import astuple
from types import MethodType
from typing import Any

from repro.mpi.constants import ReduceOp
from repro.mpi.datatypes import Bytes
from repro.mpi.p2p import _Message
from repro.mpi.profiler import OpStats
from repro.simulator.engine import (
    _INV_TICK,
    _PENDING,
    _TRIGGERED,
    ENGINE_VERSION,
    TICK,
    Event,
)

__all__ = [
    "ReplaySession",
    "ReplayVerifyError",
    "payload_signature",
    "sync_signature",
    "call_signature",
    "replay_key",
    "cache_stats",
    "clear_cache",
]


class ReplayVerifyError(AssertionError):
    """A replay record disagreed with live execution (verify mode)."""


# ---------------------------------------------------------------------------
# Process-global record cache
# ---------------------------------------------------------------------------

#: FIFO-capped record cache shared by every job in the process (the
#: sweep service's workers warm it across requests).
_CACHE: dict[Any, "_Record"] = {}
_CACHE_CAP = 4096
_MISSING = object()

#: Why an occurrence was not recorded where it ran (see :class:`_Window`;
#: ``profile_off``: a rank's profile was off at the release, so the
#: record would lack that rank's increments).
VETOES = ("profile_off", "trailing_work", "not_aligned", "setup_gate")

#: Why a decided world dispatch ran live instead of replaying (see
#: :meth:`ReplaySession._decide`): ranks entered at different timesteps;
#: something was in flight; a rank's call had no signature; the shape's
#: first occurrence in the job; a later occurrence whose key has no
#: record yet; its record's ranks exit at different ticks, which only
#: loop mode applies.  The last three are the misses.
LIVE_REASONS = ("staggered", "not_quiescent", "unsigned",
                "first_occurrence", "unrecorded", "non_uniform")

#: Process-lifetime counters (exposed by the sweep service ``/stats``),
#: once per dispatch: every decided dispatch is a hit (``lane_hits`` of
#: them taken without building a key) or runs live for one reason.
STATS = {"hits": 0, "misses": 0, "records": 0, "evictions": 0,
         "inplace_vetoes": dict.fromkeys(VETOES, 0),
         "lane_hits": 0, "live": dict.fromkeys(LIVE_REASONS, 0)}


def cache_stats() -> dict:
    """Snapshot of the process-global replay cache counters."""
    return dict(STATS, inplace_vetoes=dict(STATS["inplace_vetoes"]),
                live=dict(STATS["live"]), entries=len(_CACHE))


def clear_cache() -> None:
    """Drop all cached records (counters are kept — they are
    process-lifetime)."""
    _CACHE.clear()


def _cache_put(key: Any, rec: "_Record") -> None:
    if len(_CACHE) >= _CACHE_CAP:
        _CACHE.pop(next(iter(_CACHE)))
        STATS["evictions"] += 1
    _CACHE[key] = rec
    STATS["records"] += 1


# ---------------------------------------------------------------------------
# Keying
# ---------------------------------------------------------------------------

def payload_signature(payload: Any):
    """Replay-safe signature of one rank's payload, or None.

    Size-only payloads (:class:`Bytes`, None, lists thereof) fully
    determine simulated cost; anything carrying data (ndarrays) returns
    None and vetoes replay for the whole dispatch.
    """
    if payload is None:
        return ("none",)
    if isinstance(payload, Bytes):
        return ("b", payload.nbytes)
    if isinstance(payload, (list, tuple)):
        sizes = []
        for p in payload:
            if isinstance(p, Bytes):
                sizes.append(p.nbytes)
            elif p is None:
                sizes.append(-1)
            else:
                return None
        return ("lb", tuple(sizes))
    return None


def sync_signature(sync: Any):
    """Keyable descriptor of an on-node sync policy, or None.

    A policy is replayable when *its own class* declares a
    ``replay_signature`` method (the two modelled policies do); a
    subclass could carry hidden state the inherited signature cannot
    capture, so it vetoes replay until it declares its own.
    """
    describe = vars(type(sync)).get("replay_signature")
    return None if describe is None else describe(sync)


#: Types that are their own signature (bools are ints).
_PLAIN = (int, str, ReduceOp)


def call_signature(args: tuple):
    """Replay-safe signature of one rank's call, or None (veto).

    The one encoder for every collective: payloads (:class:`Bytes`,
    None, lists) encode through :func:`payload_signature`, plain scalars
    (ints, bools, :class:`ReduceOp`) are their own signature, and so is
    a tuple of plain values — a descriptor the caller encoded itself
    (``HybridContext`` hands over a shared buffer as its slot-size tuple
    and a sync policy as its :func:`sync_signature`).  Anything else —
    an ndarray — has no signature and vetoes replay for the dispatch.
    """
    sig = []
    for a in args:
        if not (isinstance(a, _PLAIN) or (
            type(a) is tuple and a and isinstance(a[0], _PLAIN)
        )):
            a = payload_signature(a)
            if a is None:
                return None
        sig.append(a)
    return tuple(sig)


def replay_key(prefix: tuple, op: str, sigs: tuple, offsets: tuple,
               order: tuple = ()) -> tuple:
    """The full cache key of one dispatch.

    *offsets* is the vector of per-rank entry-time offsets in ticks
    relative to the earliest rank.  The runtime only ever replays the
    all-zero vector (simultaneous entry), but the key is sensitive to it
    by construction — staggered entries must never alias aligned ones.

    *order* is the intra-timestep arrival permutation (ranks in the
    order their entry events processed).  Even from a simultaneous
    entry, order-sensitive resource queues (links, memory channels)
    grant in first-come order, so two aligned entries with different
    arrival permutations assign the contention tail to different ranks;
    they must never share a record.
    """
    return (prefix, op, tuple(sigs), tuple(offsets), tuple(order))


def job_prefix(job) -> tuple:
    """Everything outside the dispatch itself that determines its cost."""
    placement = job.placement
    n = placement.num_ranks
    machine = job.machine
    return (
        ENGINE_VERSION,
        job.spec.fingerprint(),
        n,
        placement.socket_mode,
        tuple(placement.node_of(r) for r in range(n)),
        tuple(machine.socket_of(r) for r in range(n)),
        astuple(job.tuning),
        type(job.policy).__name__,
        job.policy.describe(),
        None if job.tracer is None
        else (job.tracer.detail, job.tracer.compute),
    )


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class _Record:
    """Outcome of one dispatch from a quiescent simultaneous entry."""

    __slots__ = (
        "d_ticks", "results", "counters", "templates", "events",
        "exit_order", "profiles",
    )

    def __init__(self, d_ticks, results, counters, templates, events,
                 exit_order, profiles):
        self.d_ticks = d_ticks        # per-rank duration in whole ticks
        self.results = results        # per-rank return values
        self.counters = counters      # job counter deltas (see _counters)
        self.templates = templates    # span templates (t as relative ticks)
        self.events = events          # n release events plus its own
        self.exit_order = exit_order  # ranks in exit-event processing order
        self.profiles = profiles      # per-rank (op, dcalls, dbytes, dtime)


def _counters(job):
    """The six counters a :class:`JobResult` reports, for window deltas."""
    net = job.machine.network.stats
    return (job.msg_engine.sent_messages, job.msg_engine.sent_bytes,
            job.machine.intra_copies, job.machine.intra_bytes,
            net.messages, net.bytes)


_RETIRE = _Message._retire


class _Window:
    """One dispatch measured in the job it runs in, from the simultaneous
    release of its parked ranks to the entry in which the last of them
    exits — the one measurement behind every record, and behind the
    live run of a verified hit.

    Each rank reports its duration and result from its exit entry; the
    last report closes the window, and right after that entry — where
    ``event_count`` is exact (:meth:`Engine.after_entry`) — *sink*
    receives the :class:`_Record` and a veto, None or why the record
    does not stand for the dispatch alone:

    * ``setup_gate`` — the run opened a setup gate (``job.gates``
      moved), so it was a warm run;
    * ``trailing_work`` — at the close anything but the dispatch's own
      trailing :meth:`_Message._retire` steps was scheduled or in flight,
      or a span of the slice was still open;
    * ``not_aligned`` — right after its exit a rank was neither
      waiting in its world ``Comm.align()`` nor parked at the entry of
      the next world dispatch, or it was released into that dispatch
      while the window was open.

    Those steps are entries the dispatch still costs, so they count in
    ``events``, as do the park and release entries of a world dispatch
    nested in it (:meth:`ReplaySession._decide` runs that live); under
    ``trailing_work`` and ``not_aligned`` the count may hold entries of
    something else and ``events`` is None.
    """

    __slots__ = ("job", "sink", "t0_ticks", "events0", "gates",
                 "counters", "spans", "profiles", "exits", "aligned",
                 "closed")

    def __init__(self, job, sink):
        # Opened by a decision, which runs as an advance hook: the
        # engine is between entries and ``event_count`` is exact.
        eng = job.engine
        self.job = job
        self.sink = sink
        self.t0_ticks = round(eng.now * _INV_TICK)
        self.events0 = eng.event_count
        self.gates = job.gates
        self.counters = _counters(job)
        self.spans = len(job.tracer.records) if job.tracer is not None else 0
        self.profiles = [
            {o: (s.calls, s.bytes, s.time)
             for o, s in ctx.profile.ops.items()}
            for ctx in job.contexts
        ]
        #: rank -> (d_ticks, result), in exit order.
        self.exits: dict[int, tuple[int, Any]] = {}
        self.aligned = True
        self.closed = False

    def report(self, rank: int, d_ticks: int, result: Any) -> None:
        """*rank* exits the dispatch; called from its exit entry."""
        if type(result) is list:
            result = list(result)  # the caller may mutate the one it gets
        exits = self.exits
        exits[rank] = (d_ticks, result)
        if len(exits) < len(self.profiles):
            self.job.engine.after_entry(lambda: self._went_waiting(rank))
        else:
            self._close(rank)

    def _waiting(self, rank: int) -> bool:
        """*rank* does nothing: it waits in its world ``Comm.align()``,
        or is parked at the entry of a world dispatch not decided yet
        (the next call of a loop without aligns)."""
        comm = self.job.contexts[rank].world
        gate = comm._shared._align
        if (gate is not None and gate.seq == comm._gate_seq
                and gate.slots[rank] is not None):
            return True
        return any(
            rank in pend.arrivals and pend.decided is None
            for lane in self.job.replay._lanes.values() if lane is not None
            for pend in lane.pending.values()
        )

    def _went_waiting(self, rank: int) -> None:
        # Right after an earlier rank's exit entry: anything it did
        # before it started waiting would have run inside the window.
        if not self.closed and not self._waiting(rank):
            self.aligned = False

    def _close(self, last: int) -> None:
        self.closed = True
        job = self.job
        eng = job.engine
        counters = tuple(a - b for a, b in zip(_counters(job), self.counters))
        # Every quantity on the tick grid at benchmark magnitudes sums
        # exactly in binary floating point, so plain deltas reproduce
        # live accumulation bit-for-bit.
        profiles = []
        for ctx, before in zip(job.contexts, self.profiles):
            delta = []
            for o, s in ctx.profile.ops.items():
                c0, b0, t0 = before.get(o, (0, 0.0, 0.0))
                if (s.calls, s.bytes, s.time) != (c0, b0, t0):
                    delta.append((o, s.calls - c0, s.bytes - b0, s.time - t0))
            profiles.append(tuple(sorted(delta)))
        templates, spans_closed = None, True
        if job.tracer is not None:
            templates, spans_closed = _templates(
                job.tracer.records[self.spans:], self.t0_ticks
            )
        # What is still scheduled may only be the dispatch's own message
        # chains retiring — entries it costs, which spawn nothing.
        trailing = 0
        for item in eng._deferred:
            if type(item) is not MethodType or item.__func__ is not _RETIRE:
                trailing = -1
                break
            trailing += 1
        exits = self.exits
        msgs = job.msg_engine
        quiet = (
            trailing == msgs.in_flight and not msgs.pending_total
            and not eng._heap and len(eng._live_processes) == len(exits)
        )
        aligned = self.aligned and all(
            self._waiting(r) for r in exits if r != last
        )
        if job.gates != self.gates:
            reason = "setup_gate"
        elif not (quiet and spans_closed):
            reason = "trailing_work"
        elif not aligned:
            reason = "not_aligned"
        else:
            reason = None
        exact = quiet and aligned
        ranks = range(len(exits))
        d_ticks = tuple(exits[r][0] for r in ranks)
        results = [exits[r][1] for r in ranks]

        def measured() -> None:
            events = eng.event_count - self.events0 + trailing
            self.sink(_Record(
                d_ticks, results, counters, templates,
                events if exact else None, tuple(exits), tuple(profiles),
            ), reason)

        eng.after_entry(measured)


def _templates(spans: list[dict], t0_ticks: int) -> tuple[list[dict], bool]:
    """Span templates of a window's slice — ``t`` as ticks from
    *t0_ticks* — and whether every span of it closed inside it, with
    its parent (a template cannot re-open either)."""
    templates = []
    sids = set()
    closed = True
    for r in spans:
        tpl = dict(r)
        sid = tpl.get("sid")
        if sid is not None:
            par = tpl.get("parent")
            if tpl.get("dur") is None or (par is not None and par not in sids):
                closed = False
            sids.add(sid)
        # In place, so a re-emitted record keeps the live key order.
        tpl["t"] = round(tpl["t"] * _INV_TICK) - t0_ticks
        templates.append(tpl)
    return templates, closed


def _compare(op: str, rec: _Record, live: _Record, contexts) -> None:
    """Verify: *live*, a hit executed live and measured by the window
    that records, against the record the hit applied."""
    # A profile switched off records nothing live, and an applied
    # record adds nothing to it either.
    profiles = tuple(
        delta if ctx.profile.enabled else ()
        for ctx, delta in zip(contexts, rec.profiles)
    )
    checks = [
        ("per-rank tick deltas", rec.d_ticks, live.d_ticks),
        ("exit order", rec.exit_order, live.exit_order),
        ("results", rec.results, live.results),
        ("counter deltas", rec.counters, live.counters),
        ("profile deltas", profiles, live.profiles),
    ]
    if rec.templates is not None and live.templates is not None:
        checks.append(("span slice", _normalize(rec.templates),
                       _normalize(live.templates)))
    if live.events is not None:
        # Only a window that closed clean counted the dispatch alone.
        checks.append(("events", rec.events, live.events))
    for what, recorded, seen in checks:
        if recorded != seen:
            raise ReplayVerifyError(
                f"replay verify failed for {op!r}: {what}: "
                f"recorded {recorded!r} != live {seen!r}"
            )


_SPAN_DROP = ("sid", "parent", "replayed")


def _normalize(templates: list[dict]) -> list[dict]:
    """Span templates made comparable: span ids become slice
    positions (and the relative time is named ``_tt``)."""
    sid_pos = {}
    out = []
    for i, r in enumerate(templates):
        d = {k: v for k, v in r.items() if k not in _SPAN_DROP}
        d["_tt"] = d.pop("t")
        sid = r.get("sid")
        if sid is not None:
            sid_pos[sid] = i
            par = r.get("parent")
            d["_par"] = None if par is None else sid_pos.get(par)
        out.append(d)
    return out


class _Pending:
    """Parking state of one collective entry (one lane, one sequence)."""

    __slots__ = ("op", "arrivals", "late", "decided")

    def __init__(self, op: str):
        self.op = op
        self.arrivals: dict[int, Event] = {}  # rank -> park, arrival order
        self.late = 0  # ranks arriving after the parked ones were released
        #: "live" once released; "gated" until its gate fires.
        self.decided: str | None = None


#: Remembered in place of a call that must not be recognised again: one
#: without a signature, or holding a list (callers mutate and reuse them).
_NEVER = object()

#: A plan's wake value for a list result, which each hit copies.
_COPY = object()
#: The wake of a rank released live, unmeasured (a measured one gets
#: its window); a value of any other type is a hit's result.
_LIVE = object.__new__(_Window)


class _Lane:
    """Replay state of one world-covering communicator: each rank's
    last call beside its signature, and the last decision applied — a
    dispatch repeating that decision's calls, operation and arrival
    order takes its plan without building a key
    (:meth:`ReplaySession._decide`)."""

    __slots__ = ("seq", "calls", "sigs", "epoch", "pending", "applied",
                 "plan")

    def __init__(self, n: int):
        self.seq = [0] * n              # per-rank dispatch counters
        self.calls: list[Any] = [_NEVER] * n
        self.sigs: list[Any] = [None] * n
        self.epoch = 0                  # bumped when any rank's memo changes
        self.pending: dict[int, _Pending] = {}
        #: ``(op, epoch, arrival order)`` of the last applied hit — or of
        #: an occurrence that found or made a record — and its plan.
        self.applied: tuple | None = None
        self.plan: _Plan | None = None


class _Plan:
    """One record bound to one job: what applying it would otherwise
    re-derive on every hit.  Holds the record, so a plan table keyed by
    record cannot alias an evicted one."""

    __slots__ = ("rec", "uniform", "wakes", "profiles", "unbound")

    def __init__(self, rec: _Record, contexts):
        self.rec = rec
        d = rec.d_ticks
        #: Every rank exits at one timestep (what default mode requires).
        self.uniform = d.count(d[0]) == len(d)
        #: The wake table: ``(d_ticks, [(rank, result), ...])`` per exit
        #: tick, in the order the ticks first occur in the exit order,
        #: ranks in exit order; a list result is copied per hit instead
        #: (callers may mutate it): :data:`_COPY` here.
        wakes: dict[int, list] = {}
        for r in rec.exit_order:
            result = rec.results[r]
            wakes.setdefault(d[r], []).append(
                (r, _COPY if type(result) is list else result)
            )
        self.wakes = list(wakes.items())
        #: ``(profile, OpStats, calls, bytes, time)``, one flat list over
        #: every rank's increments, bound by :meth:`bind`.
        self.profiles: list[tuple] = []
        #: ``(profile, increments)`` of the ranks not bound yet.
        self.unbound = [
            (contexts[rank].profile, delta)
            for rank, delta in enumerate(rec.profiles) if delta
        ]

    def bind(self) -> None:
        """Pair the increments of every profile that is on now with its
        ``OpStats`` — once per rank; an off profile waits for the first
        hit that finds it on (binding creates the entry)."""
        unbound = []
        for prof, delta in self.unbound:
            if prof.enabled:
                ops = prof.ops
                self.profiles.extend(
                    (prof, ops.setdefault(o, OpStats()), dc, dby, dt)
                    for o, dc, dby, dt in delta
                )
            else:
                unbound.append((prof, delta))
        self.unbound = unbound


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------

class ReplaySession:
    """Per-job replay state: parking, decision, recording, application.

    Created by :class:`~repro.mpi.runtime.MPIJob` when replay is enabled
    and structurally possible (symbolic payload mode, no noise model).
    """

    def __init__(self, job, verify: bool, loop: bool):
        self.job = job
        self.engine = job.engine
        self.verify = verify
        #: Loop mode: apply records whose ranks exit at *different*
        #: timesteps.  While such a replay's window [entry, last exit]
        #: passes, the simulator's resources sit idle even though the
        #: recorded execution kept them busy — so any live op released
        #: inside the window would see contention-free resources and
        #: diverge from unreplayed execution.  Parking (an align gate or
        #: an eligible dispatch entry) is the only activity that can
        #: safely overlap a window; loop mode is therefore reserved for
        #: align-disciplined programs (the benchmark harnesses), whose
        #: ranks go straight from each collective into ``Comm.align()``.
        #: The default mode only applies uniform-exit records — an atomic
        #: time jump with an empty window, unconditionally exact for
        #: arbitrary programs.  Both modes record the same way: a window
        #: on an aligned occurrence, which stands for the dispatch only
        #: where that occurrence kept the align contract.
        self.loop = loop
        self.world_size = job.placement.num_ranks
        self.hits = 0
        self.misses = 0
        self.events_saved = 0
        #: Outstanding non-blocking collectives (any rank) — maintained
        #: by :func:`repro.mpi.nonblocking.spawn_collective`.
        self.pending_icolls = 0
        #: Lane per communicator id; None where replay never applies
        #: (not the world's ranks in world order).
        self._lanes: dict[int, _Lane | None] = {}
        self._plans: dict[_Record, _Plan] = {}
        #: Dispatch shapes ``(op, sigs)`` that have executed live at
        #: least once in this job — replay only applies after that.
        self._warm: set[tuple] = set()
        #: Keys whose window closed vetoed by what the program does
        #: beside the dispatch (``trailing_work``, ``not_aligned``),
        #: which it does again at the next occurrence: not measured
        #: again in this job.
        self._unrecordable: set[tuple] = set()
        self._prefix: tuple | None = None
        #: Windows open now: in-place recordings and verified hits.
        self._windows: list[_Window] = []

    @property
    def prefix(self) -> tuple:
        if self._prefix is None:
            self._prefix = job_prefix(self.job)
        return self._prefix

    # -- entry ----------------------------------------------------------
    def run(self, comm, op: str, call, make, args: tuple):
        """Coroutine: route one dispatch through the replay layer.

        ``make(*args)`` builds the coroutine of normal execution
        (profiling included, so a record holds the profile entries the
        live run makes); it is built only where the dispatch runs live —
        released, late, or on a communicator without a lane — so a hit
        builds nothing.  *call* is the argument tuple of the public call
        that issued it, from which this rank's signature is derived —
        None, or an argument without a signature, vetoes (the decision is
        still collective, so every rank parks either way).

        A recipe whose first argument is an :class:`Event` is behind it
        (``Comm.allgatherv``'s size gate): its ranks park at once, none
        waits on the gate, and the decision is taken where it fires.  The
        park is pooled (:meth:`Engine.pooled`); it wakes with the result
        on a hit, a :class:`_Window` (or :data:`_LIVE`) on a release.
        """
        shared = comm._shared
        lane = self._lanes.get(shared.id, _MISSING)
        if lane is _MISSING:
            n = self.world_size
            lane = self._lanes[shared.id] = (
                _Lane(n) if shared.group.world_ranks() == tuple(range(n))
                else None
            )
        if lane is None:
            return (yield from make(*args))
        rank = comm.rank
        try:
            repeat = call == lane.calls[rank]
        except ValueError:  # an ndarray argument: no truth value to ==
            repeat = False
        if not repeat:
            # Encode only a call this rank did not make last time.
            sig = None if call is None else call_signature(call)
            memo = sig is not None and not any(
                isinstance(a, list) for a in call
            )
            lane.calls[rank] = call if memo else _NEVER
            lane.sigs[rank] = sig
            lane.epoch += 1
        eng = self.engine
        seq = lane.seq[rank] = lane.seq[rank] + 1
        pend = lane.pending.get(seq)
        if pend is None:
            pend = lane.pending[seq] = _Pending(op)
            if type(args[0]) is not Event:
                eng.on_time_advance(lambda: self._decide(lane, seq))
            else:
                # Behind a gate: decided from where it fires, as when its
                # ranks waited on it.
                pend.decided = "gated"
                args[0].add_callback(lambda _: eng.on_time_advance(
                    lambda: self._decide(lane, seq)))
        elif pend.decided == "live":
            # Earlier ranks were already released for live execution;
            # this rank arrived at a later timestep and runs directly.
            pend.late += 1
            if len(pend.arrivals) + pend.late == self.world_size:
                del lane.pending[seq]
            return (yield from make(*args))
        # Engine.pooled() inlined; the wake sets the value.
        pool = eng._pause_pool
        ev = pend.arrivals[rank] = pool.pop() if pool else eng.pooled()
        ev._state = _PENDING
        value = yield ev
        if type(value) is not _Window:
            return value  # a hit: the recorded result
        t0 = eng.now
        result = yield from make(*args)
        if value is not _LIVE:
            # A measured run: recorded in place, or a verified hit.
            value.report(rank, round((eng.now - t0) * _INV_TICK), result)
        return result

    # -- decision -------------------------------------------------------
    def _decide(self, lane: _Lane, seq: int) -> None:
        pend = lane.pending.get(seq)
        if pend is None or pend.decided == "live":
            return
        if len(pend.arrivals) == self.world_size:
            # Every rank arrived; a staggered entry stays for its late
            # ranks.
            del lane.pending[seq]
        if self._windows:
            # Decided inside a measured dispatch.  Ranks that already
            # left it ran ahead into this one, a staggered entry, and
            # run it inside that window, which no longer stands for its
            # dispatch alone; otherwise this one is nested in it (a
            # one-node hybrid call's barrier on the world's ranks): part
            # of that dispatch, so it runs live there, as in every live
            # run the record stands for, and is not decided on its own.
            ahead = False
            for w in self._windows:
                if any(r in w.exits for r in pend.arrivals):
                    w.aligned, ahead = False, True
            if ahead:
                STATS["live"]["staggered"] += 1
            self._release(pend, None)
            return
        live = STATS["live"]
        if len(pend.arrivals) < self.world_size:
            # Staggered entry: release the parked ranks in the same
            # timestep they arrived — zero virtual-time distortion.
            live["staggered"] += 1
            self._release(pend, None)
            return
        # Every rank is parked here, so every memo holds this dispatch's
        # call (a rank that ran ahead changed the epoch on the way).
        shape = (pend.op, lane.epoch, tuple(pend.arrivals))
        window = None
        if not self.quiescent():
            plan, reason = None, "not_quiescent"
        elif shape == lane.applied:
            # No memo changed since the last hit was applied, same
            # operation and arrival order: the key is the one that
            # selected that hit's record.  Verify checks that (an evicted
            # entry selects none).
            plan = lane.plan
            STATS["lane_hits"] += 1
            if self.verify and _CACHE.get(
                self._key(pend.op, tuple(lane.sigs), shape[2]), plan.rec
            ) is not plan.rec:
                raise ReplayVerifyError(
                    f"replay verify failed for {pend.op!r}: the lane "
                    "selected a record the full key does not"
                )
        elif None in lane.sigs:
            plan, reason = None, "unsigned"
        else:
            sigs = tuple(lane.sigs)
            key = self._key(pend.op, sigs, shape[2])
            rec = _CACHE.get(key)
            if (pend.op, sigs) not in self._warm:
                # First execution of this dispatch shape in the job: run
                # it live so one-off lazy setup (sub-comms, windows,
                # caches) lands in the live job exactly as it would with
                # replay off.  Records are steady-state and apply from
                # the second occurrence on.
                self._warm.add((pend.op, sigs))
                plan, reason = None, "first_occurrence"
                if rec is not None:
                    self._prime(lane, shape, rec)
            elif rec is None:
                plan, reason = None, "unrecorded"
            else:
                plan, reason = self._prime(lane, shape, rec), "non_uniform"
            if plan is None:
                self.misses += 1
                STATS["misses"] += 1
                if rec is None and key not in self._unrecordable:
                    window = self._in_place(lane, shape, key)
        if plan is None:
            live[reason] += 1
            self._release(pend, window)
            return
        self.hits += 1
        STATS["hits"] += 1
        if self.verify:
            rec, contexts = plan.rec, self.job.contexts
            self._release(pend, self._open(
                lambda live, _reason: _compare(pend.op, rec, live, contexts)
            ))
        else:
            self._apply(plan, pend.arrivals)

    def _key(self, op: str, sigs: tuple, order: tuple) -> tuple:
        return replay_key(self.prefix, op, sigs, (0,) * self.world_size,
                          order)

    def _plan(self, rec: _Record) -> _Plan:
        plan = self._plans.get(rec)
        if plan is None:
            plan = self._plans[rec] = _Plan(rec, self.job.contexts)
        return plan

    def _open(self, sink) -> _Window:
        """A window on the dispatch about to be released; *sink* gets
        what it measured."""
        def closed(rec: _Record, reason: str | None) -> None:
            self._windows.remove(window)
            sink(rec, reason)

        window = _Window(self.job, closed)
        self._windows.append(window)
        return window

    def _prime(self, lane: _Lane, shape: tuple, rec: _Record
               ) -> _Plan | None:
        """The plan of *rec*, which the lane takes for the next
        occurrence of *shape* — None where this mode does not apply it
        (non-uniform exits in default mode)."""
        plan = self._plan(rec)
        if not (self.loop or plan.uniform):
            return None
        lane.applied, lane.plan = shape, plan
        return plan

    def _in_place(self, lane: _Lane, shape: tuple, key: tuple
                  ) -> _Window | None:
        """An aligned, quiescent occurrence whose key has no record: the
        window that records it where it runs, caches the record under
        *key* and primes the lane with it.  None when this occurrence
        cannot stand for the dispatch alone; it then stays live, and the
        next occurrence tries again — unless the window closed on what
        the program does beside the dispatch."""
        vetoes = STATS["inplace_vetoes"]
        if not all(ctx.profile.enabled for ctx in self.job.contexts):
            # An off profile records nothing: the record would lack
            # that rank's increments.
            vetoes["profile_off"] += 1
            return None
        if self.engine._heap:
            vetoes["trailing_work"] += 1
            return None

        def recorded(rec: _Record, reason: str | None) -> None:
            if reason is not None:
                vetoes[reason] += 1
                if reason in ("trailing_work", "not_aligned"):
                    self._unrecordable.add(key)
                return
            _cache_put(key, rec)
            self._prime(lane, shape, rec)

        return self._open(recorded)

    def _release(self, pend: _Pending, window: _Window | None) -> None:
        # Arrival order (dict insertion order), NOT rank order: released
        # ranks re-execute their entry actions in the same relative
        # order they would have run unparked, so order-sensitive
        # resource queues (links, memory channels) grant identically.
        pend.decided = "live"
        value = _LIVE if window is None else window
        for ev in pend.arrivals.values():
            ev.succeed(value)

    def quiescent(self) -> bool:
        """True when replay cannot interact with anything in flight."""
        if self.pending_icolls:
            return False
        # Only the parked rank programs may be live: a background
        # process, an unmatched message or one still in flight vetoes.
        if len(self.engine._live_processes) != self.world_size:
            return False
        msgs = self.job.msg_engine
        if msgs.pending_total or msgs.in_flight:
            return False
        tracer = self.job.tracer
        if tracer is not None:
            # An open span would become the replayed slice's silent
            # parent; the recorded parents would no longer match.
            for stack in tracer._open.values():
                if stack:
                    return False
        return True

    # -- application ----------------------------------------------------
    def _apply(self, plan: _Plan, arrivals: dict[int, Event]) -> None:
        rec = plan.rec
        eng = self.engine
        job = self.job
        base_ticks = eng.now * _INV_TICK
        me = job.msg_engine
        mach = job.machine
        net = mach.network.stats
        dm, db, dic, dib, dnm, dnb = rec.counters
        me.sent_messages += dm
        me.sent_bytes += db
        mach.intra_copies += dic
        mach.intra_bytes += dib
        net.messages += dnm
        net.bytes += dnb
        if job.tracer is not None and rec.templates is not None:
            job.tracer.emit_replayed(rec.templates, base_ticks)
        if plan.unbound:
            plan.bind()
        for prof, stats, dc, dby, dt in plan.profiles:
            if prof.enabled:
                stats.calls += dc
                stats.bytes += dby
                stats.time += dt
        # Relative to replay-off execution: the dispatch would have cost
        # rec.events; replay costs the n wake events below instead.
        self.events_saved += rec.events - self.world_size
        # Wake in recorded exit order: ranks leaving at the same tick
        # resume in the same relative order as live execution, so the
        # *next* dispatch sees an identical entry permutation.  Each wake
        # is the rank's park, triggered and queued at its exit tick; a
        # tick's wakes join its bucket in one step.
        push_all = eng._push_all
        results = rec.results
        for d_ticks, wakes in plan.wakes:
            evs = []
            for rank, result in wakes:
                ev = arrivals[rank]
                ev._state = _TRIGGERED
                ev._value = (result if result is not _COPY
                             else list(results[rank]))
                evs.append(ev)
            push_all((base_ticks + d_ticks) * TICK, evs)
