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
  tuning personality, selection policy, link contention, trace detail
  and engine path;
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

Recording — the pocket simulation
---------------------------------
The *first* occurrence of each dispatch shape in a job always executes
live: one-off lazy setup (hierarchy sub-communicators, shared windows,
per-comm caches) must happen in the live job exactly as it would with
replay off, so first-occurrence cost — which includes that setup —
stays bit-identical.  From the second occurrence on, a cache miss
triggers a *pocket simulation* (:meth:`ReplaySession._record`): a
fresh nested :class:`~repro.mpi.runtime.MPIJob` on the same machine
spec decodes each rank's signature back into the call's arguments
(:func:`call_arguments`) and re-issues *the public call the live rank
made* — ``getattr(comm, op)(*args)``, or for the hybrid collectives the
call a recipe from :mod:`repro.core.hierarchy` rebuilds (context and
shared buffers are one-off setup, excluded from the record as the
paper's §5 excludes them).  It pays one warm run (mirroring the live
job's never-replayed first execution), parks all ranks quiescently,
then re-issues the call once more from a simultaneous release in the
live arrival permutation.  There is no per-operation table: whatever
reaches :meth:`ReplaySession.run` with an encodable call is replayable.  The
deltas of that steady-state run — per-rank tick durations, counter and
traffic increments, span templates, profile increments — form the
record, which is applied to the live job immediately (the miss itself
becomes a hit).  Because scheduled delays are translation-invariant on
the engine's tick grid, those deltas replay bit-identically from any
later quiescent entry at any absolute time.  Records are cached
process-globally, so repetitions across jobs in one process (the sweep
service, parameter sweeps) record only once per dispatch shape.

Safety — quiescence and fall-through
------------------------------------
Replay is gated by a quiescence predicate evaluated when all ranks have
parked: no unmatched p2p sends/receives, no outstanding non-blocking
``CollRequest`` (:func:`~repro.mpi.nonblocking.spawn_collective`
maintains the counter), no busy or contended RMA window lock, no live
engine process besides the parked rank programs, and no open trace span.
Anything else — ranks arriving at different timesteps, non-replayable
payloads (real ndarrays), permuted communicators, unknown sync policies
— falls through to normal execution, released *at the entry timestep*,
so misses are unconditionally undistorted.

``REPRO_REPLAY_VERIFY=1`` executes every hit *and* checks it against the
record, asserting bit-identical per-rank latencies, counter deltas and
(shift-normalized) span slices.
"""

from __future__ import annotations

import os
from dataclasses import astuple
from typing import Any

from repro.mpi.constants import ReduceOp
from repro.mpi.datatypes import Bytes
from repro.mpi.profiler import OpStats
from repro.simulator.engine import (
    _INV_TICK,
    _TRIGGERED,
    ENGINE_VERSION,
    TICK,
    DeadlockError,
    Event,
)

__all__ = [
    "ReplaySession",
    "ReplayVerifyError",
    "payload_signature",
    "sync_signature",
    "call_signature",
    "call_arguments",
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
#: sweep service's workers warm it across requests).  ``None`` values
#: are negative entries: the dispatch proved unreplayable once and is
#: not re-attempted.
_CACHE: dict[Any, "_Record | None"] = {}
_CACHE_CAP = 4096
_MISSING = object()

#: Per-shape budget of recorded-but-unusable pockets: once a dispatch
#: shape has produced this many records the session's mode could not
#: apply, it stops recording that shape and falls through to live
#: execution (pockets are not free; see ``ReplaySession._decide``).
_UNUSABLE_LIMIT = 3

#: Process-lifetime counters (exposed by the sweep service ``/stats``).
STATS = {"hits": 0, "misses": 0, "records": 0, "evictions": 0,
         "unreplayable": 0}


def cache_stats() -> dict:
    """Snapshot of the process-global replay cache counters."""
    return dict(STATS, entries=len(_CACHE))


def clear_cache() -> None:
    """Drop all cached records (counters are kept — they are
    process-lifetime)."""
    _CACHE.clear()


def _cache_put(key: Any, rec: "_Record | None") -> None:
    if len(_CACHE) >= _CACHE_CAP:
        _CACHE.pop(next(iter(_CACHE)))
        STATS["evictions"] += 1
    _CACHE[key] = rec
    if rec is None:
        STATS["unreplayable"] += 1
    else:
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


def call_arguments(sig: tuple) -> list:
    """Inverse of :func:`call_signature`: payload signatures become
    payloads again; scalars and descriptors stay as they are (only the
    caller that encoded a descriptor knows what it rebuilds into)."""
    args = []
    for s in sig:
        kind = s[0] if type(s) is tuple else None
        if kind == "none":
            s = None
        elif kind == "b":
            s = Bytes(s[1])
        elif kind == "lb":
            s = [None if n < 0 else Bytes(n) for n in s[1]]
        args.append(s)
    return args


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
        job.link_contention,
        job.fast_path,
        None if job.tracer is None
        else (job.tracer.detail, job.tracer.compute),
    )


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class _Record:
    """Outcome of one dispatch from a quiescent simultaneous entry."""

    __slots__ = (
        "d_ticks", "results", "counters", "per_pair", "max_hops",
        "templates", "events", "exit_order", "profiles",
    )

    def __init__(self, d_ticks, results, counters, per_pair, max_hops,
                 templates, events, exit_order, profiles):
        self.d_ticks = d_ticks        # per-rank duration in whole ticks
        self.results = results        # per-rank return values
        self.counters = counters      # bulk counter deltas (see _snapshot)
        self.per_pair = per_pair      # {(src,dst): (d_count, d_bytes)}
        self.max_hops = max_hops
        self.templates = templates    # span templates (t as relative ticks)
        self.events = events          # engine events one live execution costs
        self.exit_order = exit_order  # ranks in exit-event processing order
        self.profiles = profiles      # per-rank (op, dcalls, dbytes, dtime)

    def result_for(self, rank: int):
        v = self.results[rank]
        # Lists are handed to callers who may mutate them; Bytes/None are
        # value-semantic and safe to share.
        return list(v) if type(v) is list else v


def _snapshot(job):
    """Bulk counters + per-pair traffic of *job*, for window deltas."""
    net = job.machine.network.stats
    return (
        (job.msg_engine.sent_messages, job.msg_engine.sent_bytes,
         job.machine.intra_copies, job.machine.intra_bytes,
         net.messages, net.bytes, net.rendezvous_messages),
        dict(net.per_pair),
        net.max_hops,
    )


class _Window:
    """A job's observable state at a quiescent instant, and what one
    dispatch adds to it — measured the same way in a pocket (to build a
    record) and in the live job (to verify one)."""

    __slots__ = ("job", "t0_ticks", "counters", "per_pair", "spans",
                 "profiles")

    def __init__(self, job):
        self.job = job
        self.t0_ticks = round(job.engine.now * _INV_TICK)
        self.counters, self.per_pair, _ = _snapshot(job)
        self.spans = len(job.tracer.records) if job.tracer is not None else 0
        self.profiles = [
            {o: (s.calls, s.bytes, s.time)
             for o, s in ctx.profile.ops.items()}
            for ctx in job.contexts
        ]

    def deltas(self):
        """``(counters, per_pair, max_hops, spans, profiles)`` added
        since the baseline; *spans* is the raw record slice (None when
        untraced), *profiles* per rank the sorted ``(op, dcalls, dbytes,
        dtime)`` increments.  Every quantity on the tick grid at
        benchmark magnitudes sums exactly in binary floating point, so
        plain deltas reproduce live accumulation bit-for-bit."""
        job = self.job
        counters, end_pairs, max_hops = _snapshot(job)
        per_pair = {}
        for pair, (c, b) in end_pairs.items():
            c0, b0 = self.per_pair.get(pair, (0, 0.0))
            if c != c0 or b != b0:
                per_pair[pair] = (c - c0, b - b0)
        profiles = []
        for ctx, before in zip(job.contexts, self.profiles):
            delta = []
            for o, s in ctx.profile.ops.items():
                c0, b0, t0 = before.get(o, (0, 0.0, 0.0))
                if (s.calls, s.bytes, s.time) != (c0, b0, t0):
                    delta.append((o, s.calls - c0, s.bytes - b0, s.time - t0))
            profiles.append(tuple(sorted(delta)))
        return (
            tuple(a - b for a, b in zip(counters, self.counters)),
            per_pair,
            max_hops,
            None if job.tracer is None else job.tracer.records[self.spans:],
            tuple(profiles),
        )


class _Pending:
    """Per-(comm, sequence) parking state for one collective entry."""

    __slots__ = ("op", "rebuild", "arrivals", "seen", "decided")

    def __init__(self, op: str, rebuild):
        self.op = op
        self.rebuild = rebuild
        self.arrivals: dict[int, tuple[Any, Event]] = {}
        self.seen = 0
        self.decided: str | None = None


class _VerifyState:
    """Instruments one live, aligned, quiescent execution of a verified
    hit: every rank reports its duration and result; the last report
    compares the complete measurement against the record."""

    __slots__ = ("session", "rec", "op", "window", "d_ticks", "results")

    def __init__(self, session: "ReplaySession", rec: _Record, op: str):
        self.session = session
        self.rec = rec
        self.op = op
        self.window = _Window(session.job)
        #: Insertion order is the live exit order (reports arrive as
        #: each rank's continuation processes).
        self.d_ticks: dict[int, int] = {}
        self.results: dict[int, Any] = {}

    def report(self, rank: int, d_ticks: int, result: Any) -> None:
        self.d_ticks[rank] = d_ticks
        self.results[rank] = result
        if len(self.d_ticks) == self.session.world_size:
            # Compare from a zero-delay callback, not from inside the
            # last rank's continuation: a verify failure then propagates
            # raw from ``Engine.run`` instead of being wrapped as a
            # rank-process crash.
            self.session.engine.timeout(0.0).add_callback(
                lambda _ev: self._compare()
            )

    def _fail(self, what: str, recorded, live) -> None:
        raise ReplayVerifyError(
            f"replay verify failed for {self.op!r}: {what}: "
            f"recorded {recorded!r} != live {live!r}"
        )

    def _compare(self) -> None:
        rec = self.rec
        ranks = range(self.session.world_size)
        live_d = tuple(self.d_ticks[r] for r in ranks)
        if live_d != rec.d_ticks:
            self._fail("per-rank tick deltas", rec.d_ticks, live_d)
        live_order = tuple(self.d_ticks)
        if live_order != rec.exit_order:
            self._fail("exit order", rec.exit_order, live_order)
        live_res = [self.results[r] for r in ranks]
        if live_res != list(rec.results):
            self._fail("results", rec.results, live_res)
        counters, per_pair, _, spans, profiles = self.window.deltas()
        if counters != rec.counters:
            self._fail("counter deltas", rec.counters, counters)
        if per_pair != rec.per_pair:
            self._fail("per-pair traffic", rec.per_pair, per_pair)
        if spans is not None and rec.templates is not None:
            live = _normalize(spans, self.window.t0_ticks)
            recd = _normalize(rec.templates)
            if live != recd:
                self._fail("span slice", recd, live)
        if profiles != rec.profiles:
            self._fail("profile deltas", rec.profiles, profiles)


_SPAN_DROP = ("sid", "parent", "replayed")


def _normalize(records: list[dict], t0_ticks: int = 0) -> list[dict]:
    """Shift-normalize a span slice for comparison: span ids become
    slice positions and — for live records, which carry an absolute
    ``t`` where templates carry relative ticks ``_tt`` — times become
    ticks relative to *t0_ticks*."""
    sid_pos = {}
    out = []
    for i, r in enumerate(records):
        d = {k: v for k, v in r.items() if k not in _SPAN_DROP}
        if "t" in d:
            d["_tt"] = round((d.pop("t") - t0_ticks * TICK) * _INV_TICK)
        sid = r.get("sid")
        if sid is not None:
            sid_pos[sid] = i
            par = r.get("parent")
            d["_par"] = None if par is None else sid_pos.get(par)
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------

class ReplaySession:
    """Per-job replay state: parking, decision, recording, application.

    Created by :class:`~repro.mpi.runtime.MPIJob` when replay is enabled
    and structurally possible (symbolic payload mode, no noise model).
    """

    def __init__(self, job, verify: bool = False, loop: bool = False):
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
        #: The default mode only applies uniform-exit records — an
        #: atomic time jump with an empty window, unconditionally exact
        #: for arbitrary programs.
        self.loop = loop
        self.world_size = job.placement.num_ranks
        self.hits = 0
        self.misses = 0
        self.events_saved = 0
        #: Outstanding non-blocking collectives (any rank) — maintained
        #: by :func:`repro.mpi.nonblocking.spawn_collective`.
        self.pending_icolls = 0
        #: RMA window states registered by ``win_allocate`` for the
        #: lock-idle quiescence check.
        self.rma_windows: list[Any] = []
        self._identity = tuple(range(self.world_size))
        #: Dispatch shapes ``(op, sigs)`` that have executed live at
        #: least once in this job — replay only applies after that.
        self._warm: set[tuple] = set()
        self._unusable: dict[tuple, int] = {}
        self._idok: dict[int, bool] = {}
        self._seq: dict[tuple[int, int], int] = {}
        self._pending: dict[tuple[int, int], _Pending] = {}
        self._prefix: tuple | None = None

    @property
    def prefix(self) -> tuple:
        if self._prefix is None:
            self._prefix = job_prefix(self.job)
        return self._prefix

    # -- entry ----------------------------------------------------------
    def run(self, comm, op: str, call, body, rebuild=None):
        """Coroutine: route one dispatch through the replay layer.

        *body* is the unstarted coroutine of normal execution (profiling
        included, so a pocket and the live job record the same profile
        entries); *call* is the argument tuple of the public call
        ``getattr(comm, op)`` that produced it, from which this rank's
        signature is derived — None, or an argument without a signature,
        vetoes (the decision is still collective, so every rank parks
        either way).  A pocket re-issues that public call on its own
        world communicator; callers whose call needs more than a
        communicator pass *rebuild*, a coroutine ``(comm, op, *args)``
        that performs the one-off setup and returns the zero-argument
        call to issue.
        """
        n = self.world_size
        if comm.size != n or not self._identity_group(comm):
            result = yield from body
            return result
        eng = self.engine
        skey = (comm._shared.id, comm.rank)
        seq = self._seq.get(skey, 0) + 1
        self._seq[skey] = seq
        pkey = (comm._shared.id, seq)
        pend = self._pending.get(pkey)
        if pend is None:
            pend = self._pending[pkey] = _Pending(op, rebuild)
            eng.on_time_advance(lambda: self._decide(pkey))
        pend.seen += 1
        if pend.decided is not None:
            # Earlier ranks were already released for live execution;
            # this rank arrived at a later timestep and runs directly.
            if pend.seen == n:
                self._pending.pop(pkey, None)
            result = yield from body
            return result
        ev = Event(eng, "replay.park")
        pend.arrivals[comm.rank] = (
            None if call is None else call_signature(call), ev
        )
        verdict, value = yield ev
        if verdict == "done":
            return value
        t0 = eng.now
        result = yield from body
        if verdict == "measure":
            # Live execution instrumented for verification.
            value.report(
                comm.rank, round((eng.now - t0) * _INV_TICK), result
            )
        return result

    def _identity_group(self, comm) -> bool:
        ok = self._idok.get(comm._shared.id)
        if ok is None:
            ok = tuple(comm.group.world_ranks()) == self._identity
            self._idok[comm._shared.id] = ok
        return ok

    # -- decision -------------------------------------------------------
    def _decide(self, pkey) -> None:
        pend = self._pending.get(pkey)
        if pend is None or pend.decided is not None:
            return
        n = self.world_size
        if len(pend.arrivals) < n:
            # Staggered entry: release the parked ranks in the same
            # timestep they arrived — zero virtual-time distortion.
            self._release(pend, "live", None)
            return
        self._pending.pop(pkey, None)
        sigs = tuple(pend.arrivals[r][0] for r in range(n))
        if any(s is None for s in sigs) or not self.quiescent():
            self._release(pend, "live", None)
            return
        wkey = (pend.op, sigs)
        if wkey not in self._warm:
            # First execution of this dispatch shape in the job: run it
            # live so one-off lazy setup (sub-comms, windows, caches)
            # lands in the live job exactly as it would with replay off.
            # Records are steady-state and apply from the second
            # occurrence on.
            self._warm.add(wkey)
            self.misses += 1
            STATS["misses"] += 1
            self._release(pend, "live", None)
            return
        order = tuple(pend.arrivals)
        key = replay_key(self.prefix, pend.op, sigs, (0,) * n, order)
        rec = _CACHE.get(key, _MISSING)
        if rec is _MISSING:
            if self._unusable.get(wkey, 0) >= _UNUSABLE_LIMIT:
                # This shape keeps producing records this mode cannot
                # apply (non-uniform exits in default mode, rotating
                # entry permutations): stop paying for pockets it will
                # only throw away.
                self.misses += 1
                STATS["misses"] += 1
                self._release(pend, "live", None)
                return
            rec = self._record(pend, sigs, key, order)
        if rec is None or (
            not self.loop and any(d != rec.d_ticks[0] for d in rec.d_ticks)
        ):
            self._unusable[wkey] = self._unusable.get(wkey, 0) + 1
            self.misses += 1
            STATS["misses"] += 1
            self._release(pend, "live", None)
            return
        self.hits += 1
        STATS["hits"] += 1
        if self.verify:
            self._release(
                pend, "measure", _VerifyState(self, rec, pend.op)
            )
        else:
            self._apply(rec, pend)

    def _release(self, pend: _Pending, verdict: str, value) -> None:
        # Arrival order (dict insertion order), NOT rank order: released
        # ranks re-execute their entry actions in the same relative
        # order they would have run unparked, so order-sensitive
        # resource queues (links, memory channels) grant identically.
        pend.decided = verdict
        for _sig, ev in pend.arrivals.values():
            ev.succeed((verdict, value))

    def quiescent(self) -> bool:
        """True when replay cannot interact with anything in flight."""
        if self.pending_icolls:
            return False
        eng = self.engine
        # Only the parked rank programs may be live: an in-flight message
        # transfer, delivery, or background process vetoes.
        if len(eng._live_processes) != self.world_size:
            return False
        if self.job.msg_engine.pending_total:
            return False
        for shared in self.rma_windows:
            for lock in shared.locks:
                if lock.in_use or lock.queued:
                    return False
        tracer = self.job.tracer
        if tracer is not None:
            # An open span would become the replayed slice's silent
            # parent; the recorded parents would no longer match.
            for stack in tracer._open.values():
                if stack:
                    return False
        return True

    # -- recording (the pocket simulation) ------------------------------
    def _record(self, pend: _Pending, sigs: tuple, key, order: tuple
                ) -> _Record | None:
        job = self.job
        from repro.mpi.runtime import MPIJob
        from repro.trace import Tracer

        n = self.world_size
        op, rebuild = pend.op, pend.rebuild
        exits: dict[int, tuple[float, Any]] = {}
        park: dict[int, Event] = {}

        def program(mpi):
            comm = mpi.world
            sig = sigs[comm.rank]
            if rebuild is None:
                def issue():
                    return getattr(comm, op)(*call_arguments(sig))
            else:
                issue = yield from rebuild(comm, op, *call_arguments(sig))
            # Warm run: pays the pocket's one-off lazy setup (mirroring
            # the live job's first, never-replayed execution) so the
            # parked second run below is steady-state.
            yield comm._shared.arrive(
                ("replay_warm",), comm.rank, None,
                lambda values: dict.fromkeys(values),
            )
            yield from issue()
            # Park: the engine runs dry here (phase one below returns),
            # the recorder snapshots the quiescent baseline, then wakes
            # every rank at one timestep in the live job's arrival
            # permutation.
            ev = Event(mpi.engine, "replay.pocket")
            park[comm.rank] = ev
            yield ev
            result = yield from issue()
            exits[comm.rank] = (mpi.engine.now, result)

        trace = (
            Tracer(detail=job.tracer.detail, compute=job.tracer.compute)
            if job.tracer is not None else False
        )
        try:
            pocket = MPIJob(
                job.spec, program,
                placement=job.placement,
                payload="model",
                tuning=job.tuning,
                policy=job.policy,
                trace=trace,
                link_contention=job.link_contention,
                seed=job.seed,
                fast_path=job.fast_path,
                replay=False,
            )
            # Phase one: setup + warm run; the engine runs dry with all
            # ranks parked, which its deadlock detector reports — that
            # *is* the expected phase boundary.
            try:
                pocket.run()
            except DeadlockError:
                pass
            if len(park) != n:
                _cache_put(key, None)
                return None
            # Quiescent baseline, read between engine runs so the event
            # count is exact.
            window = _Window(pocket)
            events0 = pocket.engine.event_count
            # Phase two: simultaneous release in arrival order — the
            # same entry state the live dispatch would replay from.
            for r in order:
                park[r].succeed(None)
            pocket.engine.run()
        except Exception:
            if os.environ.get("REPRO_REPLAY_DEBUG"):
                raise
            _cache_put(key, None)
            return None

        if len(exits) != n:
            _cache_put(key, None)
            return None
        t0_ticks = window.t0_ticks
        d_ticks = tuple(
            round(exits[r][0] * _INV_TICK) - t0_ticks for r in range(n)
        )
        results = [exits[r][1] for r in range(n)]
        counters, per_pair, max_hops, spans, profiles = window.deltas()
        # The n release events above are parking overhead, not part of
        # the dispatch.
        events = pocket.engine.event_count - events0 - n

        templates = None
        if spans is not None:
            templates = []
            sids = set()
            for r in spans:
                tpl = dict(r)
                sid = tpl.get("sid")
                if sid is not None:
                    if tpl.get("dur") is None:
                        _cache_put(key, None)
                        return None
                    par = tpl.get("parent")
                    if par is not None and par not in sids:
                        _cache_put(key, None)
                        return None
                    sids.add(sid)
                tpl["_tt"] = round(tpl.pop("t") * _INV_TICK) - t0_ticks
                templates.append(tpl)

        rec = _Record(d_ticks, results, counters, per_pair, max_hops,
                      templates, events, tuple(exits), profiles)
        _cache_put(key, rec)
        return rec

    # -- application ----------------------------------------------------
    def _apply(self, rec: _Record, pend: _Pending) -> None:
        eng = self.engine
        job = self.job
        base_ticks = eng.now * _INV_TICK
        me = job.msg_engine
        mach = job.machine
        net = mach.network.stats
        dm, db, dic, dib, dnm, dnb, drv = rec.counters
        me.sent_messages += dm
        me.sent_bytes += db
        mach.intra_copies += dic
        mach.intra_bytes += dib
        net.messages += dnm
        net.bytes += dnb
        net.rendezvous_messages += drv
        if rec.max_hops > net.max_hops:
            net.max_hops = rec.max_hops
        for pair, (dc, dby) in rec.per_pair.items():
            cur = net.per_pair.get(pair)
            net.per_pair[pair] = (
                (dc, dby) if cur is None else (cur[0] + dc, cur[1] + dby)
            )
        if job.tracer is not None and rec.templates is not None:
            job.tracer.emit_replayed(rec.templates, base_ticks)
        for rank, delta in enumerate(rec.profiles):
            prof = job.contexts[rank].profile
            if not prof.enabled:
                continue
            for o, dc, dby, dt in delta:
                stats = prof.ops.get(o)
                if stats is None:
                    stats = prof.ops[o] = OpStats()
                stats.calls += dc
                stats.bytes += dby
                stats.time += dt
        # Relative to replay-off execution: the dispatch would have cost
        # rec.events; replay costs the n wake events below instead.
        self.events_saved += rec.events - self.world_size
        # Push wakes in recorded exit order: ranks leaving at the same
        # tick resume in the same relative order as live execution, so
        # the *next* dispatch sees an identical entry permutation.
        for rank in rec.exit_order:
            ev = pend.arrivals[rank][1]
            # Mimic Engine.timeout(): pre-trigger and schedule at the
            # recorded wake time — one event per rank, O(nranks) total.
            ev._state = _TRIGGERED
            ev._value = ("done", rec.result_for(rank))
            eng._push((base_ticks + rec.d_ticks[rank]) * TICK, ev)
