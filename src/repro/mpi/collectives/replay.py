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
  tuning personality, selection policy, link contention and trace
  detail;
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
paper's §5 excludes them).  It parks all ranks quiescently, then issues
the call once from a simultaneous release in the live arrival
permutation.  That first run is already steady state: lazy hierarchy
sub-communicators come from the deterministic-child registry (no
rendezvous, no events, no virtual time) and the selection caches are
host-only.  Only a run that opened a setup gate (``Comm._gate``: a
first use that splits or allocates windows, which the job's ``gates``
counter shows) was a warm run; the pocket then parks again and measures
a second run.  There is no per-operation table: whatever reaches
:meth:`ReplaySession.run` with an encodable call is replayable.  The
deltas of the measured run — per-rank tick durations, counter and
traffic increments, span templates, profile increments — form the
record, which is applied to the live job immediately (the miss itself
becomes a hit).  Because scheduled delays are translation-invariant on
the engine's tick grid, those deltas replay bit-identically from any
later quiescent entry at any absolute time.  Records are cached
process-globally, so repetitions across jobs in one process (the sweep
service, parameter sweeps) record only once per dispatch shape.

Lanes — a repetition is recognised, not re-keyed
------------------------------------------------
Keying is O(ranks) per dispatch, and a repetition loop would pay it for
nothing: when every rank repeats its last call, for the same operation in
the same arrival order, the communicator's :class:`_Lane` hands back the
record of the last decision without building a key.  The key stays the
only way a record is first found or made, and every check below still
runs per dispatch (``docs/performance.md``, "Keying").

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

``REPRO_REPLAY_VERIFY=1`` executes every hit *and* checks it against the
record, asserting bit-identical per-rank latencies, counter deltas and
(shift-normalized) span slices; a pocket that raises re-raises there,
where otherwise its shape becomes a negative entry that runs live.
"""

from __future__ import annotations

from dataclasses import astuple
from heapq import heappush
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
         "unreplayable": 0, "pocket_runs": 0}


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
    """Parking state of one collective entry (one lane, one sequence)."""

    __slots__ = ("op", "rebuild", "arrivals", "late", "decided")

    def __init__(self, op: str, rebuild):
        self.op = op
        self.rebuild = rebuild
        self.arrivals: dict[int, Event] = {}  # rank -> park, arrival order
        self.late = 0  # ranks arriving after the parked ones were released
        self.decided: str | None = None


#: Remembered in place of a call that must not be recognised again: one
#: without a signature, or holding a list (callers mutate and reuse them).
_NEVER = object()


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
        #: ``(op, epoch, arrival order)`` of the last applied hit, and the
        #: plan it applied.
        self.applied: tuple | None = None
        self.plan: _Plan | None = None


class _Plan:
    """One record bound to one job: what applying it would otherwise
    re-derive on every hit.  Holds the record, so a plan table keyed by
    record cannot alias an evicted one."""

    __slots__ = ("rec", "uniform", "wakes", "profiles")

    def __init__(self, rec: _Record, contexts):
        self.rec = rec
        d = rec.d_ticks
        #: Every rank exits at one timestep (what default mode requires).
        self.uniform = d.count(d[0]) == len(d)
        #: ``(rank, d_ticks, wake value)`` in exit order; a list result
        #: is copied per hit instead (callers may mutate it): None here.
        self.wakes = [
            (r, d[r], None if type(rec.results[r]) is list
             else ("done", rec.results[r]))
            for r in rec.exit_order
        ]
        #: ``[profile, increments, bound]`` per rank; *bound* pairs them
        #: with ``OpStats`` on the first hit that finds the profile on.
        self.profiles = [
            [contexts[rank].profile, delta, None]
            for rank, delta in enumerate(rec.profiles) if delta
        ]


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
        # A profile switched off records nothing live, and an applied
        # record adds nothing to it either.
        recorded = tuple(
            delta if ctx.profile.enabled else ()
            for ctx, delta in zip(self.session.job.contexts, rec.profiles)
        )
        if profiles != recorded:
            self._fail("profile deltas", recorded, profiles)


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
        #: Lane per communicator id; None where replay never applies
        #: (not the world's ranks in world order).
        self._lanes: dict[int, _Lane | None] = {}
        self._plans: dict[_Record, _Plan] = {}
        #: Dispatch shapes ``(op, sigs)`` that have executed live at
        #: least once in this job — replay only applies after that.
        self._warm: set[tuple] = set()
        self._unusable: dict[tuple, int] = {}
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
        shared = comm._shared
        lane = self._lanes.get(shared.id, _MISSING)
        if lane is _MISSING:
            n = self.world_size
            lane = self._lanes[shared.id] = (
                _Lane(n) if shared.group.world_ranks() == tuple(range(n))
                else None
            )
        if lane is None:
            result = yield from body
            return result
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
            pend = lane.pending[seq] = _Pending(op, rebuild)
            eng.on_time_advance(lambda: self._decide(lane, seq))
        if pend.decided is not None:
            # Earlier ranks were already released for live execution;
            # this rank arrived at a later timestep and runs directly.
            pend.late += 1
            if len(pend.arrivals) + pend.late == self.world_size:
                del lane.pending[seq]
            result = yield from body
            return result
        ev = pend.arrivals[rank] = Event(eng, "replay.park")
        verdict, value = yield ev
        if verdict == "done":
            return value
        t0 = eng.now
        result = yield from body
        if verdict == "measure":
            # Live execution instrumented for verification.
            value.report(rank, round((eng.now - t0) * _INV_TICK), result)
        return result

    # -- decision -------------------------------------------------------
    def _decide(self, lane: _Lane, seq: int) -> None:
        pend = lane.pending.get(seq)
        if pend is None or pend.decided is not None:
            return
        if len(pend.arrivals) < self.world_size:
            # Staggered entry: release the parked ranks in the same
            # timestep they arrived — zero virtual-time distortion.
            self._release(pend, "live", None)
            return
        del lane.pending[seq]
        # Every rank is parked here, so every memo holds this dispatch's
        # call (a rank that ran ahead changed the epoch on the way).
        shape = (pend.op, lane.epoch, tuple(pend.arrivals))
        if not self.quiescent():
            plan = None
        elif shape == lane.applied:
            # No memo changed since the last hit was applied, same
            # operation and arrival order: the key is the one that
            # selected that hit's record.  Verify checks that (an evicted
            # entry selects none).
            plan = lane.plan
            if self.verify and _CACHE.get(
                self._key(pend.op, tuple(lane.sigs), shape[2]), plan.rec
            ) is not plan.rec:
                raise ReplayVerifyError(
                    f"replay verify failed for {pend.op!r}: the lane "
                    "selected a record the full key does not"
                )
        elif None in lane.sigs:
            plan = None
        else:
            plan = self._lookup(pend, tuple(lane.sigs), shape[2])
            if plan is None:
                self.misses += 1
                STATS["misses"] += 1
            else:
                lane.applied, lane.plan = shape, plan
        if plan is None:
            self._release(pend, "live", None)
            return
        self.hits += 1
        STATS["hits"] += 1
        if self.verify:
            self._release(
                pend, "measure", _VerifyState(self, plan.rec, pend.op)
            )
        else:
            self._apply(plan, pend.arrivals)

    def _key(self, op: str, sigs: tuple, order: tuple) -> tuple:
        return replay_key(self.prefix, op, sigs, (0,) * self.world_size,
                          order)

    def _lookup(self, pend: _Pending, sigs: tuple, order: tuple
                ) -> _Plan | None:
        """The full-key path, the only place a record is looked up or
        made: the plan of the record this dispatch replays, or None when
        it runs live instead (a miss)."""
        wkey = (pend.op, sigs)
        if wkey not in self._warm:
            # First execution of this dispatch shape in the job: run it
            # live so one-off lazy setup (sub-comms, windows, caches)
            # lands in the live job exactly as it would with replay off.
            # Records are steady-state and apply from the second
            # occurrence on.
            self._warm.add(wkey)
            return None
        key = self._key(pend.op, sigs, order)
        rec = _CACHE.get(key, _MISSING)
        if rec is _MISSING:
            if self._unusable.get(wkey, 0) >= _UNUSABLE_LIMIT:
                # This shape keeps producing records this mode cannot
                # apply (non-uniform exits in default mode, rotating
                # entry permutations): stop paying for pockets it will
                # only throw away.
                return None
            rec = self._record(pend, sigs, key, order)
        if rec is not None and rec not in self._plans:
            self._plans[rec] = _Plan(rec, self.job.contexts)
        plan = self._plans.get(rec)
        if plan is None or not (self.loop or plan.uniform):
            self._unusable[wkey] = self._unusable.get(wkey, 0) + 1
            return None
        return plan

    def _release(self, pend: _Pending, verdict: str, value) -> None:
        # Arrival order (dict insertion order), NOT rank order: released
        # ranks re-execute their entry actions in the same relative
        # order they would have run unparked, so order-sensitive
        # resource queues (links, memory channels) grant identically.
        pend.decided = verdict
        for ev in pend.arrivals.values():
            ev.succeed((verdict, value))

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
            # Park; the recorder releases every rank for one run (True)
            # or lets it exit (False).
            while True:
                ev = park[comm.rank] = Event(mpi.engine, "replay.pocket")
                if not (yield ev):
                    return
                result = yield from issue()
                exits[comm.rank] = (mpi.engine.now, result)

        def release(run: bool) -> None:
            # Simultaneous release in the live arrival permutation — the
            # entry state the live dispatch would replay from.  The
            # engine then runs dry with every rank parked again, which
            # its deadlock detector reports: the expected boundary.
            for r in order:
                park[r].succeed(run)
            try:
                pocket.engine.run()
            except DeadlockError:
                pass

        trace = (
            Tracer(detail=job.tracer.detail, compute=job.tracer.compute)
            if job.tracer is not None else False
        )
        try:
            pocket = MPIJob(
                job.spec, program,
                placement=job.placement,
                payload=job.payload_mode,
                tuning=job.tuning,
                policy=job.policy,
                trace=trace,
                seed=job.seed,
                replay=False,
            )
            try:
                pocket.run()
            except DeadlockError:
                pass  # every rank parked after the rebuild
            for _ in range(2):
                if len(park) != n:
                    break
                # Quiescent baseline, read between engine runs so the
                # event count is exact.
                window = _Window(pocket)
                events0 = pocket.engine.event_count
                gates = pocket.gates
                exits.clear()
                STATS["pocket_runs"] += 1
                release(True)
                if len(exits) != n or pocket.gates == gates:
                    break
                # The run opened a setup gate (a first use allocating
                # windows or splitting): it was the warm run, measure
                # the next one.
        except Exception:
            if self.verify:
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
        # Counted from the release, as a live dispatch released from its
        # park costs its n release events plus its own.
        events = pocket.engine.event_count - events0
        release(False)  # the ranks exit: nothing keeps the pocket alive

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
    def _apply(self, plan: _Plan, arrivals: dict[int, Event]) -> None:
        rec = plan.rec
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
        for entry in plan.profiles:
            prof, delta, bound = entry
            if not prof.enabled:
                continue
            if bound is None:
                bound = entry[2] = [
                    (prof.ops.setdefault(o, OpStats()), dc, dby, dt)
                    for o, dc, dby, dt in delta
                ]
            for stats, dc, dby, dt in bound:
                stats.calls += dc
                stats.bytes += dby
                stats.time += dt
        # Relative to replay-off execution: the dispatch would have cost
        # rec.events; replay costs the n wake events below instead.
        self.events_saved += rec.events - self.world_size
        # Push wakes in recorded exit order: ranks leaving at the same
        # tick resume in the same relative order as live execution, so
        # the *next* dispatch sees an identical entry permutation.  Each
        # is Engine.timeout() spelled out: pre-triggered, one per rank.
        now, defer, heap = eng.now, eng._defer, eng._heap
        for rank, d_ticks, done in plan.wakes:
            ev = arrivals[rank]
            ev._state = _TRIGGERED
            ev._value = done or ("done", list(rec.results[rank]))
            time = (base_ticks + d_ticks) * TICK
            if time <= now:
                defer(ev)
            else:
                eng._seq += 1
                heappush(heap, (time, eng._seq, ev))
