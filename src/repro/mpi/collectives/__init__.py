"""Collective dispatch: registry-backed runtime algorithm selection.

Each ``run_*`` coroutine is the one dispatch frame of a collective call
(:class:`repro.mpi.comm.Comm` returns it, or hands it to the replay
layer, which builds it only where the dispatch runs live).  It draws
the call's tag — unless a non-blocking call drew it at issue — charges
the per-call software overhead, builds a
:class:`~repro.mpi.collectives.registry.CollRequest`, asks the rank's
:class:`~repro.mpi.collectives.registry.SelectionPolicy` (default: the
MPICH-style :class:`TableSelection` decision tables over the
:class:`~repro.mpi.collectives.tuning.CollectiveTuning` personality) for
an algorithm descriptor, runs it, and charges the call to the rank's
profile under *name* (``i``-prefixed for the non-blocking forms).

Every dispatch records the decision — operation, algorithm, policy,
bytes — in ``ctx.trace`` (when tracing is enabled) so tests can assert
the decision table.

Per-op byte conventions of the profile (see :mod:`repro.mpi.profiler`):
rooted/scan family charge the local message size; allgather charges
``nbytes * size``; allgatherv charges the agreed sum of per-rank sizes;
scatter charges the root's total payload; alltoall charges this rank's
total send volume; barrier is zero.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.mpi.collectives import registry
from repro.mpi.collectives.registry import CollRequest, trace_begin, trace_end
from repro.mpi.constants import ReduceOp
from repro.mpi.datatypes import copy_into, nbytes_of
from repro.simulator import Event

__all__ = [
    "run_allgather",
    "run_allgatherv",
    "run_alltoall",
    "run_barrier",
    "run_bcast",
    "run_gather",
    "run_reduce",
    "run_reduction",
    "run_scatter",
    "registry",
]

_BARRIER = CollRequest("barrier", 0, 0)


def _select(comm, req: CollRequest):
    """Pick the algorithm for *req* and open its dispatch span.

    Returns ``(algorithm, span)``; the dispatcher closes the span with
    :func:`~repro.mpi.collectives.registry.trace_end` once the algorithm
    ran, so the trace records a duration (start + elapsed virtual time)
    per call rather than an instant.  An untraced run opens none."""
    ctx = comm.ctx
    policy = ctx.policy
    algo = policy.select(comm, req)
    if ctx.trace is None:
        return algo, None
    return algo, trace_begin(comm, req.op, algo.name, req.total, policy.name)


# ---------------------------------------------------------------------------
# allgather family
# ---------------------------------------------------------------------------

def run_allgather(comm, payload: Any, tag: int | None = None,
                  name: str = "allgather"):
    """Regular allgather; returns the per-rank payload list."""
    ctx = comm.ctx
    eng = ctx.engine
    t0 = eng.now
    if tag is None:
        tag = comm._next_coll_tag()
    size = comm.size
    nbytes = nbytes_of(payload)
    total = nbytes * size
    if ctx.tuning.call_overhead > 0:
        yield eng.pause(ctx.tuning.call_overhead)
    if size == 1:
        result = [payload]
    else:
        algo, span = _select(comm, CollRequest("allgather", nbytes, total))
        blocks = yield from algo.fn(comm, payload, tag, total)
        trace_end(comm, span)
        result = blocks.as_list(size)
    ctx.profile.record(name, total, eng.now - t0)
    return result


def _sum_of(values: dict[int, int]) -> int:
    """Reducer of the size-agreement gate: the summed per-rank sizes.

    The gate models the fact that ``MPI_Allgatherv`` callers pass the
    full recvcounts array on every rank — the size knowledge is an
    argument, not something communicated; the gate costs zero virtual
    time.  :meth:`Comm.allgatherv` and :meth:`Comm.iallgatherv` arrive at
    it as one shared event keyed by the collective's issue-time tag, so
    concurrent non-blocking collectives can never cross-match."""
    return sum(values.values())


def run_allgatherv(total: int | Event, comm, payload: Any, tag: int,
                   name: str = "allgatherv"):
    """Irregular allgather; returns the per-rank payload list.

    *total* is the agreed full result size, or the size-agreement gate
    (see :func:`_sum_of`) that agrees it, waited for before the call is
    timed, so the profiler charges the actual summed bytes.  It comes
    first so that :meth:`ReplaySession.run` sees a gated recipe."""
    if type(total) is Event:
        total = total._value if total.processed else (yield total)
    ctx = comm.ctx
    eng = ctx.engine
    t0 = eng.now
    size = comm.size
    if ctx.tuning.call_overhead > 0:
        yield eng.pause(ctx.tuning.call_overhead)
    vector = ctx.tuning.vector_block_overhead * size
    if vector > 0:
        yield eng.pause(vector)
    if size == 1:
        result = [payload]
    else:
        algo, span = _select(
            comm, CollRequest("allgatherv", nbytes_of(payload), total))
        blocks = yield from algo.fn(comm, payload, tag, total)
        trace_end(comm, span)
        result = blocks.as_list(size)
    ctx.profile.record(name, total, eng.now - t0)
    return result


# ---------------------------------------------------------------------------
# bcast
# ---------------------------------------------------------------------------

def run_bcast(comm, payload: Any, root: int, tag: int | None = None,
              name: str = "bcast"):
    """Broadcast; returns the payload on every rank.

    MPI semantics: *every* rank supplies a payload of the message size
    (the root's carries the data; non-roots pass a same-sized receive
    buffer or :class:`~repro.mpi.datatypes.Bytes`), exactly as
    ``MPI_Bcast(buf, count, …)`` requires the count everywhere.  The
    algorithm choice is derived from that locally-known size.
    """
    ctx = comm.ctx
    eng = ctx.engine
    t0 = eng.now
    if tag is None:
        tag = comm._next_coll_tag()
    nbytes = nbytes_of(payload)
    if ctx.tuning.call_overhead > 0:
        yield eng.pause(ctx.tuning.call_overhead)
    if comm.size == 1:
        result = payload
    else:
        algo, span = _select(comm, CollRequest("bcast", nbytes, nbytes, root))
        result = yield from algo.fn(comm, payload, root, tag)
        trace_end(comm, span)
        result = _deliver_bcast(payload if comm.rank != root else None,
                                result)
    ctx.profile.record(name, nbytes, eng.now - t0)
    return result


def _deliver_bcast(recvbuf: Any, result: Any) -> Any:
    """Copy a broadcast result into the caller's receive buffer."""
    if isinstance(recvbuf, np.ndarray) and isinstance(result, np.ndarray):
        if recvbuf is not result:
            copy_into(recvbuf, result.reshape(-1))
        return recvbuf
    return result


# ---------------------------------------------------------------------------
# gather / scatter
# ---------------------------------------------------------------------------

def run_gather(comm, payload: Any, root: int, tag: int | None = None,
               name: str = "gather"):
    """Gather to *root*; returns the ordered payload list there.  *name*
    ``"gatherv"`` is the irregular form (per-rank sizes may differ)."""
    ctx = comm.ctx
    eng = ctx.engine
    t0 = eng.now
    if tag is None:
        tag = comm._next_coll_tag()
    nbytes = nbytes_of(payload)
    if ctx.tuning.call_overhead > 0:
        yield eng.pause(ctx.tuning.call_overhead)
    if name == "gatherv":
        vector = ctx.tuning.vector_block_overhead * comm.size
        if vector > 0:
            yield eng.pause(vector)
    if comm.size == 1:
        result = [payload]
    else:
        algo, span = _select(comm, CollRequest(name, nbytes, nbytes, root))
        result = yield from algo.fn(comm, payload, root, tag)
        trace_end(comm, span)
        if result is not None:
            result = result.as_list(comm.size)
    ctx.profile.record(name, nbytes, eng.now - t0)
    return result


def run_scatter(comm, payloads: list[Any] | None, root: int,
                tag: int | None = None, name: str = "scatter"):
    """Scatter from *root*; returns this rank's payload."""
    ctx = comm.ctx
    eng = ctx.engine
    t0 = eng.now
    if tag is None:
        tag = comm._next_coll_tag()
    nbytes = (
        sum(nbytes_of(p) for p in payloads) if payloads is not None else 0
    )
    if ctx.tuning.call_overhead > 0:
        yield eng.pause(ctx.tuning.call_overhead)
    if comm.size == 1:
        if payloads is None or len(payloads) != 1:
            raise ValueError("root must supply one payload per rank")
        result = payloads[0]
    else:
        # Selection must be rank-uniform and only the root holds the
        # payload list, so the request is size-independent.
        algo, span = _select(comm, CollRequest("scatter", 0, 0, root))
        result = yield from algo.fn(comm, payloads, root, tag)
        trace_end(comm, span)
    ctx.profile.record(name, nbytes, eng.now - t0)
    return result


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def run_reduce(comm, payload: Any, op: ReduceOp, root: int,
               tag: int | None = None, name: str = "reduce"):
    """Reduce to *root*."""
    ctx = comm.ctx
    eng = ctx.engine
    t0 = eng.now
    if tag is None:
        tag = comm._next_coll_tag()
    nbytes = nbytes_of(payload)
    if ctx.tuning.call_overhead > 0:
        yield eng.pause(ctx.tuning.call_overhead)
    if comm.size == 1:
        result = payload
    else:
        algo, span = _select(comm, CollRequest("reduce", nbytes, nbytes, root))
        result = yield from algo.fn(comm, payload, op, root, tag)
        trace_end(comm, span)
    ctx.profile.record(name, nbytes, eng.now - t0)
    return result


def run_reduction(comm, coll: str, payload: Any, op: ReduceOp,
                  tag: int | None = None, name: str | None = None):
    """The rootless reductions; *coll* is the registry operation:
    ``allreduce`` (result on every rank), ``scan`` (inclusive prefix:
    linear chain for tiny comms, log-round doubling otherwise),
    ``exscan`` (exclusive prefix; rank 0 — and a single-rank
    communicator — receives None) or ``reduce_scatter`` (block form:
    rank i receives the reduction of block i).  The profile charges
    *name*, by default *coll*."""
    ctx = comm.ctx
    eng = ctx.engine
    t0 = eng.now
    if tag is None:
        tag = comm._next_coll_tag()
    nbytes = nbytes_of(payload)
    if ctx.tuning.call_overhead > 0:
        yield eng.pause(ctx.tuning.call_overhead)
    if comm.size == 1:
        result = None if coll == "exscan" else payload
    else:
        algo, span = _select(comm, CollRequest(coll, nbytes, nbytes))
        result = yield from algo.fn(comm, payload, op, tag)
        trace_end(comm, span)
    ctx.profile.record(name or coll, nbytes, eng.now - t0)
    return result


# ---------------------------------------------------------------------------
# barrier / alltoall
# ---------------------------------------------------------------------------

def run_barrier(comm, tag: int | None = None, name: str = "barrier"):
    """Barrier: shm-flag tree on one node, hierarchical across nodes,
    dissemination otherwise.  (The flat dissemination runner charges the
    per-call software overhead; the shm paths model cheaper entry.)"""
    ctx = comm.ctx
    eng = ctx.engine
    t0 = eng.now
    if tag is None:
        tag = comm._next_coll_tag()
    if comm.size > 1:
        algo, span = _select(comm, _BARRIER)
        yield from algo.fn(comm, tag)
        trace_end(comm, span)
    ctx.profile.record(name, 0, eng.now - t0)


def run_alltoall(comm, payloads: list[Any], tag: int | None = None,
                 name: str = "alltoall"):
    """All-to-all personalized exchange."""
    ctx = comm.ctx
    eng = ctx.engine
    t0 = eng.now
    if tag is None:
        tag = comm._next_coll_tag()
    nbytes = sum(nbytes_of(p) for p in payloads)
    if ctx.tuning.call_overhead > 0:
        yield eng.pause(ctx.tuning.call_overhead)
    if comm.size == 1:
        result = [payloads[0]]
    else:
        per_pair = max(nbytes_of(p) for p in payloads)
        algo, span = _select(
            comm, CollRequest("alltoall", per_pair, per_pair))
        result = yield from algo.fn(comm, payloads, tag)
        trace_end(comm, span)
    ctx.profile.record(name, nbytes, eng.now - t0)
    return result
