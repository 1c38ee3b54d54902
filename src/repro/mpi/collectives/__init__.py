"""Collective dispatch: registry-backed runtime algorithm selection.

Each ``run_*`` coroutine is the body :class:`repro.mpi.comm.Comm` hands
to its single collective entry point (``Comm._collective``, where
profiling and the replay layer sit).  It charges the per-call software
overhead, builds a
:class:`~repro.mpi.collectives.registry.CollRequest`, asks the rank's
:class:`~repro.mpi.collectives.registry.SelectionPolicy` (default: the
MPICH-style :class:`TableSelection` decision tables over the
:class:`~repro.mpi.collectives.tuning.CollectiveTuning` personality) for
an algorithm descriptor, and runs it.

Every dispatch records the decision — operation, algorithm, policy,
bytes — in ``ctx.trace`` (when tracing is enabled) so tests can assert
the decision table.
"""

from __future__ import annotations

from typing import Any

from repro.mpi.collectives import registry
from repro.mpi.collectives.registry import (
    CollRequest,
    _vector_overhead,
    policy_of,
    trace_begin,
    trace_end,
)
from repro.mpi.constants import ReduceOp
from repro.mpi.datatypes import nbytes_of

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


def _overhead(comm):
    tuning = comm.ctx.tuning
    if tuning.call_overhead > 0:
        yield comm.ctx.engine.pause(tuning.call_overhead)


def _select(comm, req: CollRequest):
    """Pick the algorithm for *req* and open its dispatch span.

    Returns ``(algorithm, span)``; the dispatcher closes the span with
    :func:`~repro.mpi.collectives.registry.trace_end` once the algorithm
    ran, so the trace records a duration (start + elapsed virtual time)
    per call rather than an instant."""
    policy = policy_of(comm)
    algo = policy.select(comm, req)
    span = trace_begin(comm, req.op, algo.name, req.total, policy.name)
    return algo, span


# ---------------------------------------------------------------------------
# allgather family
# ---------------------------------------------------------------------------

def run_allgather(comm, payload: Any, tag: int):
    """Regular allgather; returns the per-rank payload list."""
    yield from _overhead(comm)
    if comm.size == 1:
        return [payload]
    total = nbytes_of(payload) * comm.size
    algo, span = _select(
        comm, CollRequest(op="allgather", nbytes=nbytes_of(payload),
                          total=total)
    )
    result = yield from algo.fn(comm, payload, tag, total)
    trace_end(comm, span)
    return result.as_list(comm.size)


def _sum_of(values: dict[int, int]) -> int:
    """Reducer of the size-agreement gate: the summed per-rank sizes.

    The gate models the fact that ``MPI_Allgatherv`` callers pass the
    full recvcounts array on every rank — the size knowledge is an
    argument, not something communicated; the gate costs zero virtual
    time.  :meth:`Comm.allgatherv` and :meth:`Comm.iallgatherv` arrive at
    it as one shared event keyed by the collective's issue-time tag, so
    concurrent non-blocking collectives can never cross-match."""
    return sum(values.values())


def run_allgatherv(comm, payload: Any, tag: int, total: int):
    """Irregular allgather; returns the per-rank payload list.

    *total* is the agreed full result size: the caller runs the
    size-agreement gate (see :func:`_sum_of`) so the profiler can charge
    the actual summed bytes."""
    yield from _overhead(comm)
    yield from _vector_overhead(comm, comm.size)
    if comm.size == 1:
        return [payload]
    algo, span = _select(
        comm, CollRequest(op="allgatherv", nbytes=nbytes_of(payload),
                          total=total)
    )
    result = yield from algo.fn(comm, payload, tag, total)
    trace_end(comm, span)
    return result.as_list(comm.size)


# ---------------------------------------------------------------------------
# bcast
# ---------------------------------------------------------------------------

def run_bcast(comm, payload: Any, root: int, tag: int):
    """Broadcast; returns the payload on every rank.

    MPI semantics: *every* rank supplies a payload of the message size
    (the root's carries the data; non-roots pass a same-sized receive
    buffer or :class:`~repro.mpi.datatypes.Bytes`), exactly as
    ``MPI_Bcast(buf, count, …)`` requires the count everywhere.  The
    algorithm choice is derived from that locally-known size.
    """
    yield from _overhead(comm)
    if comm.size == 1:
        return payload
    nbytes = nbytes_of(payload)
    recvbuf = payload if comm.rank != root else None
    algo, span = _select(
        comm, CollRequest(op="bcast", nbytes=nbytes, total=nbytes, root=root)
    )
    result = yield from algo.fn(comm, payload, root, tag)
    trace_end(comm, span)
    return _deliver_bcast(recvbuf, result)


def _deliver_bcast(recvbuf: Any, result: Any) -> Any:
    """Copy a broadcast result into the caller's receive buffer."""
    import numpy as np

    from repro.mpi.datatypes import copy_into

    if isinstance(recvbuf, np.ndarray) and isinstance(result, np.ndarray):
        if recvbuf is not result:
            copy_into(recvbuf, result.reshape(-1))
        return recvbuf
    return result


# ---------------------------------------------------------------------------
# gather / scatter
# ---------------------------------------------------------------------------

def run_gather(comm, payload: Any, root: int, tag: int,
                    irregular: bool = False):
    """Gather to *root*; returns the ordered payload list there."""
    yield from _overhead(comm)
    if irregular:
        yield from _vector_overhead(comm, comm.size)
    if comm.size == 1:
        return [payload]
    nbytes = nbytes_of(payload)
    algo, span = _select(
        comm, CollRequest(op="gatherv" if irregular else "gather",
                          nbytes=nbytes, total=nbytes, root=root)
    )
    result = yield from algo.fn(comm, payload, root, tag)
    trace_end(comm, span)
    if result is None:
        return None
    return result.as_list(comm.size)


def run_scatter(comm, payloads: list[Any] | None, root: int, tag: int):
    """Scatter from *root*; returns this rank's payload."""
    yield from _overhead(comm)
    if comm.size == 1:
        if payloads is None or len(payloads) != 1:
            raise ValueError("root must supply one payload per rank")
        return payloads[0]
    # Selection must be rank-uniform and only the root holds the payload
    # list, so the request is size-independent (as in the old table).
    algo, span = _select(
        comm, CollRequest(op="scatter", nbytes=0, total=0, root=root)
    )
    result = yield from algo.fn(comm, payloads, root, tag)
    trace_end(comm, span)
    return result


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def run_reduce(comm, payload: Any, op: ReduceOp, root: int, tag: int):
    """Reduce to *root*."""
    yield from _overhead(comm)
    if comm.size == 1:
        return payload
    nbytes = nbytes_of(payload)
    algo, span = _select(
        comm, CollRequest(op="reduce", nbytes=nbytes, total=nbytes, root=root)
    )
    result = yield from algo.fn(comm, payload, op, root, tag)
    trace_end(comm, span)
    return result


def run_reduction(comm, name: str, payload: Any, op: ReduceOp, tag: int):
    """The rootless reductions; *name* is the registry operation:
    ``allreduce`` (result on every rank), ``scan`` (inclusive prefix:
    linear chain for tiny comms, log-round doubling otherwise),
    ``exscan`` (exclusive prefix; rank 0 — and a single-rank
    communicator — receives None) or ``reduce_scatter`` (block form:
    rank i receives the reduction of block i)."""
    yield from _overhead(comm)
    if comm.size == 1:
        return None if name == "exscan" else payload
    nbytes = nbytes_of(payload)
    algo, span = _select(
        comm, CollRequest(op=name, nbytes=nbytes, total=nbytes)
    )
    result = yield from algo.fn(comm, payload, op, tag)
    trace_end(comm, span)
    return result


# ---------------------------------------------------------------------------
# barrier / alltoall
# ---------------------------------------------------------------------------

def run_barrier(comm, tag: int):
    """Barrier: shm-flag tree on one node, hierarchical across nodes,
    dissemination otherwise.  (The flat dissemination runner charges the
    per-call software overhead; the shm paths model cheaper entry.)"""
    if comm.size == 1:
        return
    algo, span = _select(comm, CollRequest(op="barrier", nbytes=0, total=0))
    yield from algo.fn(comm, tag)
    trace_end(comm, span)


def run_alltoall(comm, payloads: list[Any], tag: int):
    """All-to-all personalized exchange."""
    yield from _overhead(comm)
    if comm.size == 1:
        return [payloads[0]]
    per_pair = max(nbytes_of(p) for p in payloads)
    algo, span = _select(
        comm, CollRequest(op="alltoall", nbytes=per_pair, total=per_pair)
    )
    result = yield from algo.fn(comm, payloads, tag)
    trace_end(comm, span)
    return result
