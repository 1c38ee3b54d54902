"""Barrier algorithms: dissemination and shared-memory flag tree.

Dissemination (Hensgen/Finkel/Manber): ``ceil(log2 p)`` rounds; in round
k each rank sends a zero-byte token to ``(rank + 2^k) mod p`` and waits
for one from ``(rank - 2^k) mod p``.  This is the paper's *heavy-weight*
on-node synchronization primitive (§6): its cost over a shared-memory
communicator is a handful of on-node latency hops, independent of
message size — which is why Hy_Allgather is flat in Fig 7.

The shm flag barrier models the optimized on-node barrier real MPI
libraries implement with shared-memory flag trees rather than message
passing.
"""

from __future__ import annotations

from repro.mpi.datatypes import Bytes

__all__ = ["barrier_dissemination", "barrier_shm_flags"]


def barrier_dissemination(comm, tag: int):
    """Dissemination barrier over all ranks of *comm* (coroutine)."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    token = Bytes(0)
    distance = 1
    while distance < size:
        to = (rank + distance) % size
        frm = (rank - distance) % size
        yield comm.exchange(token, to, frm, tag)
        distance <<= 1


def barrier_shm_flags(comm, tag: int, rounds_cost: float | None = None,
                      phase: str = "arrive"):
    """Coroutine: optimized single-node barrier (shared flags).

    Real MPI libraries implement on-node barriers with shared-memory
    flag trees, not message passing.  Modelled as a zero-time rendezvous
    (everyone leaves together at the last arrival) plus the flag-tree
    cost.  ``rounds_cost`` overrides the charged time (used for the
    cheap release phase of the hierarchical barrier).  The rendezvous is
    keyed by the collective's issue-time *tag*, so concurrent
    non-blocking barriers cannot cross-match."""
    tuning = comm.ctx.tuning
    if rounds_cost is None:
        rounds = (max(comm.size, 2) - 1).bit_length()
        rounds_cost = tuning.shm_barrier_base + rounds * tuning.shm_barrier_flag
    yield comm._shared.arrive(
        ("shm_barrier", phase, tag), comm.rank, None, dict.fromkeys,
    )
    yield comm.ctx.engine.pause(rounds_cost)
