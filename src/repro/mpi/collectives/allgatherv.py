"""Irregular allgather (MPI_Allgatherv) algorithms: Bruck-v and ring-v.

Unlike ``MPI_Allgather``, real allgatherv implementations never use
recursive doubling (the per-rank counts break its index arithmetic), and
they pay extra bookkeeping for the recvcounts/displacements vectors.
Träff 2009 ("Relationships between regular and irregular collective
communication operations…", the paper's [29]) documents the resulting
performance gap; it is the reason the hybrid approach loses slightly in
the paper's one-process-per-node extreme case (Fig 8), and the dispatcher
(:mod:`repro.mpi.collectives`) charges the vector overhead explicitly.
"""

from __future__ import annotations

from typing import Any

from repro.mpi.collectives.allgather import allgather_bruck, allgather_ring
from repro.mpi.collectives.blocks import BlockSet

__all__ = ["allgatherv_bruck", "allgatherv_ring", "allgatherv_gather_bcast"]


def allgatherv_bruck(comm, payload: Any, tag: int, total=None):
    """Bruck exchange with per-rank block sizes (small total sizes)."""
    return allgather_bruck(comm, payload, tag)


def allgatherv_ring(comm, payload: Any, tag: int, total=None):
    """Ring exchange with per-rank block sizes (large total sizes)."""
    return allgather_ring(comm, payload, tag)


def allgatherv_gather_bcast(comm, payload: Any, tag: int, root: int = 0):
    """Gatherv to *root* then broadcast of the concatenated buffer.

    Used by some libraries for very irregular distributions; provided for
    ablation studies (it sends ``2·total`` bytes through the root).
    """
    from repro.mpi.collectives.bcast import bcast_binomial
    from repro.mpi.collectives.gather import gather_binomial

    gathered = yield from gather_binomial(comm, payload, root, tag)
    if comm.rank == root:
        full = gathered
    else:
        full = None
    full = yield from bcast_binomial(comm, full, root, tag + 1)
    if not isinstance(full, BlockSet):
        raise AssertionError("gather+bcast allgatherv lost its block set")
    return full
