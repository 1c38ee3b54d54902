"""Allgather algorithms: recursive doubling, Bruck, ring.

All three return a :class:`~repro.mpi.collectives.blocks.BlockSet`
containing one block per communicator rank.  They are *flat* algorithms —
the SMP-aware wrapper in :mod:`repro.mpi.collectives.hierarchical`
composes them across the node hierarchy.  Each accepts and ignores the
registry's ``total`` argument, so the registry calls them directly.

References: Thakur, Rabenseifner, Gropp — "Optimization of collective
communication operations in MPICH", IJHPCA 2005.
"""

from __future__ import annotations

from itertools import islice
from typing import Any

from repro.mpi.collectives.blocks import BlockSet

__all__ = [
    "allgather_recursive_doubling",
    "allgather_bruck",
    "allgather_ring",
]


def _is_pof2(n: int) -> bool:
    return n & (n - 1) == 0


def allgather_recursive_doubling(comm, payload: Any, tag: int, total=None):
    """Recursive doubling: log2(p) rounds, doubling block count each round.

    Requires a power-of-two communicator size.
    """
    size, rank = comm.size, comm.rank
    if not _is_pof2(size):
        raise ValueError("recursive doubling requires power-of-two size")
    mine = BlockSet.single(rank, payload)
    if size == 1:
        return mine
    distance = 1
    while distance < size:
        peer = rank ^ distance
        incoming = yield comm.exchange(mine, peer, peer, tag)
        mine.merge(incoming)
        distance <<= 1
    return mine


def allgather_bruck(comm, payload: Any, tag: int, total=None):
    """Bruck's algorithm: ceil(log2 p) rounds, works for any p.

    Blocks are kept in "distance from me" order during the exchange and
    re-indexed at the end (the final rotation real implementations pay as
    a local copy; the cost model charges it in the dispatcher through the
    vector/bookkeeping overhead).
    """
    size, rank = comm.size, comm.rank
    # mine holds the blocks of rank, rank + 1, ... (mod size) in that
    # order.  A round sends its first send_count blocks (all of them but
    # in a non-power-of-two size's last round) and appends the partner's
    # first ones: those of rank + pof, rank + pof + 1, ...
    mine = BlockSet.single(rank, payload)
    pof = 1
    while pof < size:
        send_count = min(pof, size - pof)
        chunk = mine if send_count == pof else BlockSet(
            dict(islice(mine.blocks.items(), send_count)))
        incoming = yield comm.exchange(
            chunk, (rank - pof) % size, (rank + pof) % size, tag)
        mine.merge(incoming)
        pof <<= 1
    return mine


def allgather_ring(comm, payload: Any, tag: int, total=None):
    """Ring: p-1 rounds, each forwarding one block to the right neighbour.

    Bandwidth-optimal for large messages; latency scales linearly in p.
    """
    size, rank = comm.size, comm.rank
    mine = BlockSet.single(rank, payload)
    if size == 1:
        return mine
    right = (rank + 1) % size
    left = (rank - 1) % size
    carry_owner = rank
    blocks = mine.blocks
    merge = mine.merge
    exchange = comm.exchange
    for _step in range(size - 1):
        chunk = BlockSet.single(carry_owner, blocks[carry_owner])
        incoming = yield exchange(chunk, right, left, tag)
        if len(incoming.blocks) != 1:
            raise AssertionError("ring step must carry exactly one block")
        carry_owner = next(iter(incoming.blocks))
        merge(incoming)
    return mine
