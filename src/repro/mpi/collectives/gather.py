"""Gather and scatter algorithms (binomial trees and linear fallbacks)."""

from __future__ import annotations

from typing import Any

from repro.mpi.collectives.blocks import BlockSet

__all__ = [
    "gather_binomial",
    "gather_linear",
    "scatter_binomial",
    "scatter_linear",
]


def gather_binomial(comm, payload: Any, root: int, tag: int):
    """Binomial-tree gather: leaves push up, subtree roots aggregate.

    Returns the full :class:`BlockSet` at *root*, None elsewhere.
    Handles irregular (per-rank size) payloads naturally, so it doubles
    as gatherv.
    """
    size, rank = comm.size, comm.rank
    vrank = (rank - root) % size
    carried = BlockSet.single(rank, payload)
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = ((vrank - mask) + root) % size
            yield from comm.send(carried, parent, tag=tag)
            return None
        child_v = vrank + mask
        if child_v < size:
            child = (child_v + root) % size
            incoming = yield from comm.recv(source=child, tag=tag)
            carried.merge(incoming)
        mask <<= 1
    return carried


def gather_linear(comm, payload: Any, root: int, tag: int):
    """Linear gather: every rank sends directly to the root.

    Used by real libraries for small comms or very large messages (avoids
    intermediate staging at subtree roots).
    """
    size, rank = comm.size, comm.rank
    if rank != root:
        yield from comm.send(BlockSet.single(rank, payload), root, tag=tag)
        return None
    carried = BlockSet.single(rank, payload)
    reqs = [
        comm.irecv(source=peer, tag=tag) for peer in range(size) if peer != root
    ]
    results = yield from comm.waitall(reqs)
    for incoming, _status in results:
        carried.merge(incoming)
    return carried


def scatter_binomial(comm, payloads: list[Any] | None, root: int, tag: int):
    """Binomial-tree scatter: root pushes subtree bundles down the tree.

    *payloads* (significant at root) lists one payload per rank.
    Returns this rank's payload.
    """
    size, rank = comm.size, comm.rank
    vrank = (rank - root) % size
    if vrank == 0:
        if payloads is None or len(payloads) != size:
            raise ValueError("root must supply one payload per rank")
        carried = {v: payloads[(v + root) % size] for v in range(size)}
        mask = 1
        while mask < size:
            mask <<= 1
        mask >>= 1
    else:
        mask = 1
        while not vrank & mask:
            mask <<= 1
        parent = ((vrank - mask) + root) % size
        incoming = yield from comm.recv(source=parent, tag=tag)
        carried = dict(incoming.blocks)
        mask >>= 1
    while mask:
        child_v = vrank + mask
        if child_v < size:
            child = (child_v + root) % size
            subtree = range(child_v, min(child_v + mask, size))
            bundle = BlockSet({v: carried[v] for v in subtree if v in carried})
            for v in subtree:
                carried.pop(v, None)
            yield from comm.send(bundle, child, tag=tag)
        mask >>= 1
    return carried[vrank]


def scatter_linear(comm, payloads: list[Any] | None, root: int, tag: int):
    """Linear scatter: root sends each rank its payload directly."""
    size, rank = comm.size, comm.rank
    if rank == root:
        if payloads is None or len(payloads) != size:
            raise ValueError("root must supply one payload per rank")
        reqs = []
        for peer in range(size):
            if peer == root:
                continue
            reqs.append(comm.isend(BlockSet({peer: payloads[peer]}), peer, tag=tag))
        yield from comm.waitall(reqs)
        return payloads[root]
    incoming = yield from comm.recv(source=root, tag=tag)
    return incoming[rank]
