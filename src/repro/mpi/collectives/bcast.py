"""Broadcast algorithms: binomial tree, scatter+allgather, pipelined chain.

* :func:`bcast_binomial` — log2(p) rounds; best for short messages.
* :func:`bcast_scatter_allgather` — van de Geijn: scatter the message,
  then ring-allgather the pieces; bandwidth-optimal for long messages.
* :func:`bcast_pipeline` — chunked chain pipeline for very long messages
  (the paper's §7 pointer to Träff et al. [30]).
"""

from __future__ import annotations

from typing import Any

from repro.mpi.collectives.allgather import allgather_ring
from repro.mpi.collectives.blocks import BlockSet
from repro.mpi.datatypes import Bytes, nbytes_of
from repro.simulator import AllOf

import numpy as np

__all__ = ["bcast_binomial", "bcast_scatter_allgather", "bcast_pipeline"]


def bcast_binomial(comm, payload: Any, root: int, tag: int):
    """Binomial-tree broadcast relative to *root*.

    Rank r's virtual rank is ``(r - root) mod p``; virtual rank v receives
    from ``v - 2^k`` (its lowest set bit) and forwards to ``v + 2^k`` for
    growing k.
    """
    size, rank = comm.size, comm.rank
    if size == 1:
        return payload
    vrank = (rank - root) % size
    # Receive phase: non-roots wait for the message from their parent.
    if vrank != 0:
        mask = 1
        while not vrank & mask:
            mask <<= 1
        parent = ((vrank - mask) + root) % size
        payload = yield from comm.recv(source=parent, tag=tag)
        mask >>= 1
    else:
        # Root starts with the highest power of two below size.
        mask = 1
        while mask < size:
            mask <<= 1
        mask >>= 1
    # Send phase: forward to children at decreasing distances.
    while mask:
        if vrank + mask < size:
            child = (vrank + mask + root) % size
            yield from comm.send(payload, child, tag=tag)
        mask >>= 1
    return payload


def _split_chunks(payload: Any, parts: int) -> list[Any]:
    """Split a payload into *parts* nearly equal chunks (dtype preserved).

    Supports ndarrays (element split), :class:`Bytes` (byte split) and
    :class:`BlockSet` (greedy partition of whole blocks by size, so
    hierarchical stages can long-broadcast gathered block sets)."""
    if isinstance(payload, np.ndarray):
        return list(np.array_split(payload.reshape(-1), parts))
    if isinstance(payload, BlockSet):
        owners = payload.owners()
        target = payload.nbytes / parts if parts else 0.0
        out: list[BlockSet] = []
        cur: dict[int, Any] = {}
        cur_bytes = 0.0
        for owner in owners:
            cur[owner] = payload[owner]
            cur_bytes += nbytes_of(payload[owner])
            if len(out) < parts - 1 and cur_bytes >= target:
                out.append(BlockSet(cur))
                cur, cur_bytes = {}, 0.0
        out.append(BlockSet(cur))
        while len(out) < parts:
            out.append(BlockSet())
        return out
    total = nbytes_of(payload)
    base, rem = divmod(total, parts)
    return [Bytes(base + (1 if i < rem else 0)) for i in range(parts)]


def _join_chunks(chunks: list[Any], template: Any) -> Any:
    """Reassemble chunks; returns the template's shape when known,
    otherwise a flat array / merged block set."""
    if all(isinstance(c, Bytes) for c in chunks):
        return Bytes(sum(c.nbytes for c in chunks))
    if any(isinstance(c, BlockSet) for c in chunks):
        merged = BlockSet()
        for c in chunks:
            if isinstance(c, BlockSet):
                merged.merge(c)
        return merged
    flat = np.concatenate([np.asarray(c).reshape(-1) for c in chunks if nbytes_of(c)])
    if isinstance(template, np.ndarray):
        return flat.reshape(template.shape)
    return flat


def bcast_scatter_allgather(comm, payload: Any, root: int, tag: int):
    """van de Geijn broadcast: binomial scatter + ring allgather.

    Moves ~``2·n`` bytes per rank instead of ``n·log p``; the standard
    choice for long messages on power-of-two and general sizes alike.
    """
    size = comm.size
    if size == 1:
        return payload
    # Scatter phase: root splits into p chunks, binomial-scatters them.
    if comm.rank == root:
        chunks = _split_chunks(payload, size)
        template = payload
    else:
        chunks = None
        template = None
    my_chunk = yield from _binomial_scatter(comm, chunks, root, tag)
    # Allgather phase: ring over the chunks.
    gathered = yield from allgather_ring(comm, my_chunk, tag + 1)
    if comm.rank == root:
        return template  # root already holds the message
    return _join_chunks(gathered.as_list(size), None)


def _binomial_scatter(comm, chunks: list[Any] | None, root: int, tag: int):
    """Binomial scatter of per-rank chunks (root holds the list)."""
    size, rank = comm.size, comm.rank
    vrank = (rank - root) % size

    def chunk_range_set(base_v: int, mask: int) -> list[int]:
        return [v for v in range(base_v, min(base_v + mask, size))]

    carried: dict[int, Any]
    if vrank == 0:
        assert chunks is not None
        carried = {v: chunks[(v + root) % size] for v in range(size)}
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
        if vrank + mask < size:
            child_v = vrank + mask
            child = (child_v + root) % size
            subtree = chunk_range_set(child_v, mask)
            chunk_set = BlockSet({v: carried[v] for v in subtree if v in carried})
            for v in subtree:
                carried.pop(v, None)
            yield from comm.send(chunk_set, child, tag=tag)
        mask >>= 1
    return carried[vrank]


def bcast_pipeline(comm, payload: Any, root: int, tag: int, chunk_bytes: int):
    """Chain-pipelined broadcast for very large messages (paper §7 / [30]).

    The message is cut into ``chunk_bytes`` pieces streamed down the
    rank-ordered chain; steady-state bandwidth approaches the link rate
    independent of p.
    """
    size, rank = comm.size, comm.rank
    if size == 1:
        return payload
    vrank = (rank - root) % size
    prev = ((vrank - 1) + root) % size
    nxt = ((vrank + 1) + root) % size
    total = nbytes_of(payload) if vrank == 0 else None
    if vrank == 0:
        nchunks = max(1, -(-total // chunk_bytes))
        chunks = _split_chunks(payload, nchunks)
        for i, chunk in enumerate(chunks):
            yield from comm.send(BlockSet({i: chunk}), nxt, tag=tag)
        yield from comm.send(BlockSet({-2: Bytes(0)}), nxt, tag=tag)
        return payload
    received: list[Any] = []
    is_last = vrank == size - 1
    pending_forward = []
    while True:
        block = yield from comm.recv(source=prev, tag=tag)
        if -2 in block.blocks:
            if not is_last:
                yield from comm.send(block, nxt, tag=tag)
            break
        if not is_last:
            req = comm.isend(block, nxt, tag=tag)
            pending_forward.append(req)
        for owner in block.owners():
            if owner >= 0:
                received.append((owner, block[owner]))
    if pending_forward:
        yield AllOf([r.event for r in pending_forward])
    received.sort(key=lambda kv: kv[0])
    parts = [p for _i, p in received]
    return _join_chunks(parts, None)
