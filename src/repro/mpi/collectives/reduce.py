"""Reduction collectives: reduce, allreduce, scan.

Value semantics: in data mode the combiner applies real NumPy ufuncs; in
model mode (symbolic :class:`~repro.mpi.datatypes.Bytes` payloads) the
"reduction" preserves the byte count, which is all the cost model needs.

Algorithms:

* :func:`reduce_binomial` — binomial tree, short messages.
* :func:`allreduce_recursive_doubling` — log2(p) exchange of full
  vectors; best for short messages.
* :func:`allreduce_rabenseifner` — reduce-scatter (recursive halving) +
  allgather (recursive doubling); bandwidth-optimal for long messages on
  power-of-two comms.
* :func:`allreduce_ring` — reduce-scatter ring + allgather ring;
  bandwidth-optimal for long messages at *any* communicator size.
* :func:`scan_linear` — inclusive prefix chain.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.mpi.collectives.allgather import allgather_recursive_doubling
from repro.mpi.constants import ReduceOp
from repro.mpi.datatypes import Bytes

__all__ = [
    "combine",
    "reduce_binomial",
    "allreduce_recursive_doubling",
    "allreduce_rabenseifner",
    "allreduce_ring",
    "scan_linear",
]

_UFUNC = {
    ReduceOp.SUM: np.add,
    ReduceOp.PROD: np.multiply,
    ReduceOp.MIN: np.minimum,
    ReduceOp.MAX: np.maximum,
    ReduceOp.LAND: np.logical_and,
    ReduceOp.LOR: np.logical_or,
    ReduceOp.BAND: np.bitwise_and,
    ReduceOp.BOR: np.bitwise_or,
}


def combine(a: Any, b: Any, op: ReduceOp) -> Any:
    """Apply reduction *op* to two payloads."""
    if isinstance(a, Bytes) or isinstance(b, Bytes):
        na = a.nbytes if isinstance(a, Bytes) else a.nbytes
        nb = b.nbytes if isinstance(b, Bytes) else b.nbytes
        if na != nb:
            raise ValueError(f"reduction of mismatched sizes {na} != {nb}")
        return Bytes(na)
    ufunc = _UFUNC[op]
    result = ufunc(np.asarray(a), np.asarray(b))
    if result.dtype != np.asarray(a).dtype and op in (
        ReduceOp.LAND,
        ReduceOp.LOR,
    ):
        return result
    return result.astype(np.asarray(a).dtype, copy=False)


def reduce_binomial(comm, payload: Any, op: ReduceOp, root: int, tag: int):
    """Binomial-tree reduce toward *root* (commutative ops).

    Returns the reduced payload at *root*, None elsewhere.
    """
    size, rank = comm.size, comm.rank
    vrank = (rank - root) % size
    acc = payload
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = ((vrank - mask) + root) % size
            yield from comm.send(acc, parent, tag=tag)
            return None
        child_v = vrank + mask
        if child_v < size:
            child = (child_v + root) % size
            incoming = yield from comm.recv(source=child, tag=tag)
            acc = combine(acc, incoming, op)
        mask <<= 1
    return acc


def allreduce_recursive_doubling(comm, payload: Any, op: ReduceOp, tag: int):
    """Recursive-doubling allreduce.

    Non-power-of-two sizes use the standard pre/post folding step: the
    first ``r = p - 2^k`` even ranks fold into their odd neighbours, the
    power-of-two core runs recursive doubling, and results fan back out.
    """
    size, rank = comm.size, comm.rank
    if size == 1:
        return payload
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    acc = payload
    new_rank = -1
    # Fold phase: ranks < 2*rem pair up (even sends to odd).
    if rank < 2 * rem:
        if rank % 2 == 0:
            yield from comm.send(acc, rank + 1, tag=tag)
            new_rank = -1  # idle during the core exchange
        else:
            incoming = yield from comm.recv(source=rank - 1, tag=tag)
            acc = combine(acc, incoming, op)
            new_rank = rank // 2
    else:
        new_rank = rank - rem
    # Core recursive doubling among pof2 virtual ranks.
    if new_rank >= 0:
        mask = 1
        while mask < pof2:
            peer_v = new_rank ^ mask
            peer = peer_v * 2 + 1 if peer_v < rem else peer_v + rem
            incoming = yield comm.exchange(acc, peer, peer, tag)
            acc = combine(acc, incoming, op)
            mask <<= 1
    # Unfold phase: odd partners push results back to the idle evens.
    if rank < 2 * rem:
        if rank % 2 == 0:
            acc = yield from comm.recv(source=rank + 1, tag=tag)
        else:
            yield from comm.send(acc, rank - 1, tag=tag)
    return acc


def allreduce_rabenseifner(comm, payload: Any, op: ReduceOp, tag: int):
    """Rabenseifner: recursive-halving reduce-scatter + rec-doubling
    allgather.  Falls back to recursive doubling when p is not a power of
    two or the payload cannot be split evenly.
    """
    size = comm.size
    if size == 1:
        return payload
    if size & (size - 1):
        result = yield from allreduce_recursive_doubling(comm, payload, op, tag)
        return result
    rank = comm.rank
    # Split the vector into p segments (by bytes for Bytes payloads,
    # by elements for arrays).
    if isinstance(payload, Bytes):
        base, remb = divmod(payload.nbytes, size)
        seg_sizes = [base + (1 if i < remb else 0) for i in range(size)]
        segments: list[Any] = [Bytes(s) for s in seg_sizes]
    else:
        arr = np.asarray(payload).reshape(-1)
        segments = list(np.array_split(arr, size))
    # Reduce-scatter by recursive halving.
    my_lo, my_hi = 0, size
    mask = size // 2
    while mask >= 1:
        mid = my_lo + (my_hi - my_lo) // 2
        peer = rank ^ mask
        if rank & mask:
            send_lo, send_hi = my_lo, mid
            keep_lo, keep_hi = mid, my_hi
        else:
            send_lo, send_hi = mid, my_hi
            keep_lo, keep_hi = my_lo, mid
        outgoing = _seg_pack(segments, send_lo, send_hi)
        incoming = yield comm.exchange(outgoing, peer, peer, tag)
        _seg_combine(segments, keep_lo, keep_hi, incoming, op)
        my_lo, my_hi = keep_lo, keep_hi
        mask //= 2
    # Allgather of reduced segments by recursive doubling.
    gathered = yield from allgather_recursive_doubling(
        comm, segments[rank], tag + 1
    )
    parts = gathered.as_list(size)
    if isinstance(payload, Bytes):
        return Bytes(sum(p.nbytes for p in parts))
    flat = np.concatenate([np.asarray(p).reshape(-1) for p in parts])
    return flat.reshape(np.asarray(payload).shape)


def _seg_pack(segments: list[Any], lo: int, hi: int) -> Any:
    parts = segments[lo:hi]
    if all(isinstance(p, Bytes) for p in parts):
        return Bytes(sum(p.nbytes for p in parts))
    return np.concatenate([np.asarray(p).reshape(-1) for p in parts])


def _seg_combine(
    segments: list[Any], lo: int, hi: int, incoming: Any, op: ReduceOp
) -> None:
    if isinstance(incoming, Bytes):
        return  # sizes unchanged under reduction
    off = 0
    flat = np.asarray(incoming).reshape(-1)
    for i in range(lo, hi):
        seg = np.asarray(segments[i]).reshape(-1)
        segments[i] = combine(seg, flat[off : off + seg.size], op)
        off += seg.size


def allreduce_ring(comm, payload: Any, op: ReduceOp, tag: int):
    """Ring allreduce: reduce-scatter ring + allgather ring.

    2(p-1) steps moving n/p bytes each — bandwidth-optimal for *any*
    communicator size (the algorithm popularized by large-scale ML
    frameworks).  Unlike Rabenseifner's recursive halving it has no
    power-of-two requirement, at the cost of linear latency.
    """
    size, rank = comm.size, comm.rank
    if size == 1:
        return payload
    # Segment the vector into p blocks.
    if isinstance(payload, Bytes):
        base, remb = divmod(payload.nbytes, size)
        segments: list[Any] = [
            Bytes(base + (1 if i < remb else 0)) for i in range(size)
        ]
    else:
        arr = np.asarray(payload).reshape(-1)
        segments = list(np.array_split(arr, size))
    right = (rank + 1) % size
    left = (rank - 1) % size
    # Phase 1: reduce-scatter ring.  In step s, send the running block
    # (rank - s) and fold the incoming block (rank - s - 1).
    for step in range(size - 1):
        send_idx = (rank - step) % size
        recv_idx = (rank - step - 1) % size
        incoming = yield comm.exchange(segments[send_idx], right, left, tag)
        segments[recv_idx] = combine(segments[recv_idx], incoming, op)
    # Phase 2: allgather ring of the fully-reduced blocks.
    for step in range(size - 1):
        send_idx = (rank - step + 1) % size
        recv_idx = (rank - step) % size
        segments[recv_idx] = yield comm.exchange(
            segments[send_idx], right, left, tag + 1)
    if isinstance(payload, Bytes):
        return Bytes(sum(s.nbytes for s in segments))
    flat = np.concatenate([np.asarray(s).reshape(-1) for s in segments])
    return flat.reshape(np.asarray(payload).shape)


def scan_linear(comm, payload: Any, op: ReduceOp, tag: int):
    """Inclusive prefix scan along the rank chain."""
    rank, size = comm.rank, comm.size
    acc = payload
    if rank > 0:
        incoming = yield from comm.recv(source=rank - 1, tag=tag)
        acc = combine(incoming, acc, op)
    if rank + 1 < size:
        yield from comm.send(acc, rank + 1, tag=tag)
    return acc
