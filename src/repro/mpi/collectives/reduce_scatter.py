"""Reduce-scatter algorithms (MPI_Reduce_scatter_block analogue).

Each rank contributes a vector of ``p`` equal blocks; rank *i* receives
the reduction of everyone's block *i*.  This is the first half of
Rabenseifner's allreduce and a building block of ring allreduce.

* :func:`reduce_scatter_halving` — recursive halving, power-of-two only;
  log2(p) rounds, bandwidth-optimal.
* :func:`reduce_scatter_pairwise` — p-1 rounds of pairwise exchange;
  any communicator size.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.mpi.collectives.reduce import combine
from repro.mpi.constants import ReduceOp
from repro.mpi.datatypes import Bytes

__all__ = ["reduce_scatter_halving", "reduce_scatter_pairwise"]


def _split_blocks(payload: Any, parts: int) -> list[Any]:
    if isinstance(payload, Bytes):
        base, rem = divmod(payload.nbytes, parts)
        return [Bytes(base + (1 if i < rem else 0)) for i in range(parts)]
    arr = np.asarray(payload).reshape(-1)
    return list(np.array_split(arr, parts))


def _pack(blocks: list[Any]) -> Any:
    if all(isinstance(b, Bytes) for b in blocks):
        return Bytes(sum(b.nbytes for b in blocks))
    return np.concatenate([np.asarray(b).reshape(-1) for b in blocks])


def reduce_scatter_halving(comm, payload: Any, op: ReduceOp, tag: int):
    """Recursive-halving reduce-scatter (power-of-two sizes).

    Returns this rank's reduced block.
    """
    size, rank = comm.size, comm.rank
    if size & (size - 1):
        raise ValueError("recursive halving requires power-of-two size")
    blocks = _split_blocks(payload, size)
    if size == 1:
        return blocks[0]
    lo, hi = 0, size
    mask = size // 2
    while mask >= 1:
        mid = lo + (hi - lo) // 2
        peer = rank ^ mask
        if rank & mask:
            send_lo, send_hi, keep_lo, keep_hi = lo, mid, mid, hi
        else:
            send_lo, send_hi, keep_lo, keep_hi = mid, hi, lo, mid
        outgoing = _pack(blocks[send_lo:send_hi])
        incoming = yield comm.exchange(outgoing, peer, peer, tag)
        if not isinstance(incoming, Bytes):
            flat = np.asarray(incoming).reshape(-1)
            off = 0
            for i in range(keep_lo, keep_hi):
                seg = np.asarray(blocks[i]).reshape(-1)
                blocks[i] = combine(seg, flat[off : off + seg.size], op)
                off += seg.size
        lo, hi = keep_lo, keep_hi
        mask //= 2
    return blocks[rank]


def reduce_scatter_pairwise(comm, payload: Any, op: ReduceOp, tag: int):
    """Pairwise-exchange reduce-scatter (any size): p-1 rounds, in round
    *s* exchange your block for rank (rank+s) against theirs for you."""
    size, rank = comm.size, comm.rank
    blocks = _split_blocks(payload, size)
    acc = blocks[rank]
    for step in range(1, size):
        to = (rank + step) % size
        frm = (rank - step) % size
        incoming = yield comm.exchange(blocks[to], to, frm, tag)
        acc = combine(acc, incoming, op)
    return acc
