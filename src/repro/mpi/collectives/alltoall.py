"""All-to-all personalized exchange: Bruck (small) and pairwise (large)."""

from __future__ import annotations

from typing import Any

from repro.mpi.collectives.blocks import BlockSet

__all__ = ["alltoall_pairwise", "alltoall_bruck"]


def alltoall_pairwise(comm, payloads: list[Any], tag: int):
    """Pairwise exchange: p-1 rounds, round i exchanges with rank^i
    (power-of-two sizes) or (rank±i) mod p otherwise.

    Returns the list of received payloads indexed by source rank.
    """
    size, rank = comm.size, comm.rank
    if len(payloads) != size:
        raise ValueError("alltoall needs one payload per rank")
    received: list[Any] = [None] * size
    received[rank] = payloads[rank]
    pof2 = size & (size - 1) == 0
    for step in range(1, size):
        if pof2:
            peer = rank ^ step
        else:
            peer = (rank + step) % size
            recv_peer = (rank - step) % size
        if pof2:
            recv_peer = peer
        incoming = yield comm.exchange(
            BlockSet({rank: payloads[peer]}), peer, recv_peer, tag)
        received[recv_peer] = incoming[recv_peer]
    return received


def alltoall_bruck(comm, payloads: list[Any], tag: int):
    """Bruck all-to-all: ceil(log2 p) rounds of bundled forwarding.

    Latency-optimal for small blocks at the cost of forwarding each block
    up to log p times.
    """
    size, rank = comm.size, comm.rank
    if len(payloads) != size:
        raise ValueError("alltoall needs one payload per rank")
    # Phase 1 (local rotation): data[i] = payload destined to (rank + i).
    data: dict[int, Any] = {
        i: payloads[(rank + i) % size] for i in range(size)
    }
    origin: dict[int, int] = {i: rank for i in range(size)}
    # Phase 2: for each bit, ship entries whose index has that bit set.
    pof = 1
    while pof < size:
        dst = (rank + pof) % size
        src = (rank - pof) % size
        ship_keys = [i for i in data if i & pof]
        bundle = BlockSet(
            {i: data[i] for i in ship_keys},
            meta={i: origin[i] for i in ship_keys},
        )
        in_bundle = yield comm.exchange(bundle, dst, src, tag)
        for i, payload in in_bundle.blocks.items():
            data[i] = payload
            origin[i] = in_bundle.meta[i]
        pof <<= 1
    # Phase 3: re-index by true source rank.
    received: list[Any] = [None] * size
    for i, payload in data.items():
        received[origin[i]] = payload
    received[rank] = payloads[rank]
    return received
