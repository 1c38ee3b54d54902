"""Hybrid allgather / allgatherv (paper §4.1, Fig 3b and Fig 4).

The data to be gathered lives in a node-shared :class:`SharedBuffer`;
each rank has already stored its contribution through its local pointer
(``buf.local_view()``).  The operation is then:

* **multi-node** — pre-sync (children publish their partitions), leaders
  run ``MPI_Allgatherv`` of contiguous *node blocks* on the bridge
  communicator, post-sync (children wait for the exchanged data);
* **single node** — one sync; the shared buffer is already the result.

No on-node aggregation or broadcast stages exist — those intra-node
copies are exactly what the pure-MPI baseline pays and the hybrid
approach removes.

The bridge exchange may optionally use the chunked pipelined ring of
:mod:`repro.core.pipeline` for very large node blocks (paper §7, [30]).
"""

from __future__ import annotations

import numpy as np

from repro.core.shared_buffer import SharedBuffer
from repro.core.sync import SyncPolicy
from repro.mpi.collectives.registry import (
    CollRequest,
    in_phase,
    phase_begin,
    phase_end,
    trace_begin,
    trace_end,
)
from repro.mpi.datatypes import Bytes

__all__ = ["hy_allgather", "hy_allgatherv"]


def _socket_payload(buf: SharedBuffer, members: list[int]):
    """The concatenated contributions of *members* (comm ranks) as one
    message payload (``Bytes`` in model mode)."""
    total = sum(buf.size_of_rank(r) for r in members)
    parts = [
        buf.region_payload(buf.offset_of_rank(r), buf.size_of_rank(r))
        for r in members
    ]
    if not parts or any(isinstance(p, Bytes) for p in parts):
        return Bytes(total)
    return np.concatenate(
        [np.asarray(p).reshape(-1).view(np.uint8) for p in parts]
    )


def _write_socket_blocks(buf: SharedBuffer, members: list[int], block):
    """Write one received socket block back into the window, member by
    member (bookkeeping — the real receive lands in the window)."""
    if isinstance(block, Bytes):
        return
    flat = np.asarray(block).reshape(-1).view(np.uint8)
    pos = 0
    for r in members:
        size = buf.size_of_rank(r)
        buf.write_region(buf.offset_of_rank(r), flat[pos:pos + size])
        pos += size


def _hy_allgather_3l(ctx, buf: SharedBuffer, sync: SyncPolicy, span):
    """Three-level bridge exchange: each socket leader runs a parallel
    allgatherv of its socket's blocks on its own bridge communicator
    (the s-th socket leaders of every node).

    With ``nic_streams >= sockets`` the per-socket bridges move their
    (smaller) node blocks concurrently, cutting the bandwidth term of
    the exchange; the price is one extra on-node completion round —
    socket leaders must report to the node leader before it may release
    the post-sync — so small messages favour the two-level variant.
    """
    comm = ctx.comm
    (sock, sleaders, sbridge, socket_id, sbridge_nodes, by_sock) = (
        yield from ctx.socket_comms()
    )
    yield from in_phase(comm, "pre_sync", sync.pre_exchange(ctx),
                        level="node")

    if sock.rank == 0:
        if sbridge.size > 1:
            members = by_sock[(ctx.node, socket_id)]
            ph = phase_begin(comm, "bridge_exchange", buf.total_nbytes,
                             level="socket")
            payload = _socket_payload(buf, members)
            blocks = yield from sbridge.allgatherv(payload)
            for brank, block in enumerate(blocks):
                node = sbridge_nodes[brank]
                if node == ctx.node:
                    continue
                _write_socket_blocks(
                    buf, by_sock[(node, socket_id)], block
                )
            phase_end(comm, ph)
        # Completion round: every socket leader reports to the node
        # leader so the post-sync release cannot overtake a still-running
        # parallel bridge.
        if sleaders.size > 1:
            ph = phase_begin(comm, "leader_gather", 0, level="node")
            if sleaders.rank == 0:
                for src in range(1, sleaders.size):
                    yield from sleaders.recv(source=src, tag=0)
            else:
                yield from sleaders.send(Bytes(0), 0, tag=0)
            phase_end(comm, ph)

    yield from in_phase(comm, "post_sync", sync.post_exchange(ctx),
                        level="node")
    trace_end(comm, span)


def hy_allgather(
    ctx,
    buf: SharedBuffer,
    sync: SyncPolicy | None = None,
    pipelined: bool | None = None,
    chunk_bytes: int = 128 * 1024,
    pack_datatypes: bool = False,
):
    """Coroutine: hybrid allgather over *buf* (regular or irregular alike
    — the bridge exchange is always the v-variant, as in Fig 4 line 26).

    After completion every rank on every node can read the full result
    from ``buf.node_view()`` with plain loads.

    ``pipelined=True`` forces the chunked pipelined-ring bridge exchange
    (the ablation knob predating the registry, traced with policy
    ``"caller"``); ``False``/``None`` lets the rank's selection policy
    choose — the plain shared-window exchange under the default tables,
    ``pipelined_ring`` / ``shared_window_3l`` when forced via
    ``REPRO_COLL_HY_ALLGATHER`` or preferred by the cost model.

    ``pack_datatypes`` selects the §6 *derived-datatype* fallback for
    non-SMP rank placements: instead of the node-sorted buffer layout,
    the leader packs its node's (conceptually non-contiguous) blocks
    before sending and unpacks received data into rank order, paying the
    per-byte packing cost the paper warns about.  With the default
    node-sorted layout no packing is ever needed.
    """
    sync = sync or ctx.default_sync
    comm = ctx.comm
    total = buf.total_nbytes
    if pipelined:
        algo, policy_name = "pipelined_ring", "caller"
    else:
        policy = comm.ctx.policy
        algo = policy.select(comm, CollRequest(
            "hy_allgather", total // max(comm.size, 1), total)).name
        policy_name = policy.name
    traced = comm.ctx.trace is not None
    span = (trace_begin(comm, "hy_allgather", algo, total, policy_name)
            if traced else None)
    if algo == "shared_window_3l" and ctx.multi_node:
        yield from _hy_allgather_3l(ctx, buf, sync, span)
        return
    pipelined = algo == "pipelined_ring"
    if not ctx.multi_node:
        # Fig 4 lines 29-30 / 37-38: single node → a single barrier makes
        # the buffer consistent.
        yield from in_phase(comm, "sync", sync.single(ctx))
        trace_end(comm, span)
        return

    # Fig 4 line 25 / 34: every on-node rank enters the pre-sync; leaders
    # thereby observe all partitions initialized.
    yield from in_phase(comm, "pre_sync", sync.pre_exchange(ctx))

    if ctx.is_leader:
        ph = (phase_begin(comm, "bridge_exchange", total) if traced
              else None)
        payload = buf.node_payload()
        if pack_datatypes and not ctx.layout.is_identity:
            # Pack my node's blocks (one pass) before the exchange.
            per_byte = ctx.comm.ctx.machine.spec.network.per_byte_packing
            _off, mine = buf.my_node_region
            yield ctx.comm.ctx.engine.timeout(per_byte * mine)
        if pipelined:
            from repro.core.pipeline import pipelined_ring_allgatherv

            blocks = yield from pipelined_ring_allgatherv(
                ctx.bridge, payload, chunk_bytes=chunk_bytes
            )
        else:
            blocks = yield from ctx.bridge.allgatherv(payload)
        # Write-back: received node blocks land at their regions (in the
        # real code the window *is* the recvbuf; this is bookkeeping).
        received = 0
        for bridge_rank, block in enumerate(blocks):
            node = ctx.node_of_bridge_rank(bridge_rank)
            if node == ctx.node:
                continue
            offset, nbytes = buf.node_region(node)
            received += nbytes
            buf.write_region(offset, block)
        if pack_datatypes and not ctx.layout.is_identity:
            # Unpack everything received into rank order (one pass).
            per_byte = ctx.comm.ctx.machine.spec.network.per_byte_packing
            yield ctx.comm.ctx.engine.timeout(per_byte * received)
        phase_end(comm, ph)

    # Fig 4 line 27 / 35: children wait until leaders finished exchanging.
    yield from in_phase(comm, "post_sync", sync.post_exchange(ctx))
    trace_end(comm, span)


def hy_allgatherv(
    ctx,
    buf: SharedBuffer,
    sync: SyncPolicy | None = None,
    pipelined: bool | None = None,
    chunk_bytes: int = 128 * 1024,
):
    """Coroutine: hybrid irregular allgather.

    Identical control flow to :func:`hy_allgather` — the irregularity is
    entirely captured by the buffer's per-slot sizes (built with
    :meth:`HybridContext.allgatherv_buffer`)."""
    yield from hy_allgather(
        ctx, buf, sync=sync, pipelined=pipelined, chunk_bytes=chunk_bytes
    )
