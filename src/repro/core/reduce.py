"""Hybrid allreduce — an extension in the paper's style.

The paper implements allgather and broadcast and names allreduce among
the "important" collectives (§1); the same one-copy-per-node recipe
applies directly:

1. every rank stores its contribution into a per-rank scratch slot of a
   node-shared window (plain stores, no messages);
2. pre-sync;
3. the leader reduces the node's scratch slots locally (a streaming pass
   over ``ppn·n`` bytes plus the arithmetic — charged through the memory
   and compute models);
4. leaders run the (pure-MPI, tuned) allreduce on the bridge
   communicator;
5. the leader stores the result into the shared result region;
6. post-sync; every rank reads the result in place.

Compared to pure MPI this removes the on-node copy cascade and keeps
one result copy per node; compared to hybrid allgather it adds the
leader-side local reduction, which is why its advantage profile is
flatter (see the ablation benchmark).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.sync import SyncPolicy
from repro.mpi.collectives.reduce import combine
from repro.mpi.constants import ReduceOp
from repro.mpi.datatypes import Bytes, nbytes_of

__all__ = ["hy_allreduce"]


def _fold_factor(ctx) -> float:
    """Memory-pass multiplier for the leader's local fold.

    The baseline charge (one contended streaming pass over ``ppn*n``
    bytes) models the classic copy-then-reduce fold, i.e. the
    ``reduce_passes=2`` transports.  A transport that can stream the
    peers' buffers straight through the reduction (PiP direct
    load/store, ``reduce_passes=1``) halves the traffic.
    """
    return ctx.comm.ctx.machine.transport.reduce_passes / 2.0


def _scratch_buffer(ctx, nbytes: int):
    """Coroutine: (cached) scratch window — ppn contribution slots plus
    one result region, all node-local."""
    sizes = [nbytes] * ctx.comm.size
    buf = yield from ctx._alloc(sizes, cache_key=("ar_scratch", nbytes))
    result_buf = yield from ctx._alloc(
        [nbytes] + [0] * (ctx.comm.size - 1),
        cache_key=("ar_result", nbytes),
    )
    return buf, result_buf


def _node_partial(ctx, scratch, nbytes: int, op: ReduceOp) -> Any:
    """Leader-side local reduction over this node's scratch slots."""
    start_slot = scratch.layout.node_slot_start(ctx.node)
    count = scratch.layout.node_count(ctx.node)
    raw = scratch.node_view(np.uint8)
    if raw is None:
        return Bytes(nbytes)
    acc = None
    for slot in range(start_slot, start_slot + count):
        rank = scratch.layout.rank_of_slot(slot)
        seg = scratch.slot_view(rank, np.uint8).view(np.float64)
        acc = seg.copy() if acc is None else combine(acc, seg, op)
    return acc


def hy_allreduce(ctx, contribution: Any, nbytes: int,
                 op: ReduceOp = ReduceOp.SUM,
                 sync: SyncPolicy | None = None) -> Any:
    """Coroutine: hybrid allreduce; returns the result payload.

    *contribution* is this rank's vector (float64 ndarray in data mode,
    anything sized `nbytes` in model mode).  The returned value is the
    node-shared result (ndarray view / :class:`Bytes`).
    """
    if nbytes_of(contribution) != nbytes:
        raise ValueError(
            f"contribution is {nbytes_of(contribution)} B, declared {nbytes} B"
        )
    sync = sync or ctx.default_sync
    scratch, result_buf = yield from _scratch_buffer(ctx, nbytes)

    # Stage 1: store my contribution (plain write into shared memory).
    local = scratch.local_view(np.float64)
    if local is not None and isinstance(contribution, np.ndarray):
        local[:] = np.asarray(contribution, dtype=np.float64).reshape(-1)
    yield from sync.pre_exchange(ctx)

    partial = None
    if ctx.is_leader:
        # Stage 2: local reduction (stream ppn slots through memory).
        ppn = scratch.layout.node_count(ctx.node)
        yield from ctx.comm.ctx.touch(ppn * nbytes * _fold_factor(ctx))
        yield ctx.comm.ctx.compute_flops(ppn * nbytes / 8.0, kind="blas1")
        partial = _node_partial(ctx, scratch, nbytes, op)
        # Stage 3: bridge allreduce among leaders.
        if ctx.multi_node:
            partial = yield from ctx.bridge.allreduce(partial, op)
        # Stage 4: publish the result.
        if isinstance(partial, np.ndarray):
            result_buf.write_region(0, partial.view(np.uint8))
    yield from sync.post_exchange(ctx)
    view = result_buf.region_view(0, nbytes, np.float64)
    if view is not None:
        return view
    return Bytes(nbytes)
