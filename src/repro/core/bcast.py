"""Hybrid broadcast (paper §4.2, Figs 5 and 6).

One shared region per node holds the broadcast message.  The root stores
its data directly into its node's region (a plain write — no message);
leaders broadcast across nodes on the bridge communicator; a single
post-sync releases the on-node readers (Fig 6: one barrier in every
branch).

When the root is not its node's leader an additional pre-sync on the
root's node is required so the leader observes the root's stores before
sending; the paper's pseudo-code assumes root 0 (a leader) and therefore
shows no pre-sync.  We insert it only in the non-leader-root case, and
on *all* nodes (the sync policy is collective over each node's shm
communicator, matching how such codes are written in practice).
"""

from __future__ import annotations

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

__all__ = ["hy_bcast"]


def hy_bcast(ctx, buf: SharedBuffer, root: int = 0,
             sync: SyncPolicy | None = None):
    """Coroutine: hybrid broadcast of ``buf``'s region from comm rank
    *root*.

    The root must have stored the message into ``buf.node_view()``
    before calling.  Afterwards every rank on every node reads the
    message from ``buf.node_view()``.
    """
    sync = sync or ctx.default_sync
    comm = ctx.comm
    nbytes = buf.total_nbytes
    policy = comm.ctx.policy
    algo = policy.select(comm, CollRequest("hy_bcast", nbytes, nbytes, root))
    traced = comm.ctx.trace is not None
    span = (trace_begin(comm, "hy_bcast", algo.name, nbytes, policy.name)
            if traced else None)
    placement = comm.ctx.placement
    root_world = comm.world_rank_of(root)
    root_node = placement.node_of(root_world)
    root_is_leader = placement.leader_of(root_node) == root_world

    if not root_is_leader:
        # Leader must observe the root's stores before transmitting.
        yield from in_phase(comm, "pre_sync", sync.pre_exchange(ctx))

    if ctx.multi_node and ctx.is_leader:
        ph = phase_begin(comm, "bridge_exchange", nbytes) if traced else None
        payload = buf.region_payload(0, nbytes)
        root_bridge = ctx.bridge_rank_of_node(root_node)
        result = yield from ctx.bridge.bcast(payload, root=root_bridge)
        if ctx.node != root_node:
            buf.write_region(0, result)
        phase_end(comm, ph)

    # Fig 6 lines 7/10/13: exactly one sync releases the readers.
    yield from in_phase(comm, "release_sync", sync.single(ctx))
    trace_end(comm, span)
