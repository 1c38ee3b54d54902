"""SMP-aware (hierarchical, leader-based) collectives — the pure-MPI baseline.

The paper's Fig 3a describes the tuned pure-MPI allgather on multi-core
clusters: (1) on-node ranks *gather* their blocks at the node leader via
shared-memory p2p; (2) leaders exchange aggregated blocks across nodes;
(3) leaders *broadcast* the full result to their on-node children.  Every
process ends up with a private copy of the full result — the per-node
memory copies in stages (1) and (3) are precisely what the hybrid
MPI+MPI approach removes.

The wrappers below build (and cache) internal shared-memory and bridge
sub-communicators using the same ``split``/``split_type`` machinery user
code uses, then compose the flat algorithms from the sibling modules.

A multi-leader variant (Kandalla et al. 2009, the paper's [14]) is
provided for ablation: ``k`` leaders per node each own a slice of the
node's ranks and a parallel bridge communicator, reducing leader-side
serialization at the cost of more inter-node messages.
"""

from __future__ import annotations

from typing import Any

from repro.mpi.collectives.allgather import allgather_ring
from repro.mpi.collectives.blocks import BlockSet
from repro.mpi.collectives.gather import gather_binomial
from repro.mpi.collectives.reduce import reduce_binomial
from repro.mpi.collectives.registry import SHM_BCAST, CollRequest, in_phase
from repro.mpi.datatypes import nbytes_of

__all__ = [
    "hier_comms",
    "hier_allgather",
    "hier_bcast",
    "hier_reduce",
    "hier_allreduce",
    "multileader_allgather",
    "smp_3level_allgather",
]


def _by_node_map(comm) -> dict[int, list[int]]:
    """``node -> comm ranks`` of *comm*, computed once per communicator.

    Pure function of group + placement, so it lives in the shared cache:
    a per-rank scan would make hierarchy setup O(p^2) per job.
    """
    shared = comm.shared_cache
    by_node = shared.get("_by_node")
    if by_node is None:
        placement = comm.ctx.placement
        by_node = {}
        for r in range(comm.size):
            by_node.setdefault(
                placement.node_of(comm.world_rank_of(r)), []
            ).append(r)
        shared["_by_node"] = by_node
    return by_node


def hier_comms(comm):
    """Build (or fetch cached) the node hierarchy of *comm*.

    Returns ``(shm, bridge)`` where *shm* spans this rank's node members
    and *bridge* spans all node leaders (None on non-leader ranks).

    Membership is a pure function of the globally-known placement, so
    the sub-communicators come from the comm's deterministic-child
    registry — no rendezvous, which keeps this safe under concurrent
    non-blocking collectives, and no virtual time: a plain call.
    """
    cache = comm.hier_cache
    if "shm" not in cache:
        by_node = _by_node_map(comm)
        my_node = comm.ctx.placement.node_of(comm.ctx.world_rank)
        shm = comm.subcomm(("hier_shm", my_node), by_node[my_node])
        shared = comm.shared_cache
        leaders = shared.get("_hier_leaders")
        if leaders is None:
            leaders = shared["_hier_leaders"] = [
                ranks[0] for _node, ranks in sorted(by_node.items())
            ]
        bridge = comm.subcomm(("hier_bridge",), leaders)
        cache["shm"] = shm
        cache["bridge"] = bridge
    return cache["shm"], cache["bridge"]


def _parent_rank_of(comm, shm, sub_rank: int) -> int:
    """Translate a shared-memory comm rank to its parent-comm rank."""
    return comm.group.rank_of(shm.world_rank_of(sub_rank))


def _by_socket_map(comm) -> dict[tuple[int, int], list[int]]:
    """``(node, socket) -> comm ranks`` of *comm*, computed once.

    Like :func:`_by_node_map` but one level deeper: the socket domain is
    a pure function of placement + node shape, so this too lives in the
    shared cache.
    """
    shared = comm.shared_cache
    by_sock = shared.get("_by_socket")
    if by_sock is None:
        placement = comm.ctx.placement
        node_spec = comm.ctx.machine.spec.node
        by_sock = {}
        for r in range(comm.size):
            w = comm.world_rank_of(r)
            key = (placement.node_of(w), placement.socket_of(w, node_spec))
            by_sock.setdefault(key, []).append(r)
        shared["_by_socket"] = by_sock
    return by_sock


def _select_shm_bcast(shm, nbytes: int):
    """Size-appropriate on-node broadcast (binomial vs scatter+allgather).

    Real SMP-aware collectives switch algorithms for the fan-out stage
    just as for top-level broadcasts; without this the baseline would
    move n*log(ppn) bytes through node memory for large results and the
    comparison against the hybrid approach would be a strawman.

    Routed through the rank's selection policy over the registry, with
    the candidate set restricted to the stage-appropriate algorithms
    (no pipelining across shared memory)."""
    req = CollRequest("bcast", nbytes, nbytes, 0)
    return shm.ctx.policy.select(shm, req, SHM_BCAST).fn


def hier_allgather(comm, payload: Any, tag: int, select_bridge,
                   total_nbytes: int | None = None) -> Any:
    """Leader-based allgather (paper Fig 3a).  Coroutine.

    ``select_bridge(bridge_comm, payload)`` picks the flat algorithm used
    for the inter-leader exchange (always a *v*-variant when per-node
    totals differ).  ``total_nbytes`` (the full result size, which MPI
    programs know from their recvcounts) drives the algorithm choice of
    the on-node fan-out stage.  Returns the full :class:`BlockSet` keyed
    by parent comm ranks.
    """
    shm, bridge = hier_comms(comm)
    # Stage 1: gather blocks at the node leader (shared-memory p2p).
    local = yield from in_phase(
        comm, "on_node_gather",
        gather_binomial(shm, payload, 0, tag), nbytes_of(payload))
    if shm.rank == 0:
        node_blocks = BlockSet(
            {
                _parent_rank_of(comm, shm, sub): blk
                for sub, blk in local.blocks.items()
            }
        )
    else:
        node_blocks = None
    # Stage 2: leaders exchange aggregated node blocks.
    if bridge is not None and bridge.size > 1:
        exchanged = yield from in_phase(
            comm, "bridge_exchange",
            select_bridge(bridge, node_blocks, tag), node_blocks.nbytes)
        full = BlockSet()
        for node_set in exchanged.blocks.values():
            full.merge(node_set)
    elif bridge is not None:
        full = node_blocks
    else:
        full = None
    # Stage 3: leader broadcasts the complete result on-node.
    if total_nbytes is None:
        total_nbytes = nbytes_of(payload) * comm.size
    shm_bcast = _select_shm_bcast(shm, total_nbytes)
    full = yield from in_phase(
        comm, "on_node_bcast", shm_bcast(shm, full, 0, tag + 1), total_nbytes)
    return full


def hier_bcast(comm, payload: Any, root: int, tag: int, bridge_bcast) -> Any:
    """Leader-based broadcast: root → its leader → all leaders → children.

    ``bridge_bcast(bridge, payload, root_bridge_rank, tag)`` is the flat
    algorithm for the inter-leader stage.
    """
    shm, bridge = hier_comms(comm)
    placement = comm.ctx.placement
    root_world = comm.world_rank_of(root)
    root_node = placement.node_of(root_world)
    i_am_root = comm.rank == root
    root_shm_rank = shm.group.rank_of(root_world)  # UNDEFINED off-node
    root_on_my_node = shm.group.contains(root_world)

    # Stage 0: root hands the message to its node leader if distinct.
    if i_am_root and shm.rank != 0:
        yield from in_phase(
            comm, "root_to_leader",
            shm.send(payload, 0, tag=tag), nbytes_of(payload))
    if shm.rank == 0 and root_on_my_node and root_shm_rank != 0:
        payload = yield from in_phase(
            comm, "root_to_leader", shm.recv(source=root_shm_rank, tag=tag))
    # Stage 1: inter-leader broadcast, rooted at the root-node leader.
    if bridge is not None and bridge.size > 1:
        root_bridge_rank = next(
            bridge.group.rank_of(w)
            for w in bridge.group.world_ranks()
            if placement.node_of(w) == root_node
        )
        payload = yield from in_phase(
            comm, "bridge_exchange",
            bridge_bcast(bridge, payload, root_bridge_rank, tag),
            nbytes_of(payload))
    # Stage 2: on-node broadcast from the leader (size known locally:
    # every rank passed a same-sized buffer, as MPI_Bcast requires).
    shm_bcast = _select_shm_bcast(shm, nbytes_of(payload))
    payload = yield from in_phase(
        comm, "on_node_bcast",
        shm_bcast(shm, payload, 0, tag + 1), nbytes_of(payload))
    return payload


def hier_reduce(comm, payload: Any, op, root: int, tag: int):
    """Leader-based reduce: on-node reduce → inter-leader reduce → root."""
    shm, bridge = hier_comms(comm)
    placement = comm.ctx.placement
    root_world = comm.world_rank_of(root)
    root_node = placement.node_of(root_world)
    i_am_root = comm.rank == root
    root_shm_rank = shm.group.rank_of(root_world)  # UNDEFINED off-node
    root_on_my_node = shm.group.contains(root_world)

    # Stage 1: on-node reduce to the shm leader.
    partial = yield from in_phase(
        comm, "on_node_reduce",
        reduce_binomial(shm, payload, op, 0, tag), nbytes_of(payload))
    # Stage 2: inter-leader reduce to the root-node leader.
    result = None
    if bridge is not None:
        if bridge.size > 1:
            root_bridge = next(
                bridge.group.rank_of(w)
                for w in bridge.group.world_ranks()
                if placement.node_of(w) == root_node
            )
            result = yield from in_phase(
                comm, "bridge_exchange",
                reduce_binomial(bridge, partial, op, root_bridge, tag),
                nbytes_of(partial))
        else:
            result = partial
    # Stage 3: forward to the true root if it is not its node's leader.
    if root_shm_rank == 0 and root_on_my_node:
        return result if i_am_root else None
    if shm.rank == 0 and root_on_my_node:
        yield from in_phase(
            comm, "root_forward",
            shm.send(result, root_shm_rank, tag=tag + 2), nbytes_of(result))
        return None
    if i_am_root:
        result = yield from in_phase(
            comm, "root_forward", shm.recv(source=0, tag=tag + 2))
        return result
    return None


def hier_allreduce(comm, payload: Any, op, tag: int, bridge_allreduce):
    """Leader-based allreduce: on-node reduce → bridge allreduce →
    on-node broadcast."""
    shm, bridge = hier_comms(comm)
    partial = yield from in_phase(
        comm, "on_node_reduce",
        reduce_binomial(shm, payload, op, 0, tag), nbytes_of(payload))
    if bridge is not None and bridge.size > 1:
        partial = yield from in_phase(
            comm, "bridge_exchange",
            bridge_allreduce(bridge, partial, op, tag), nbytes_of(partial))
    shm_bcast = _select_shm_bcast(shm, nbytes_of(payload))
    result = yield from in_phase(
        comm, "on_node_bcast",
        shm_bcast(shm, partial, 0, tag + 1), nbytes_of(payload))
    return result


def multileader_allgather(comm, payload: Any, tag: int, leaders_per_node: int,
                          select_bridge):
    """Multi-leader allgather (ablation; Kandalla et al. 2009).

    The node's ranks are split round-robin over ``k`` leaders; each leader
    gathers its slice, exchanges on its own bridge communicator, then the
    leaders share results on-node and broadcast to their slices.
    """
    cache = comm.hier_cache
    key = f"ml{leaders_per_node}"
    if key not in cache:
        shm, _bridge_unused = hier_comms(comm)
        k = min(leaders_per_node, shm.size)
        slice_id = shm.rank % k
        # Slice members, leader flags, and bridge membership are all
        # derivable from global knowledge -> deterministic children.
        my_node = comm.ctx.placement.node_of(comm.ctx.world_rank)
        slice_members = [r for r in range(shm.size) if r % k == slice_id]
        slice_comm = shm.subcomm(("ml_slice", k, slice_id), slice_members)
        is_leader = slice_comm.rank == 0
        # Bridge s: the s-th leader of every node (if that node has one).
        by_node = _by_node_map(comm)
        bridge_members = []
        for _node, ranks in sorted(by_node.items()):
            kk = min(leaders_per_node, len(ranks))
            if slice_id < kk:
                bridge_members.append(ranks[slice_id])
        bridge = (
            comm.subcomm(("ml_bridge", k, slice_id), bridge_members)
            if is_leader
            else None
        )
        leaders_members = list(range(min(k, shm.size)))
        leaders_comm = (
            shm.subcomm(("ml_leaders", k), leaders_members)
            if is_leader
            else None
        )
        cache[key] = (shm, slice_comm, bridge, leaders_comm, k)
    shm, slice_comm, bridge, leaders_comm, k = cache[key]

    # Stage 1: gather within each slice.
    local = yield from in_phase(
        comm, "on_node_gather",
        gather_binomial(slice_comm, payload, 0, tag), nbytes_of(payload))
    if slice_comm.rank == 0:
        slice_blocks = BlockSet(
            {
                comm.group.rank_of(slice_comm.world_rank_of(sub)): blk
                for sub, blk in local.blocks.items()
            }
        )
    else:
        slice_blocks = None
    # Stage 2: each leader exchanges on its own bridge.
    if bridge is not None and bridge.size > 1:
        exchanged = yield from in_phase(
            comm, "bridge_exchange",
            select_bridge(bridge, slice_blocks, tag), slice_blocks.nbytes)
        part = BlockSet()
        for node_set in exchanged.blocks.values():
            part.merge(node_set)
    elif bridge is not None:
        part = slice_blocks
    else:
        part = None
    # Stage 3: leaders merge partial results on-node.
    if leaders_comm is not None and leaders_comm.size > 1:
        shared = yield from in_phase(
            comm, "leader_merge",
            allgather_ring(leaders_comm, part, tag + 1), part.nbytes)
        part = BlockSet()
        for piece in shared.blocks.values():
            part.merge(piece)
    # Stage 4: each leader broadcasts the full result to its slice.
    # (Children derive the same size from their own block, as MPI's
    # recvcounts make possible in the real code.)
    total = nbytes_of(payload) * comm.size
    shm_bcast = _select_shm_bcast(slice_comm, total)
    full = yield from in_phase(
        comm, "on_node_bcast", shm_bcast(slice_comm, part, 0, tag + 2), total)
    return full


def smp_3level_allgather(comm, payload: Any, tag: int, select_bridge,
                         total_nbytes: int | None = None) -> Any:
    """Three-level leader-based allgather for multi-socket nodes.

    Adds a socket tier below the node tier of :func:`hier_allgather`:
    (1) ranks gather at their *socket* leader, (2) socket leaders gather
    at the *node* leader, (3) node leaders exchange on the bridge,
    (4) the node leader broadcasts to its socket leaders, (5) each
    socket leader broadcasts within its socket.  Stages 1/2 and 4/5
    keep p2p traffic inside one memory domain except for the single
    socket-leader hop, which is what a NUMA-aware MPI does and the flat
    two-level gather does not.

    Phase spans carry ``level`` ("socket" / "node" / "bridge") so the
    critical-path decomposition can attribute cross-socket time.
    """
    cache = comm.hier_cache
    if "s3l" not in cache:
        _shm, bridge = hier_comms(comm)
        by_sock = _by_socket_map(comm)
        placement = comm.ctx.placement
        node_spec = comm.ctx.machine.spec.node
        w = comm.ctx.world_rank
        my_key = (placement.node_of(w), placement.socket_of(w, node_spec))
        sock = comm.subcomm(("s3l_sock",) + my_key, by_sock[my_key])
        node_sleaders = [
            ranks[0]
            for (n, _s), ranks in sorted(by_sock.items())
            if n == my_key[0]
        ]
        sleaders = (
            comm.subcomm(("s3l_sleaders", my_key[0]), node_sleaders)
            if sock.rank == 0
            else None
        )
        cache["s3l"] = (sock, sleaders, bridge)
    sock, sleaders, bridge = cache["s3l"]

    # Stage 1: gather blocks at the socket leader (intra-socket p2p).
    local = yield from in_phase(
        comm, "socket_gather", gather_binomial(sock, payload, 0, tag),
        nbytes_of(payload), level="socket")
    sock_blocks = None
    if sock.rank == 0:
        sock_blocks = BlockSet(
            {
                comm.group.rank_of(sock.world_rank_of(sub)): blk
                for sub, blk in local.blocks.items()
            }
        )
    # Stage 2: socket leaders gather at the node leader (one
    # cross-socket hop per non-leader socket).
    node_blocks = None
    if sleaders is not None:
        if sleaders.size > 1:
            gathered = yield from in_phase(
                comm, "node_gather",
                gather_binomial(sleaders, sock_blocks, 0, tag + 1),
                sock_blocks.nbytes, level="node")
            if sleaders.rank == 0:
                node_blocks = BlockSet()
                for piece in gathered.blocks.values():
                    node_blocks.merge(piece)
        elif sleaders.rank == 0:
            node_blocks = sock_blocks
    # Stage 3: node leaders exchange aggregated node blocks.
    full = None
    if bridge is not None:
        if bridge.size > 1:
            exchanged = yield from in_phase(
                comm, "bridge_exchange",
                select_bridge(bridge, node_blocks, tag + 2),
                node_blocks.nbytes, level="bridge")
            full = BlockSet()
            for node_set in exchanged.blocks.values():
                full.merge(node_set)
        else:
            full = node_blocks
    if total_nbytes is None:
        total_nbytes = nbytes_of(payload) * comm.size
    # Stage 4: node leader broadcasts the result to its socket leaders.
    if sleaders is not None and sleaders.size > 1:
        shm_bcast = _select_shm_bcast(sleaders, total_nbytes)
        full = yield from in_phase(
            comm, "node_bcast",
            shm_bcast(sleaders, full, 0, tag + 3), total_nbytes, level="node")
    # Stage 5: socket leaders broadcast within their socket.
    shm_bcast = _select_shm_bcast(sock, total_nbytes)
    full = yield from in_phase(
        comm, "socket_bcast",
        shm_bcast(sock, full, 0, tag + 4), total_nbytes, level="socket")
    return full
