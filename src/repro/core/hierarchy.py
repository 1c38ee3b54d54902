"""Hybrid MPI+MPI context: communicator splitting and window allocation.

This is the one-off setup of paper Fig 4, lines 2-20:

1. ``MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)`` → the per-node
   *shared-memory communicator* (Fig 1a);
2. ``MPI_Comm_split`` keeping only each node's lowest rank → the
   *bridge communicator* of leaders (Fig 2);
3. ``MPI_Win_allocate_shared`` with the whole size at the leader and
   zero at children, plus ``MPI_Win_shared_query`` for the children's
   base pointer (Fig 1b / Fig 4 lines 13-20).

The paper stresses these are amortized one-offs; benchmarks therefore
construct the context outside the timed region, exactly as §5 excludes
"extra one-off activities".
"""

from __future__ import annotations

from typing import Any

from repro.core.allgather import hy_allgather
from repro.core.bcast import hy_bcast
from repro.core.placement import NodeSortedLayout
from repro.core.reduce import hy_allreduce
from repro.core.shared_buffer import SharedBuffer
from repro.core.sync import BarrierSync, SyncPolicy
from repro.mpi.collectives.replay import sync_signature
from repro.mpi.constants import UNDEFINED, ReduceOp
from repro.mpi.shm import win_allocate_shared

__all__ = ["HybridContext"]


class HybridContext:
    """Per-rank handle on the hybrid MPI+MPI hierarchy of one communicator.

    Build collectively::

        ctx = yield from HybridContext.create(mpi.world)

    Attributes
    ----------
    comm:
        The parent communicator.
    shm:
        This node's shared-memory communicator.
    bridge:
        The leaders' bridge communicator (None on children).
    layout:
        Node-major slot layout of the parent comm (identity for
        SMP-style placement; the §6 node-sorted array otherwise).
    """

    __slots__ = (
        "comm", "shm", "bridge", "layout", "default_sync", "_buffers",
        "_socket_tier", "_sync_sig",
    )

    def __init__(self, comm, shm, bridge, layout: NodeSortedLayout,
                 default_sync: SyncPolicy):
        self.comm = comm
        self.shm = shm
        self.bridge = bridge
        self.layout = layout
        self.default_sync = default_sync
        self._buffers: dict[Any, SharedBuffer] = {}
        self._socket_tier = None
        #: ``(policy, its replay descriptor)`` of the sync policy last
        #: used — built once per policy object, not once per call.
        self._sync_sig: tuple = (None, None)

    # -- construction ---------------------------------------------------------
    @classmethod
    def create(cls, comm, default_sync: SyncPolicy | None = None):
        """Coroutine: collectively build the hybrid hierarchy (Fig 4)."""
        shm = yield from comm.split_type_shared()
        is_leader = shm.rank == 0
        bridge = yield from comm.split(
            color=0 if is_leader else UNDEFINED, key=0
        )
        # The layout is a pure function of group + placement; build it
        # once per communicator (it is O(p), and every rank needs one).
        cache = comm.shared_cache
        layout = cache.get("_node_layout")
        if layout is None:
            layout = cache["_node_layout"] = NodeSortedLayout(
                comm.group.world_ranks(), comm.ctx.placement
            )
        return cls(comm, shm, bridge, layout, default_sync or BarrierSync())

    # -- identity ---------------------------------------------------------------
    @property
    def is_leader(self) -> bool:
        """True on each node's lowest-ranked process."""
        return self.shm.rank == 0

    @property
    def node(self) -> int:
        """This rank's node id."""
        return self.comm.ctx.placement.node_of(self.comm.ctx.world_rank)

    @property
    def num_nodes(self) -> int:
        """Nodes spanned by the parent communicator."""
        return len(self.layout.nodes)

    @property
    def multi_node(self) -> bool:
        """True when the bridge exchange is non-trivial (Fig 4 line 24)."""
        return self.num_nodes > 1

    def socket_comms(self):
        """Coroutine: lazily build (and cache) the socket tier.

        Returns ``(sock, sleaders, sbridge, socket_id, sbridge_nodes,
        by_sock)``:

        * *sock* — this rank's socket-domain communicator (members of
          its node sharing its socket);
        * *sleaders* — this node's socket leaders (None off-leaders);
        * *sbridge* — the ``socket_id``-th socket leaders of every node
          hosting that socket (None off-leaders) — the parallel bridge
          of the 3-level exchange;
        * *sbridge_nodes* — node id per *sbridge* rank;
        * *by_sock* — ``(node, socket) -> comm ranks``.

        Built from globally-known placement via the deterministic-child
        registry (no rendezvous), and only on demand, so two-level runs
        never pay for (or even create) the extra communicators.
        """
        if self._socket_tier is not None:
            return self._socket_tier
        comm = self.comm
        rctx = comm.ctx
        placement = rctx.placement
        node_spec = rctx.machine.spec.node
        shared = comm.shared_cache
        by_sock = shared.get("_hy_by_socket")
        if by_sock is None:
            by_sock = {}
            for r in range(comm.size):
                w = comm.world_rank_of(r)
                key = (
                    placement.node_of(w),
                    placement.socket_of(w, node_spec),
                )
                by_sock.setdefault(key, []).append(r)
            shared["_hy_by_socket"] = by_sock
        w = rctx.world_rank
        my_node = placement.node_of(w)
        my_sock = placement.socket_of(w, node_spec)
        sock = comm.subcomm(
            ("hy_sock", my_node, my_sock), by_sock[(my_node, my_sock)]
        )
        is_sock_leader = sock.rank == 0
        sleaders = None
        sbridge = None
        sbridge_nodes: list[int] = []
        if is_sock_leader:
            node_sleaders = [
                ranks[0]
                for (n, _s), ranks in sorted(by_sock.items())
                if n == my_node
            ]
            sleaders = comm.subcomm(("hy_sleaders", my_node), node_sleaders)
            members = []
            for (n, s), ranks in sorted(by_sock.items()):
                if s == my_sock:
                    members.append(ranks[0])
                    sbridge_nodes.append(n)
            sbridge = comm.subcomm(("hy_sbridge", my_sock), members)
        self._socket_tier = (
            sock, sleaders, sbridge, my_sock, sbridge_nodes, by_sock
        )
        if False:  # pragma: no cover - keeps this a generator function
            yield None
        return self._socket_tier

    def bridge_rank_of_node(self, node: int) -> int:
        """Bridge-comm rank of *node*'s leader (nodes ascend in bridge)."""
        return self.layout.nodes.index(node)

    def node_of_bridge_rank(self, bridge_rank: int) -> int:
        """Node id of a bridge-comm rank."""
        return self.layout.nodes[bridge_rank]

    # -- buffer factories --------------------------------------------------------
    def _alloc(self, slot_sizes, cache_key: Any = None):
        """Coroutine: allocate a node-shared buffer with the given
        node-major *slot_sizes* (leader allocates all; children zero);
        the communicator's ranks share its slot offsets."""
        if cache_key is not None and cache_key in self._buffers:
            return self._buffers[cache_key]
        sizes = tuple(slot_sizes)
        win = yield from win_allocate_shared(
            self.shm, sum(sizes) if self.is_leader else 0
        )
        shared = self.comm.shared_cache
        offsets = shared.get(("_hy_offsets", sizes))
        buf = SharedBuffer(
            win=win,
            layout=self.layout,
            slot_sizes=sizes,
            my_rank=self.comm.rank,
            node=self.node,
            data_mode=self.comm.ctx.data_mode,
            slot_offsets=offsets,
        )
        if offsets is None:
            shared[("_hy_offsets", sizes)] = buf.slot_offsets
        if cache_key is not None:
            self._buffers[cache_key] = buf
        return buf

    def allgather_buffer(self, nbytes_per_rank: int, cache: bool = True):
        """Coroutine: buffer for a *regular* allgather — one
        ``nbytes_per_rank`` slot per comm rank, one copy per node."""
        sizes = (int(nbytes_per_rank),) * self.comm.size
        return self._alloc(sizes, ("ag", nbytes_per_rank) if cache else None)

    def allgatherv_buffer(self, nbytes_by_rank: list[int], cache: bool = True):
        """Coroutine: buffer for an *irregular* allgather — per-rank slot
        sizes (indexed by comm rank, reordered node-major internally —
        once per communicator and size vector, shared by its ranks)."""
        by_rank = tuple(nbytes_by_rank)
        if len(by_rank) != self.comm.size:
            raise ValueError("one size per comm rank required")
        shared = self.comm.shared_cache
        sizes = shared.get(("_hy_agv_slots", by_rank))
        if sizes is None:
            slots = [0] * len(by_rank)
            for rank, nb in enumerate(by_rank):
                slots[self.layout.slot_of_rank(rank)] = int(nb)
            sizes = shared[("_hy_agv_slots", by_rank)] = tuple(slots)
        return self._alloc(sizes, ("agv", by_rank) if cache else None)

    def bcast_buffer(self, nbytes: int, cache: bool = True):
        """Coroutine: buffer for broadcast — a single shared region per
        node (every rank reads the same storage via ``node_view``).

        Internally the whole size sits in slot 0 so the buffer machinery
        (regions, payloads) applies unchanged."""
        sizes = [0] * self.comm.size
        sizes[0] = int(nbytes)
        return self._alloc(sizes, ("bc", nbytes) if cache else None)

    # -- collective operations (delegates) --------------------------------------
    def _replayed(self, op: str, fn, args: tuple, sync, *call):
        """The coroutine of hybrid collective ``fn(*args)`` routed through
        the job's replay session, which builds that body only where the
        dispatch runs live; with replay off the body is built and
        returned as is, and nothing is encoded.  The delegates below
        return it, so no frame of theirs sits on the rank's resumes.

        *call* is what keys the dispatch besides the effective sync
        policy's descriptor, which goes in front: the public call's other
        positional arguments, each shared buffer as its slot-size tuple.
        The i-variants bypass this (they run as background processes and
        veto replay via the non-blocking counter instead)."""
        sess = self.comm.ctx.job.replay
        if sess is None:
            return fn(*args)
        sync = sync or self.default_sync
        if self._sync_sig[0] is not sync:
            self._sync_sig = (sync, sync_signature(sync))
        sd = self._sync_sig[1]
        return sess.run(
            self.comm, op, None if sd is None else (sd, *call), fn, args,
        )

    def allgather(self, buf: SharedBuffer, sync: SyncPolicy | None = None,
                  pipelined: bool | None = None,
                  chunk_bytes: int = 128 * 1024,
                  pack_datatypes: bool = False):
        """Coroutine: hybrid allgather over *buf* (paper Fig 4).

        ``pipelined=True`` forces the chunked bridge exchange; ``None``
        (default) lets the rank's selection policy pick the variant."""
        return self._replayed(
            "hy_allgather", hy_allgather,
            (self, buf, sync, pipelined, chunk_bytes, pack_datatypes),
            sync, buf.slot_sizes, pipelined, chunk_bytes, pack_datatypes,
        )

    def bcast(self, buf: SharedBuffer, root: int = 0,
              sync: SyncPolicy | None = None):
        """Coroutine: hybrid broadcast over *buf* (paper Fig 6)."""
        return self._replayed(
            "hy_bcast", hy_bcast, (self, buf, root, sync),
            sync, buf.slot_sizes, root,
        )

    def allreduce(self, contribution, nbytes: int,
                  op=None, sync: SyncPolicy | None = None):
        """Coroutine: hybrid allreduce extension; returns result payload."""
        rop = op or ReduceOp.SUM
        return self._replayed(
            "hy_allreduce", hy_allreduce,
            (self, contribution, nbytes, rop, sync),
            sync, contribution, int(nbytes), rop,
        )

    # -- immediate (non-blocking) variants ---------------------------------
    def _ihy(self, op: str, nbytes: int, fn, args: tuple):
        """Post a hybrid collective as a background process.

        The returned :class:`~repro.mpi.nonblocking.CollRequest`
        completes when the collective does; meanwhile the bridge
        exchange (and the on-node syncs) progress in virtual time while
        this rank computes — each rank's share of the collective runs in
        its own background process, so children overlap their compute
        with the leaders' bridge exchange.  Profiled under *op* with
        issue-to-completion timing."""
        from repro.mpi.nonblocking import spawn_collective

        def timed():
            ctx = self.comm.ctx
            t0 = ctx.engine.now
            result = yield from fn(*args)
            ctx.profile.record(op, nbytes, ctx.engine.now - t0)
            return result

        return spawn_collective(self.comm, op, timed())

    def iallgather(self, buf: SharedBuffer, sync: SyncPolicy | None = None,
                   pipelined: bool | None = None,
                   chunk_bytes: int = 128 * 1024,
                   pack_datatypes: bool = False):
        """Immediate hybrid allgather; wait on the returned request
        before reading ``buf.node_view()``."""
        return self._ihy(
            "hy_iallgather", buf.total_nbytes, hy_allgather,
            (self, buf, sync, pipelined, chunk_bytes, pack_datatypes),
        )

    def ibcast(self, buf: SharedBuffer, root: int = 0,
               sync: SyncPolicy | None = None):
        """Immediate hybrid broadcast (the root must have stored its
        message into ``buf`` *before* posting); wait on the returned
        request before reading ``buf.node_view()``."""
        return self._ihy(
            "hy_ibcast", buf.total_nbytes, hy_bcast, (self, buf, root, sync),
        )

    def iallreduce(self, contribution, nbytes: int,
                   op=None, sync: SyncPolicy | None = None):
        """Immediate hybrid allreduce; the request's value is the result
        payload."""
        return self._ihy(
            "hy_iallreduce", nbytes, hy_allreduce,
            (self, contribution, nbytes, op or ReduceOp.SUM, sync),
        )

    def __repr__(self) -> str:
        return (
            f"HybridContext(nodes={self.num_nodes}, "
            f"leader={self.is_leader}, comm={self.comm.name!r})"
        )
