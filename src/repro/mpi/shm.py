"""MPI-3 shared-memory windows (``MPI_Win_allocate_shared`` model).

A :class:`SharedWindow` is allocated collectively over a *shared-memory
communicator* (every member on one node, as produced by
``Comm.split_type_shared``).  Each rank contributes a size; the segments
are laid out contiguously in allocation-rank order, exactly like the MPI
default.  :meth:`SharedWindow.segment` is the ``MPI_Win_shared_query``
analogue: any member can obtain a direct view of any other member's
segment and read/write it with plain NumPy indexing — no message passing,
no copies.

In *model* payload mode no real memory is allocated; the window keeps
only sizes/offsets (windows at paper scale would need GBs).  Reads and
writes through :meth:`SharedWindow.touch` charge the node's contended
memory system in either mode, which is how the cost of accessing shared
results is accounted in the hybrid collectives.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.mpi.errors import WindowError

__all__ = ["SharedWindow", "win_allocate_shared"]


class _WindowShared:
    """Node-wide state of one shared window."""

    __slots__ = ("node", "sizes", "offsets", "total", "buffer", "flags")

    def __init__(self, node: int, sizes: list[int], data_mode: bool):
        self.node = node
        self.sizes = sizes
        self.offsets = []
        off = 0
        for s in sizes:
            self.offsets.append(off)
            off += s
        self.total = off
        self.buffer = np.zeros(self.total, dtype=np.uint8) if data_mode else None
        # Small out-of-band flag store for light-weight synchronization
        # experiments (shared atomic counters, one cache line each).
        self.flags: dict[str, int] = {}


class SharedWindow:
    """Per-rank handle on a node-shared memory window."""

    __slots__ = ("_shared", "comm", "rank")

    def __init__(self, shared: _WindowShared, comm: Any, rank: int):
        self._shared = shared
        self.comm = comm
        self.rank = rank

    # -- queries (MPI_Win_shared_query) ------------------------------------
    @property
    def node(self) -> int:
        """Node the window lives on."""
        return self._shared.node

    @property
    def total_bytes(self) -> int:
        """Total window size across all contributing ranks."""
        return self._shared.total

    def size_of(self, rank: int) -> int:
        """Bytes contributed by *rank* (comm rank)."""
        return self._shared.sizes[rank]

    def offset_of(self, rank: int) -> int:
        """Byte offset of *rank*'s segment in the contiguous window."""
        return self._shared.offsets[rank]

    def segment(self, rank: int, dtype: Any = np.uint8) -> np.ndarray | None:
        """Direct view of *rank*'s segment (None in model mode).

        This is the load/store access path: mutations are visible to all
        window members immediately (data integrity is the caller's
        problem — that is the paper's synchronization discussion)."""
        buf = self._shared.buffer
        if buf is None:
            return None
        lo = self._shared.offsets[rank]
        hi = lo + self._shared.sizes[rank]
        seg = buf[lo:hi]
        return seg.view(dtype)

    def whole(self, dtype: Any = np.uint8) -> np.ndarray | None:
        """View of the entire contiguous window (leader's perspective)."""
        buf = self._shared.buffer
        if buf is None:
            return None
        return buf.view(dtype)

    # -- cost-model hooks -----------------------------------------------------
    def touch(self, nbytes: int):
        """Coroutine: charge one pass over *nbytes* of the shared window
        through the node's contended memory system (the toucher's
        socket channel on multi-socket nodes)."""
        ctx = self.comm.ctx
        machine = ctx.machine
        return machine.shared_touch(
            self._shared.node, nbytes, machine.socket_of(ctx.world_rank)
        )

    # -- flag store (light-weight sync substrate) ------------------------------
    def flag_read(self, name: str) -> int:
        """Read a shared flag (zero when never written)."""
        return self._shared.flags.get(name, 0)

    def flag_write(self, name: str, value: int) -> None:
        """Write a shared flag (a one-cache-line store)."""
        self._shared.flags[name] = value

    def flag_add(self, name: str, delta: int = 1) -> int:
        """Atomically add to a shared flag; returns the new value."""
        new = self._shared.flags.get(name, 0) + delta
        self._shared.flags[name] = new
        return new

    def __repr__(self) -> str:
        return (
            f"<SharedWindow node={self.node} total={self.total_bytes}B "
            f"ranks={len(self._shared.sizes)}>"
        )


def win_allocate_shared(comm, nbytes: int):
    """Coroutine: collectively allocate a shared window over *comm*.

    Every member of *comm* must reside on one node.  Returns the
    per-rank :class:`SharedWindow` handle.
    """
    if nbytes < 0:
        raise WindowError("window size must be non-negative")
    # The node is the same for every member: checked once per comm.
    node = comm.shared_cache.get("_shm_node")
    if node is None:
        placement = comm.ctx.placement
        nodes = {placement.node_of(w) for w in comm.group.world_ranks()}
        if len(nodes) != 1:
            raise WindowError(
                f"win_allocate_shared requires a single-node communicator; "
                f"got ranks on nodes {sorted(nodes)}"
            )
        node = comm.shared_cache["_shm_node"] = nodes.pop()
    data_mode = comm.ctx.data_mode

    def reducer(values: dict[int, int]) -> dict[int, Any]:
        sizes = [int(values[r]) for r in range(len(values))]
        shared = _WindowShared(node, sizes, data_mode)
        return {r: shared for r in values}

    # The gate is a rendezvous over all members: at trace detail "p2p"
    # the wait for the slowest member shows up as its own span.
    tracer = comm.ctx.trace
    span = None
    if tracer is not None and tracer.wants("p2p"):
        span = tracer.begin({
            "t": comm.ctx.engine.now,
            "rank": comm.ctx.world_rank,
            "comm": comm.name,
            "kind": "shm",
            "op": "win_allocate",
            "nbytes": int(nbytes),
        })
    shared = yield from comm._gate("win_allocate_shared", int(nbytes), reducer)
    if span is not None:
        tracer.end(span, comm.ctx.engine.now)
    return SharedWindow(shared, comm, comm.rank)
