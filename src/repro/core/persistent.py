"""Persistent hybrid collectives (MPI-4-style plans).

The paper stresses that hierarchy splitting, window allocation, and the
displacement bookkeeping of the bridge ``MPI_Allgatherv`` are *one-offs*
amortized across repeated invocations (Fig 4's commentary).  MPI-4
formalizes exactly this with persistent collectives
(``MPI_Allgatherv_init`` + ``MPI_Start``).  :class:`AllgatherPlan` and
:class:`BcastPlan` package the hybrid equivalents: construction does all
the one-off work; :meth:`~AllgatherPlan.start` is the cheap repeated
part.

Example
-------
::

    ctx = yield from HybridContext.create(comm)
    plan = yield from AllgatherPlan.build(ctx, nbytes_per_rank=4096)
    for _ in range(iterations):
        write_my_slot(plan.buf)
        yield from plan.start()
        consume(plan.buf.node_view(np.float64))
"""

from __future__ import annotations

from repro.core.shared_buffer import SharedBuffer
from repro.core.sync import SyncPolicy

__all__ = ["AllgatherPlan", "BcastPlan"]


class AllgatherPlan:
    """A prepared hybrid allgather: fixed buffer, sync policy, options."""

    __slots__ = ("ctx", "buf", "sync", "pipelined", "chunk_bytes", "starts")

    def __init__(self, ctx, buf: SharedBuffer, sync: SyncPolicy | None,
                 pipelined: bool, chunk_bytes: int):
        self.ctx = ctx
        self.buf = buf
        self.sync = sync
        self.pipelined = pipelined
        self.chunk_bytes = chunk_bytes
        self.starts = 0

    @classmethod
    def build(cls, ctx, nbytes_per_rank: int | None = None,
              nbytes_by_rank: list[int] | None = None,
              sync: SyncPolicy | None = None,
              pipelined: bool = False,
              chunk_bytes: int = 128 * 1024):
        """Coroutine: perform all one-off work and return the plan.

        Pass either ``nbytes_per_rank`` (regular) or ``nbytes_by_rank``
        (irregular).
        """
        if (nbytes_per_rank is None) == (nbytes_by_rank is None):
            raise ValueError(
                "pass exactly one of nbytes_per_rank / nbytes_by_rank"
            )
        if nbytes_per_rank is not None:
            buf = yield from ctx.allgather_buffer(nbytes_per_rank)
        else:
            buf = yield from ctx.allgatherv_buffer(nbytes_by_rank)
        return cls(ctx, buf, sync, pipelined, chunk_bytes)

    def start(self):
        """Coroutine: one execution of the planned allgather."""
        self.starts += 1
        yield from self.ctx.allgather(
            self.buf, sync=self.sync,
            pipelined=self.pipelined, chunk_bytes=self.chunk_bytes,
        )

    def __repr__(self) -> str:
        return (
            f"AllgatherPlan(total={self.buf.total_nbytes}B, "
            f"starts={self.starts})"
        )


class BcastPlan:
    """A prepared hybrid broadcast: fixed buffer/root/sync."""

    __slots__ = ("ctx", "buf", "root", "sync", "starts")

    def __init__(self, ctx, buf: SharedBuffer, root: int,
                 sync: SyncPolicy | None):
        self.ctx = ctx
        self.buf = buf
        self.root = root
        self.sync = sync
        self.starts = 0

    @classmethod
    def build(cls, ctx, nbytes: int, root: int = 0,
              sync: SyncPolicy | None = None):
        """Coroutine: allocate the shared region and return the plan."""
        buf = yield from ctx.bcast_buffer(nbytes)
        return cls(ctx, buf, root, sync)

    def start(self):
        """Coroutine: one execution of the planned broadcast."""
        self.starts += 1
        yield from self.ctx.bcast(self.buf, root=self.root, sync=self.sync)

    def __repr__(self) -> str:
        return (
            f"BcastPlan(total={self.buf.total_nbytes}B, root={self.root}, "
            f"starts={self.starts})"
        )
