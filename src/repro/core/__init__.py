"""Hybrid MPI+MPI collectives — the paper's contribution.

This package implements the ICPP'19 approach: collectives that keep
**one copy of replicated data per node** in an MPI-3 shared-memory
window, exchange data across nodes only between per-node *leaders* over
a *bridge communicator*, and synchronize on-node readers with explicit
barriers (or light-weight shared flags).

Public API
----------

* :class:`HybridContext` — one-off setup (paper Fig 4 lines 2-20):
  shared-memory + bridge communicator splitting, window allocation with
  caching.  Build with ``ctx = yield from HybridContext.create(comm)``.
* ``ctx.allgather_buffer(nbytes)`` / ``yield from ctx.allgather(buf)`` —
  hybrid allgather(v) (Fig 4 lines 21-40).
* ``ctx.bcast_buffer(nbytes)`` / ``yield from ctx.bcast(buf, root)`` —
  hybrid broadcast (Fig 6).
* Extensions in the same style: ``allreduce`` (the journal version's
  third collective) and ``alltoall``; pipelined large-message bridge
  exchange (:mod:`repro.core.pipeline`, paper §7); non-SMP rank
  placement support via the node-sorted rank array
  (:mod:`repro.core.placement`, §6).
* Synchronization policies (:mod:`repro.core.sync`): heavy-weight
  :class:`BarrierSync` (the paper's default) and light-weight
  :class:`FlagSync` (§6/§7 discussion).

Example
-------
::

    def program(mpi):
        ctx = yield from HybridContext.create(mpi.world)
        buf = yield from ctx.allgather_buffer(8 * COUNT)
        local = buf.local_view(np.float64)   # my slot, shared storage
        if local is not None:
            local[:] = mpi.world.rank
        yield from ctx.allgather(buf)
        full = buf.node_view(np.float64)     # whole result, zero copies
"""

from repro.core.allgather import hy_allgather, hy_allgatherv
from repro.core.alltoall import hy_alltoall
from repro.core.bcast import hy_bcast
from repro.core.hierarchy import HybridContext
from repro.core.placement import NodeSortedLayout
from repro.core.reduce import hy_allreduce
from repro.core.shared_buffer import SharedBuffer
from repro.core.sync import BarrierSync, FlagSync, SyncPolicy

__all__ = [
    "BarrierSync",
    "FlagSync",
    "HybridContext",
    "NodeSortedLayout",
    "SharedBuffer",
    "SyncPolicy",
    "hy_allgather",
    "hy_allgatherv",
    "hy_allreduce",
    "hy_alltoall",
    "hy_bcast",
]
