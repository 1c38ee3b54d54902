"""Node-shared result buffers for the hybrid collectives.

A :class:`SharedBuffer` is the "one copy per node" of the paper: an
MPI-3 shared window (allocated entirely by the node leader, children
contribute zero bytes — paper Fig 4 line 13) plus the slot bookkeeping
that gives every rank a *local pointer* to its own partition (Fig 4
line 21) and zero-copy read access to everyone else's.

Slots are laid out node-major according to a
:class:`~repro.core.placement.NodeSortedLayout`, which is the identity
for SMP-style placement and the §6 node-sorted permutation otherwise, so
a node's contribution is always one contiguous region — the precondition
for the leader's single ``MPI_Allgatherv`` on the bridge communicator.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any

import numpy as np

from repro.core.placement import NodeSortedLayout
from repro.mpi.datatypes import Bytes
from repro.mpi.shm import SharedWindow

__all__ = ["SharedBuffer"]


class SharedBuffer:
    """One node-shared buffer with per-rank slots.

    Parameters
    ----------
    win:
        The node's shared window (full global size at the leader).
    layout:
        Node-major slot layout of the parent communicator.
    slot_sizes:
        Bytes per slot, indexed by *slot* (node-major order); kept as a
        tuple fixed at allocation (the replay layer keys on it as is).
    my_rank:
        This rank's parent-comm rank.
    node:
        This rank's node id.
    data_mode:
        Whether the window carries real memory.
    slot_offsets:
        Byte offset per slot when the caller has them already (the
        ranks of a communicator share one tuple).
    """

    __slots__ = (
        "win", "layout", "slot_sizes", "slot_offsets", "my_rank", "node",
        "data_mode", "total_nbytes",
    )

    def __init__(
        self,
        win: SharedWindow,
        layout: NodeSortedLayout,
        slot_sizes: list[int],
        my_rank: int,
        node: int,
        data_mode: bool,
        slot_offsets: tuple[int, ...] | None = None,
    ):
        if len(slot_sizes) != layout.size:
            raise ValueError("one slot size per rank required")
        self.win = win
        self.layout = layout
        self.slot_sizes = tuple(slot_sizes)
        self.slot_offsets = slot_offsets or (
            0, *accumulate(self.slot_sizes[:-1])
        )
        self.total_nbytes = self.slot_offsets[-1] + self.slot_sizes[-1]
        self.my_rank = my_rank
        self.node = node
        self.data_mode = data_mode

    # -- geometry ---------------------------------------------------------
    @property
    def my_slot(self) -> int:
        """This rank's slot index."""
        return self.layout.slot_of_rank(self.my_rank)

    def slot_of_rank(self, comm_rank: int) -> int:
        """Slot index of any parent-comm rank."""
        return self.layout.slot_of_rank(comm_rank)

    def offset_of_rank(self, comm_rank: int) -> int:
        """Byte offset of *comm_rank*'s slot."""
        return self.slot_offsets[self.layout.slot_of_rank(comm_rank)]

    def size_of_rank(self, comm_rank: int) -> int:
        """Bytes owned by *comm_rank*."""
        return self.slot_sizes[self.layout.slot_of_rank(comm_rank)]

    def node_region(self, node: int) -> tuple[int, int]:
        """(offset, nbytes) of *node*'s contiguous slot region."""
        start_slot = self.layout.node_slot_start(node)
        count = self.layout.node_count(node)
        off = self.slot_offsets[start_slot]
        nbytes = sum(self.slot_sizes[start_slot : start_slot + count])
        return off, nbytes

    @property
    def my_node_region(self) -> tuple[int, int]:
        """(offset, nbytes) of this node's contribution."""
        return self.node_region(self.node)

    # -- views (data mode) ----------------------------------------------------
    def _raw(self) -> np.ndarray | None:
        return self.win.whole(np.uint8)

    def node_view(self, dtype: Any = np.uint8) -> np.ndarray | None:
        """The entire shared result buffer (None in model mode).

        Every on-node rank sees the same storage — reading a neighbour's
        slot is a plain load, not a message."""
        raw = self._raw()
        if raw is None:
            return None
        return raw[: self.total_nbytes].view(dtype)

    def slot_view(self, comm_rank: int, dtype: Any = np.uint8) -> np.ndarray | None:
        """View of one rank's slot (None in model mode)."""
        raw = self._raw()
        if raw is None:
            return None
        off = self.offset_of_rank(comm_rank)
        n = self.size_of_rank(comm_rank)
        return raw[off : off + n].view(dtype)

    def local_view(self, dtype: Any = np.uint8) -> np.ndarray | None:
        """This rank's own slot — the paper's 'local pointer' (Fig 4
        line 21).  Only this rank may write here between syncs."""
        return self.slot_view(self.my_rank, dtype)

    def region_view(self, offset: int, nbytes: int, dtype: Any = np.uint8):
        """Arbitrary byte-region view (used by exchange write-back)."""
        raw = self._raw()
        if raw is None:
            return None
        return raw[offset : offset + nbytes].view(dtype)

    # -- exchange payloads -------------------------------------------------
    def node_payload(self) -> Any:
        """This node's contiguous contribution as a message payload
        (ndarray view in data mode, :class:`Bytes` in model mode)."""
        off, nbytes = self.my_node_region
        raw = self._raw()
        if raw is None:
            return Bytes(nbytes)
        return raw[off : off + nbytes]

    def region_payload(self, offset: int, nbytes: int) -> Any:
        """An arbitrary region as a message payload."""
        raw = self._raw()
        if raw is None:
            return Bytes(nbytes)
        return raw[offset : offset + nbytes]

    def write_region(self, offset: int, payload: Any) -> None:
        """Store a received payload into the window (leader write-back).

        In the real implementation the receive lands directly in the
        window (``recvbuf = r_buf``), so this is bookkeeping, not an
        extra timed copy."""
        raw = self._raw()
        if raw is None or isinstance(payload, Bytes):
            return
        flat = np.asarray(payload).reshape(-1).view(np.uint8)
        raw[offset : offset + flat.size] = flat

    def __repr__(self) -> str:
        return (
            f"SharedBuffer(total={self.total_nbytes}B, slots={len(self.slot_sizes)}, "
            f"node={self.node}, mode={'data' if self.data_mode else 'model'})"
        )
