"""Block container used by multi-block collective algorithms.

Allgather-family algorithms move *sets of per-rank blocks* between
processes (recursive doubling doubles the number of blocks carried per
message; ring forwards one block at a time).  :class:`BlockSet` is the
wire format: an immutable-ish map ``owner_rank → payload`` whose
``nbytes`` is the sum of its members — which is exactly what the message
cost model needs in both data and model payload modes.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.mpi.datatypes import Bytes, clone, nbytes_of

__all__ = ["BlockSet"]


class BlockSet:
    """A set of per-rank blocks travelling as one message.

    ``meta`` is an optional small side-channel dict (e.g. origin-rank
    bookkeeping in Bruck all-to-all); it is copied on clone but does not
    contribute to ``nbytes``.

    ``nbytes`` is maintained incrementally: blocks only ever enter via
    the constructor, :meth:`add` or :meth:`merge` (never mutate
    ``blocks`` directly), so the total never needs a rescan — at paper
    scale the allgather algorithms consult it millions of times, and a
    cost-only send can share the owner map (:meth:`sim_snapshot`).
    ``meta`` is never changed after construction.
    """

    __slots__ = ("blocks", "meta", "nbytes", "_shared")

    def __init__(
        self,
        blocks: dict[int, Any] | None = None,
        meta: dict | None = None,
    ):
        self.blocks: dict[int, Any] = dict(blocks) if blocks else {}
        self.meta: dict = dict(meta) if meta else {}
        total = 0
        for p in self.blocks.values():
            total += p.nbytes if type(p) is Bytes else nbytes_of(p)
        #: Total payload bytes across all blocks — a plain slot (not a
        #: property) because the size oracle reads it millions of times.
        self.nbytes = total
        self._shared = False  # blocks is another set's too: copy to change

    @classmethod
    def single(cls, owner: int, payload: Any) -> "BlockSet":
        """One-block set without the constructor's copy/rescan (the
        shape every ring/doubling round starts from)."""
        new = cls.__new__(cls)
        new.blocks = {owner: payload}
        new.meta = {}
        new.nbytes = (
            payload.nbytes if type(payload) is Bytes else nbytes_of(payload)
        )
        new._shared = False
        return new

    @classmethod
    def of(cls, blocks: dict[int, Any], nbytes: int) -> "BlockSet":
        """A set over *blocks* itself, whose members total *nbytes*."""
        new = cls.__new__(cls)
        new.blocks = blocks
        new.meta = {}
        new.nbytes = nbytes
        new._shared = False
        return new

    def sim_clone(self) -> "BlockSet":
        """Deep snapshot (value semantics at send time)."""
        new = BlockSet.__new__(BlockSet)
        # Bytes markers are immutable — share them instead of a per-member
        # clone() dispatch (the dominant cost of model-mode sends).
        new.blocks = {
            r: (p if type(p) is Bytes else clone(p))
            for r, p in self.blocks.items()
        }
        new.meta = dict(self.meta)
        new.nbytes = self.nbytes
        new._shared = False
        return new

    def sim_snapshot(self) -> "BlockSet":
        """Shallow snapshot for cost-only sends: a set over the same
        owner map and member payloads.  Whichever of the two is changed
        next copies the map first, so the receiver never sees the
        sender's post-send ``add``/``merge``, and a set its sender drops
        or only forwards is never copied."""
        new = BlockSet.__new__(BlockSet)
        new.blocks = self.blocks
        new.meta = self.meta
        new.nbytes = self.nbytes
        new._shared = self._shared = True
        return new

    def add(self, owner: int, payload: Any) -> None:
        """Insert a block, refusing silent overwrite of a different one."""
        if self._shared:  # copy-on-write
            self.blocks, self._shared = dict(self.blocks), False
        if owner in self.blocks:
            raise KeyError(f"block for rank {owner} already present")
        self.blocks[owner] = payload
        self.nbytes += nbytes_of(payload)

    def merge(self, other: "BlockSet") -> None:
        """Union another block set into this one."""
        if self._shared:  # copy-on-write
            self.blocks, self._shared = dict(self.blocks), False
        blocks = self.blocks
        others = other.blocks
        # The common case (ring/recursive-doubling rounds) is a disjoint
        # union — one keys-intersection test then a bulk update, reusing
        # the other set's running total instead of per-block sizing.
        if not blocks:
            blocks.update(others)
            self.nbytes = other.nbytes
            return
        if blocks.keys().isdisjoint(others):
            blocks.update(others)
            self.nbytes += other.nbytes
            return
        added = 0
        for owner, payload in others.items():
            if owner not in blocks:
                blocks[owner] = payload
                added += nbytes_of(payload)
        self.nbytes += added

    def subset(self, owners: list[int]) -> "BlockSet":
        """New :class:`BlockSet` holding only *owners* (must be present)."""
        return BlockSet({o: self.blocks[o] for o in owners})

    def owners(self) -> list[int]:
        """Owner ranks present, ascending."""
        return sorted(self.blocks)

    def __contains__(self, owner: int) -> bool:
        return owner in self.blocks

    def __getitem__(self, owner: int) -> Any:
        return self.blocks[owner]

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.blocks))

    def as_list(self, size: int) -> list[Any]:
        """Blocks ordered 0..size-1 (all must be present)."""
        blocks = self.blocks
        try:
            return [blocks[r] for r in range(size)]
        except KeyError:
            missing = [r for r in range(size) if r not in blocks]
            raise KeyError(
                f"missing blocks for ranks {missing[:8]}"
            ) from None

    def __repr__(self) -> str:
        return f"BlockSet(owners={self.owners()[:8]}, nbytes={self.nbytes})"
