"""Inter-node network topologies.

A :class:`Topology` answers one question for the cost model: how many
router hops separate two nodes?  Every count is closed form, from the
node ids alone; a pair on the same node is 0 hops and a pair sharing a
router is 1.  Four concrete topologies are provided, matching the
evaluation platforms of the paper plus a torus for ablations:

* :class:`DragonflyTopology` — Cray Aries-style: nodes attach to routers,
  routers form all-to-all *groups*, groups are connected all-to-all by
  one global link between their gateways (each group's lowest router).
  Minimal routing gives 1-4 hops.
* :class:`FatTreeTopology` — InfiniBand-style 2-level fat tree (leaf and
  spine).  Same-leaf pairs are 1 hop; otherwise 3 (leaf-spine-leaf).
* :class:`FlatTopology` — uniform hop count; useful for calibration and
  unit tests.
* :class:`TorusTopology` — n-dimensional torus, for ablation studies.

These hop counts are what :class:`repro.machine.network.NetworkModel`
charges per message and what :mod:`repro.analysis.model` prices as a
placement's worst pair (:meth:`Topology.diameter_hops`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = [
    "TOPOLOGY_KINDS",
    "Topology",
    "FlatTopology",
    "DragonflyTopology",
    "FatTreeTopology",
    "TorusTopology",
    "topology_for",
]


class Topology(ABC):
    """Abstract base: hop counts between compute nodes ``0..num_nodes-1``."""

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.num_nodes = num_nodes

    def hops(self, src: int, dst: int) -> int:
        """Router hops between two compute nodes (0 if same node)."""
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0
        return self._pair_hops(src, dst)

    @abstractmethod
    def _pair_hops(self, src: int, dst: int) -> int:
        """Hops between two distinct, in-range nodes."""

    @abstractmethod
    def diameter_hops(self) -> int:
        """Maximum of :meth:`hops` over all node pairs (0 for one node)."""

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"node {node} out of range for {self.num_nodes}-node topology"
            )


class FlatTopology(Topology):
    """Every distinct pair of nodes is exactly ``uniform_hops`` apart."""

    def __init__(self, num_nodes: int, uniform_hops: int = 2):
        super().__init__(num_nodes)
        if uniform_hops < 1:
            raise ValueError("uniform_hops must be >= 1")
        self.uniform_hops = uniform_hops

    def _pair_hops(self, src: int, dst: int) -> int:
        return self.uniform_hops

    def diameter_hops(self) -> int:
        return self.uniform_hops if self.num_nodes > 1 else 0


class DragonflyTopology(Topology):
    """Aries-like dragonfly: all-to-all router groups, all-to-all groups.

    Parameters
    ----------
    num_nodes:
        Compute nodes in the system.
    nodes_per_router:
        Compute nodes attached to each router (Aries: 4).
    routers_per_group:
        Routers forming one all-to-all group (Aries: 96; smaller values
        keep test systems tiny while preserving the 1/2/3/4-hop
        structure).
    """

    def __init__(
        self,
        num_nodes: int,
        nodes_per_router: int = 4,
        routers_per_group: int = 16,
    ):
        super().__init__(num_nodes)
        if nodes_per_router < 1 or routers_per_group < 1:
            raise ValueError("nodes_per_router/routers_per_group must be >= 1")
        self.nodes_per_router = nodes_per_router
        self.routers_per_group = routers_per_group

    @property
    def num_routers(self) -> int:
        return -(-self.num_nodes // self.nodes_per_router)

    @property
    def num_groups(self) -> int:
        return -(-self.num_routers // self.routers_per_group)

    def _pair_hops(self, src: int, dst: int) -> int:
        a = src // self.nodes_per_router
        b = dst // self.nodes_per_router
        if a == b:
            return 1
        rpg = self.routers_per_group
        if a // rpg == b // rpg:
            return 2  # one local link
        # local link to the gateway (unless at it), the global link,
        # local link from the far gateway (unless at it).
        return 2 + (a % rpg > 0) + (b % rpg > 0)

    def diameter_hops(self) -> int:
        if self.num_nodes == 1:
            return 0
        if self.num_routers == 1:
            return 1
        groups = self.num_groups
        if groups == 1:
            return 2
        # A cross-group pair adds a hop per end off its group's gateway;
        # count the groups that have a router other than their gateway.
        last = self.num_routers - (groups - 1) * self.routers_per_group
        off_gateway = (groups - 1) * (self.routers_per_group > 1) + (last > 1)
        return 2 + min(2, off_gateway)


class FatTreeTopology(Topology):
    """Two-level fat tree: leaf switches + fully-connected spine layer."""

    def __init__(self, num_nodes: int, leaf_radix: int = 24, num_spines: int = 4):
        super().__init__(num_nodes)
        if leaf_radix < 1 or num_spines < 1:
            raise ValueError("leaf_radix/num_spines must be >= 1")
        self.leaf_radix = leaf_radix
        self.num_spines = num_spines

    @property
    def num_leaves(self) -> int:
        return -(-self.num_nodes // self.leaf_radix)

    def _pair_hops(self, src: int, dst: int) -> int:
        return 1 if src // self.leaf_radix == dst // self.leaf_radix else 3

    def diameter_hops(self) -> int:
        if self.num_nodes == 1:
            return 0
        return 1 if self.num_leaves == 1 else 3


class TorusTopology(Topology):
    """N-dimensional torus with dimension-ordered shortest-path hops."""

    def __init__(self, dims: tuple[int, ...]):
        self.dims = tuple(int(d) for d in dims)
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("dims must be non-empty positive integers")
        num_nodes = 1
        for d in self.dims:
            num_nodes *= d
        super().__init__(num_nodes)

    def coords(self, node: int) -> tuple[int, ...]:
        """Multi-dimensional coordinates of *node*."""
        self._check(node)
        out = []
        rem = node
        for d in reversed(self.dims):
            out.append(rem % d)
            rem //= d
        return tuple(reversed(out))

    def _pair_hops(self, src: int, dst: int) -> int:
        a, b = self.coords(src), self.coords(dst)
        total = 0
        for x, y, d in zip(a, b, self.dims):
            delta = abs(x - y)
            total += min(delta, d - delta)
        return total + 1  # +1 for the injection hop

    def diameter_hops(self) -> int:
        if self.num_nodes == 1:
            return 0
        return sum(d // 2 for d in self.dims) + 1


_KINDS: dict[str, type[Topology]] = {
    "flat": FlatTopology,
    "dragonfly": DragonflyTopology,
    "fattree": FatTreeTopology,
}

#: The ``MachineSpec.topology_kind`` values :func:`topology_for` builds.
TOPOLOGY_KINDS = tuple(_KINDS)


def topology_for(kind: str, num_nodes: int) -> Topology:
    """The default topology of a ``MachineSpec.topology_kind`` over
    *num_nodes* nodes, with each class's default parameters.

    >>> topology_for("fattree", 48).diameter_hops()
    3
    """
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown topology_kind {kind!r}") from None
    return cls(num_nodes)
