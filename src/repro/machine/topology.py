"""Inter-node network topologies.

A :class:`Topology` answers one question for the cost model: how many
router-to-router hops separate two nodes?  Three concrete topologies are
provided, matching the evaluation platforms of the paper plus a torus for
ablations:

* :class:`DragonflyTopology` — Cray Aries-style: nodes attach to routers,
  routers form all-to-all *groups*, groups are connected all-to-all by
  global links.  Minimal routing gives 1-5 hops.
* :class:`FatTreeTopology` — InfiniBand-style k-ary fat-tree (2-level:
  leaf and spine).  Same-leaf pairs are 2 hops; otherwise 4.
* :class:`FlatTopology` — uniform hop count; useful for calibration and
  unit tests.
* :class:`TorusTopology` — n-dimensional torus, for ablation studies.

Topologies build an explicit :mod:`networkx` graph; the hop counts of
its minimal routes are what :class:`repro.machine.network.NetworkModel`
charges per message.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod

import networkx as nx

__all__ = [
    "Topology",
    "FlatTopology",
    "DragonflyTopology",
    "FatTreeTopology",
    "TorusTopology",
]


class Topology(ABC):
    """Abstract base: maps node ids to router graph positions."""

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.num_nodes = num_nodes
        self._graph: nx.Graph | None = None
        # (router, router) -> hops, memoized per instance so the cache
        # dies with the topology (and its graph) instead of pinning it.
        self._hops: dict[tuple[object, object], int] = {}

    @property
    def graph(self) -> nx.Graph:
        """The router-level graph (lazily built)."""
        if self._graph is None:
            self._graph = self._build_graph()
        return self._graph

    @abstractmethod
    def _build_graph(self) -> nx.Graph:
        """Construct the router graph; nodes attach via ``attachment``."""

    @abstractmethod
    def attachment(self, node: int) -> object:
        """Router-graph vertex that compute node *node* attaches to."""

    def hops(self, src: int, dst: int) -> int:
        """Router hops between two compute nodes (0 if same node)."""
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0
        return self._router_hops(self.attachment(src), self.attachment(dst))

    def path(self, src: int, dst: int) -> list[tuple[object, object]]:
        """Sequence of router-graph edges a minimally-routed message uses."""
        self._check(src)
        self._check(dst)
        if src == dst:
            return []
        nodes = nx.shortest_path(self.graph, self.attachment(src), self.attachment(dst))
        return list(itertools.pairwise(nodes))

    def _router_hops(self, a: object, b: object) -> int:
        if a == b:
            # Same router: one hop up and down through it, counted as 1.
            return 1
        hops = self._hops.get((a, b))
        if hops is None:
            hops = self._hops[a, b] = (
                nx.shortest_path_length(self.graph, a, b) + 1
            )
        return hops

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"node {node} out of range for {self.num_nodes}-node topology"
            )

    def diameter_hops(self) -> int:
        """Maximum hop count over all node pairs (router diameter + 1)."""
        if self.num_nodes == 1:
            return 0
        return nx.diameter(self.graph) + 1


class FlatTopology(Topology):
    """Every distinct pair of nodes is exactly ``uniform_hops`` apart."""

    def __init__(self, num_nodes: int, uniform_hops: int = 2):
        super().__init__(num_nodes)
        if uniform_hops < 1:
            raise ValueError("uniform_hops must be >= 1")
        self.uniform_hops = uniform_hops

    def _build_graph(self) -> nx.Graph:
        g = nx.Graph()
        g.add_node("switch")
        return g

    def attachment(self, node: int) -> object:
        return "switch"

    def hops(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        return 0 if src == dst else self.uniform_hops

    def path(self, src: int, dst: int) -> list[tuple[object, object]]:
        return []  # single switch: no router-router edges


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
        keep test graphs tiny while preserving the 1/3/5-hop structure).
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

    def _router_of(self, node: int) -> int:
        return node // self.nodes_per_router

    def _group_of_router(self, router: int) -> int:
        return router // self.routers_per_group

    @property
    def num_routers(self) -> int:
        return -(-self.num_nodes // self.nodes_per_router)

    @property
    def num_groups(self) -> int:
        return -(-self.num_routers // self.routers_per_group)

    def _build_graph(self) -> nx.Graph:
        g = nx.Graph()
        routers = range(self.num_routers)
        g.add_nodes_from(routers)
        # Intra-group all-to-all (local links).
        for grp in range(self.num_groups):
            members = [
                r
                for r in routers
                if self._group_of_router(r) == grp
            ]
            for a, b in itertools.combinations(members, 2):
                g.add_edge(a, b, kind="local")
        # Inter-group: connect group g1<->g2 via one deterministic global
        # link between low-indexed routers of each group.
        for g1, g2 in itertools.combinations(range(self.num_groups), 2):
            r1 = min(
                r for r in routers if self._group_of_router(r) == g1
            )
            r2 = min(
                r for r in routers if self._group_of_router(r) == g2
            )
            g.add_edge(r1, r2, kind="global")
        return g

    def attachment(self, node: int) -> object:
        return self._router_of(node)


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

    def _build_graph(self) -> nx.Graph:
        g = nx.Graph()
        leaves = [("leaf", i) for i in range(self.num_leaves)]
        spines = [("spine", i) for i in range(self.num_spines)]
        g.add_nodes_from(leaves)
        g.add_nodes_from(spines)
        for leaf in leaves:
            for spine in spines:
                g.add_edge(leaf, spine, kind="uplink")
        return g

    def attachment(self, node: int) -> object:
        return ("leaf", node // self.leaf_radix)


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

    def _build_graph(self) -> nx.Graph:
        g: nx.Graph = nx.grid_graph(dim=list(reversed(self.dims)), periodic=True)
        return g

    def attachment(self, node: int) -> object:
        # networkx grid_graph uses reversed coordinate order.
        return tuple(reversed(self.coords(node)))

    def hops(self, src: int, dst: int) -> int:
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0
        a, b = self.coords(src), self.coords(dst)
        total = 0
        for x, y, d in zip(a, b, self.dims):
            delta = abs(x - y)
            total += min(delta, d - delta)
        return total + 1  # +1 for the injection hop
