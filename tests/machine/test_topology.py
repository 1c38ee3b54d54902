"""Unit tests for network topologies.

The closed-form hop counts are checked against an explicit router graph
(:func:`_graph`, built with networkx): a pair on one router is 1 hop,
otherwise the graph distance between the two routers plus 1.
"""

from __future__ import annotations

import itertools

import pytest

from repro.machine import (
    DragonflyTopology,
    FatTreeTopology,
    FlatTopology,
    TorusTopology,
)
from repro.machine.topology import topology_for


def _graph(topo):
    """The router graph of *topo* and the router each node attaches to.

    Dragonfly: all-to-all groups of ``routers_per_group`` routers, and
    one global link per group pair between the groups' lowest routers.
    Fat tree: every leaf linked to every spine.  Torus: the periodic
    grid.
    """
    import networkx as nx

    g = nx.Graph()
    if isinstance(topo, DragonflyTopology):
        routers = list(range(topo.num_routers))
        rpg = topo.routers_per_group
        groups = [routers[i:i + rpg] for i in range(0, len(routers), rpg)]
        g.add_nodes_from(routers)
        for members in groups:
            g.add_edges_from(itertools.combinations(members, 2))
        for m1, m2 in itertools.combinations(groups, 2):
            g.add_edge(m1[0], m2[0])
        return g, lambda node: node // topo.nodes_per_router
    if isinstance(topo, FatTreeTopology):
        leaves = [("leaf", i) for i in range(topo.num_leaves)]
        spines = [("spine", i) for i in range(topo.num_spines)]
        g.add_nodes_from(leaves + spines)
        g.add_edges_from(itertools.product(leaves, spines))
        return g, lambda node: ("leaf", node // topo.leaf_radix)
    if isinstance(topo, TorusTopology):
        # grid_graph labels a node by its coordinates in reversed *dim*
        # order, and by a plain int in one dimension.
        g = nx.grid_graph(dim=list(reversed(topo.dims)), periodic=True)
        if len(topo.dims) == 1:
            return g, lambda node: node
        return g, topo.coords
    raise TypeError(f"no router graph for {type(topo).__name__}")


def _graph_hops(topo):
    """Oracle ``hops(a, b)`` over :func:`_graph` (all pairs at once)."""
    import networkx as nx

    g, attach = _graph(topo)
    dist = dict(nx.all_pairs_shortest_path_length(g))

    def hops(a, b):
        if a == b:
            return 0
        ra, rb = attach(a), attach(b)
        return 1 if ra == rb else dist[ra][rb] + 1
    return hops


#: Dragonfly shapes across one router, one group and two to five groups
#: (a last group of one router included), fat trees from one node per
#: leaf to the default radix, and five torus shapes.
GRID = [
    *(DragonflyTopology(n, npr, rpg)
      for n in range(1, 70) for npr in (1, 2, 4) for rpg in (1, 2, 3, 16)),
    *(FatTreeTopology(n, leaf_radix=radix, num_spines=2)
      for n in range(1, 70) for radix in (1, 5, 24)),
    *(TorusTopology(dims)
      for dims in ((8,), (3, 3), (2, 5), (4, 4), (2, 3, 3))),
]


class TestFlat:
    def test_same_node_zero_hops(self):
        topo = FlatTopology(8)
        assert topo.hops(3, 3) == 0

    def test_uniform_hops(self):
        topo = FlatTopology(8, uniform_hops=2)
        assert all(
            topo.hops(a, b) == 2
            for a, b in itertools.combinations(range(8), 2)
        )

    def test_bounds_checked(self):
        topo = FlatTopology(4)
        with pytest.raises(ValueError):
            topo.hops(0, 4)
        with pytest.raises(ValueError):
            topo.hops(-1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlatTopology(0)
        with pytest.raises(ValueError):
            FlatTopology(4, uniform_hops=0)


class TestDragonfly:
    def test_same_router_one_hop(self):
        topo = DragonflyTopology(16, nodes_per_router=4, routers_per_group=2)
        # nodes 0-3 share router 0
        assert topo.hops(0, 3) == 1

    def test_same_group_two_hops(self):
        topo = DragonflyTopology(16, nodes_per_router=4, routers_per_group=2)
        # nodes 0 (router 0) and 4 (router 1), same group: local link
        assert topo.hops(0, 4) == 2

    def test_cross_group_more_hops(self):
        topo = DragonflyTopology(32, nodes_per_router=4, routers_per_group=2)
        # node 0 in group 0, node 16 in group 2
        assert topo.hops(0, 16) >= 2

    def test_symmetry(self):
        topo = DragonflyTopology(24, nodes_per_router=4, routers_per_group=2)
        for a, b in itertools.combinations(range(0, 24, 5), 2):
            assert topo.hops(a, b) == topo.hops(b, a)

    def test_diameter_bounded(self):
        # Dragonfly minimal routing: local-global-local <= 5 hops.
        topo = DragonflyTopology(64, nodes_per_router=4, routers_per_group=4)
        assert topo.diameter_hops() <= 5


class TestFatTree:
    def test_same_leaf(self):
        topo = FatTreeTopology(48, leaf_radix=24, num_spines=2)
        assert topo.hops(0, 23) == 1  # same leaf switch

    def test_cross_leaf(self):
        topo = FatTreeTopology(48, leaf_radix=24, num_spines=2)
        assert topo.hops(0, 24) == 3  # leaf-spine-leaf

    def test_num_leaves(self):
        topo = FatTreeTopology(50, leaf_radix=24)
        assert topo.num_leaves == 3


class TestTorus:
    def test_coords_roundtrip(self):
        topo = TorusTopology((3, 4))
        assert topo.num_nodes == 12
        assert topo.coords(0) == (0, 0)
        assert topo.coords(5) == (1, 1)
        assert topo.coords(11) == (2, 3)

    def test_wraparound_shortens_path(self):
        topo = TorusTopology((8,))
        # 0 -> 7 wraps: 1 dimension hop + injection
        assert topo.hops(0, 7) == 2
        assert topo.hops(0, 4) == 5

    def test_multidim_manhattan(self):
        topo = TorusTopology((4, 4))
        # (0,0) -> (1,1): 2 dim hops + 1 injection
        assert topo.hops(0, 5) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TorusTopology(())
        with pytest.raises(ValueError):
            TorusTopology((0, 4))

    def test_matches_graph_distance(self):
        topo = TorusTopology((3, 3))
        expected = _graph_hops(topo)
        for a in range(9):
            for b in range(9):
                if a == b:
                    continue
                assert topo.hops(a, b) == expected(a, b), (a, b)


class TestHopMemo:
    """Hop counts are derived per call; nothing is kept per instance."""

    def test_topology_is_collectable_after_hops(self):
        import gc
        import weakref

        topo = DragonflyTopology(32, nodes_per_router=4, routers_per_group=2)
        topo.hops(0, 31)
        ref = weakref.ref(topo)
        del topo
        gc.collect()
        assert ref() is None

    def test_memoized_hops_match_graph_distance(self):
        topo = DragonflyTopology(32, nodes_per_router=4, routers_per_group=2)
        other = DragonflyTopology(32, nodes_per_router=2, routers_per_group=4)
        for t in (topo, other, *GRID):
            expected = _graph_hops(t)
            nodes = range(t.num_nodes)
            assert [[t.hops(a, b) for b in nodes] for a in nodes] == [
                [expected(a, b) for b in nodes] for a in nodes
            ], vars(t)


#: Each kind at its defaults and at other router, group, leaf and torus
#: sizes, as a function of the node count.
SHAPES = {
    "flat": FlatTopology,
    "flat-3": lambda n: FlatTopology(n, uniform_hops=3),
    "dragonfly": DragonflyTopology,
    "dragonfly-1x3": lambda n: DragonflyTopology(n, 1, 3),
    "dragonfly-2x1": lambda n: DragonflyTopology(n, 2, 1),
    "fattree": FatTreeTopology,
    "fattree-5": lambda n: FatTreeTopology(n, leaf_radix=5),
    "torus-n": lambda n: TorusTopology((n,)),
    "torus-2xn": lambda n: TorusTopology((2, n)),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_diameter_is_the_worst_pair(shape):
    for n in (1, 2, 4, 5, 7, 24, 25, 64, 65, 69):
        topo = SHAPES[shape](n)
        nodes = range(topo.num_nodes)
        worst = max(topo.hops(a, b)
                    for a, b in itertools.product(nodes, repeat=2))
        assert topo.diameter_hops() == worst, n


def test_topology_for_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown topology_kind"):
        topology_for("ring", 4)
