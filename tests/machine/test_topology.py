"""Unit tests for network topologies."""

from __future__ import annotations

import itertools

import pytest

from repro.machine import (
    DragonflyTopology,
    FatTreeTopology,
    FlatTopology,
    TorusTopology,
)


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

    def test_path_edges_connect(self):
        topo = DragonflyTopology(32, nodes_per_router=4, routers_per_group=2)
        path = topo.path(0, 31)
        assert path, "distinct routers must have a path"
        for (a, b), (c, _d) in itertools.pairwise(path):
            assert b == c, "path edges must chain"


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
        import networkx as nx

        for a in range(9):
            for b in range(9):
                if a == b:
                    continue
                expected = (
                    nx.shortest_path_length(
                        topo.graph, topo.attachment(a), topo.attachment(b)
                    )
                    + 1
                )
                assert topo.hops(a, b) == expected, (a, b)


class TestHopMemo:
    """The hop memo lives on the instance, not on the class."""

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
        import networkx as nx

        topo = DragonflyTopology(32, nodes_per_router=4, routers_per_group=2)
        other = DragonflyTopology(32, nodes_per_router=2, routers_per_group=4)
        for _ in range(2):  # second pass is served from the memo
            for t in (topo, other):
                for a, b in itertools.permutations(range(0, 32, 3), 2):
                    ra, rb = t.attachment(a), t.attachment(b)
                    expected = 1 if ra == rb else (
                        nx.shortest_path_length(t.graph, ra, rb) + 1
                    )
                    assert t.hops(a, b) == expected, (a, b)
