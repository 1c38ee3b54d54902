"""Tests of the SMP-aware (leader-based) collective wrappers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import Placement
from repro.mpi import Bytes
from repro.mpi.collectives.hierarchical import (
    hier_allgather,
    hier_bcast,
    hier_comms,
    multileader_allgather,
)
from repro.mpi.collectives.registry import bridge_allgatherv
from repro.mpi.constants import ReduceOp
from tests.helpers import returns_of

TAG = 2**28 + 77


def _bridge(bridge, blocks, tag):
    total = blocks.nbytes * bridge.size if blocks is not None else 0
    result = yield from bridge_allgatherv(bridge, blocks, tag, total)
    return result


class TestHierComms:
    def test_leader_has_bridge(self):
        def prog(mpi):
            shm, bridge = hier_comms(mpi.world)
            return (shm.size, bridge.size if bridge else None)
            yield  # a rank program is a generator

        rets = returns_of(prog, nodes=3, cores=2)
        assert rets[0] == (2, 3)     # leader of node 0: bridge of 3 leaders
        assert rets[1] == (2, None)  # child: no bridge handle
        assert rets[4] == (2, 3)     # leader of node 2
        assert rets[5] == (2, None)

    def test_cache_returns_same_comms(self):
        def prog(mpi):
            a = hier_comms(mpi.world)
            b = hier_comms(mpi.world)
            return a[0] is b[0] and a[1] is b[1]
            yield  # a rank program is a generator

        assert all(returns_of(prog, nodes=2, cores=2))


class TestHierAllgather:
    @pytest.mark.parametrize("nodes,cores", [(2, 2), (2, 3), (3, 4)])
    def test_values_complete_and_ordered(self, nodes, cores):
        def prog(mpi):
            comm = mpi.world
            full = yield from hier_allgather(
                comm, np.array([float(comm.rank)]), TAG, _bridge
            )
            return [
                float(np.asarray(b)[0]) for b in full.as_list(comm.size)
            ]

        rets = returns_of(prog, nodes=nodes, cores=cores)
        expected = [float(r) for r in range(nodes * cores)]
        assert all(r == expected for r in rets)

    def test_irregular_population(self):
        placement = Placement.irregular([3, 1, 2])

        def prog(mpi):
            comm = mpi.world
            full = yield from hier_allgather(
                comm, np.array([float(comm.rank * 2)]), TAG, _bridge
            )
            return [
                float(np.asarray(b)[0]) for b in full.as_list(comm.size)
            ]

        rets = returns_of(prog, nodes=3, cores=4, placement=placement)
        expected = [float(r * 2) for r in range(6)]
        assert all(r == expected for r in rets)

    def test_works_on_subcommunicator(self):
        # Hierarchy of a *row* communicator spanning 2 nodes.
        def prog(mpi):
            comm = mpi.world
            row = yield from comm.split(color=comm.rank % 2, key=comm.rank)
            full = yield from hier_allgather(
                row, np.array([float(comm.rank)]), TAG, _bridge
            )
            return [float(np.asarray(b)[0]) for b in full.as_list(row.size)]

        rets = returns_of(prog, nodes=2, cores=4)
        # row 0 holds world ranks 0,2,4,6; row 1 holds 1,3,5,7
        assert rets[0] == [0.0, 2.0, 4.0, 6.0]
        assert rets[1] == [1.0, 3.0, 5.0, 7.0]


class TestHierBcast:
    def _flat_bcast(self, bridge, payload, root, tag):
        from repro.mpi.collectives.bcast import bcast_binomial

        result = yield from bcast_binomial(bridge, payload, root, tag)
        return result

    @pytest.mark.parametrize("root", [0, 1, 5])
    def test_roots_leader_and_child(self, root):
        flat = self._flat_bcast

        def prog(mpi):
            comm = mpi.world
            payload = (
                np.arange(3.0) + root if comm.rank == root else np.empty(3)
            )
            out = yield from hier_bcast(comm, payload, root, TAG, flat)
            return list(np.asarray(out).reshape(-1))

        rets = returns_of(prog, nodes=2, cores=3)
        assert all(r == [root, root + 1, root + 2] for r in rets)


class TestHierReductions:
    def test_reduce_via_dispatch(self):
        def prog(mpi):
            comm = mpi.world
            out = yield from comm.reduce(
                np.array([1.0]), ReduceOp.SUM, root=3
            )
            return None if out is None else float(np.asarray(out)[0])

        rets = returns_of(prog, nodes=2, cores=3)
        assert rets[3] == 6.0
        assert all(r is None for i, r in enumerate(rets) if i != 3)

    def test_allreduce_via_dispatch_multinode(self):
        def prog(mpi):
            comm = mpi.world
            out = yield from comm.allreduce(
                np.array([float(comm.rank)]), ReduceOp.MAX
            )
            return float(np.asarray(out)[0])

        rets = returns_of(prog, nodes=3, cores=2)
        assert all(r == 5.0 for r in rets)


class TestMultiLeader:
    @pytest.mark.parametrize("leaders", [1, 2, 4])
    def test_correctness_all_leader_counts(self, leaders):
        def prog(mpi):
            comm = mpi.world
            full = yield from multileader_allgather(
                comm, np.array([float(comm.rank)]), TAG, leaders, _bridge
            )
            return [
                float(np.asarray(b)[0]) for b in full.as_list(comm.size)
            ]

        rets = returns_of(prog, nodes=2, cores=4)
        expected = [float(r) for r in range(8)]
        assert all(r == expected for r in rets)

    def test_more_leaders_than_ranks_clamped(self):
        def prog(mpi):
            comm = mpi.world
            full = yield from multileader_allgather(
                comm, Bytes(8), TAG, leaders_per_node=99,
                select_bridge=_bridge,
            )
            return len(full.as_list(comm.size))

        rets = returns_of(prog, nodes=2, cores=2)
        assert all(r == 4 for r in rets)
