"""Matrix coverage: dispatched collectives across placements × roots.

The hierarchical (SMP-aware) paths branch on leader identity, root
location, and node population; this module sweeps those axes so every
branch combination is exercised with value verification.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import Placement
from repro.mpi.constants import ReduceOp
from tests.helpers import returns_of

PLACEMENTS = {
    "regular_2x3": Placement.block(2, 3),
    "irregular_3_1_2": Placement.irregular([3, 1, 2]),
    "roundrobin_2x3": Placement.round_robin(2, 3),
    "single_heavy": Placement.irregular([5, 1]),
}


def _nodes_cores(placement: Placement) -> tuple[int, int]:
    return placement.num_nodes, max(placement.counts())


@pytest.mark.parametrize("pname", sorted(PLACEMENTS))
class TestBcastMatrix:
    @pytest.mark.parametrize("root", [0, 1, 3, 5])
    def test_bcast_value_everywhere(self, pname, root):
        placement = PLACEMENTS[pname]
        nodes, cores = _nodes_cores(placement)

        def prog(mpi):
            comm = mpi.world
            buf = (
                np.full(3, root * 2.0)
                if comm.rank == root
                else np.empty(3)
            )
            out = yield from comm.bcast(buf, root=root)
            return float(np.asarray(out).reshape(-1)[0])

        rets = returns_of(prog, nodes=nodes, cores=cores,
                          placement=placement)
        assert all(r == root * 2.0 for r in rets), (pname, root)


@pytest.mark.parametrize("pname", sorted(PLACEMENTS))
class TestReduceMatrix:
    @pytest.mark.parametrize("root", [0, 2, 5])
    def test_reduce_sum_to_each_root(self, pname, root):
        placement = PLACEMENTS[pname]
        nodes, cores = _nodes_cores(placement)
        size = placement.num_ranks

        def prog(mpi):
            comm = mpi.world
            out = yield from comm.reduce(
                np.array([float(comm.rank)]), ReduceOp.SUM, root
            )
            return None if out is None else float(np.asarray(out)[0])

        rets = returns_of(prog, nodes=nodes, cores=cores,
                          placement=placement)
        assert rets[root] == float(sum(range(size))), pname
        assert sum(1 for r in rets if r is not None) == 1


@pytest.mark.parametrize("pname", sorted(PLACEMENTS))
class TestAllgatherMatrix:
    def test_allgather_ordering(self, pname):
        placement = PLACEMENTS[pname]
        nodes, cores = _nodes_cores(placement)

        def prog(mpi):
            comm = mpi.world
            blocks = yield from comm.allgather(
                np.array([float(comm.rank * 7)])
            )
            return [float(np.asarray(b)[0]) for b in blocks]

        rets = returns_of(prog, nodes=nodes, cores=cores,
                          placement=placement)
        expected = [float(r * 7) for r in range(placement.num_ranks)]
        assert all(r == expected for r in rets), pname

    def test_allgatherv_ordering(self, pname):
        placement = PLACEMENTS[pname]
        nodes, cores = _nodes_cores(placement)

        def prog(mpi):
            comm = mpi.world
            mine = np.full(1 + comm.rank % 3, float(comm.rank))
            blocks = yield from comm.allgatherv(mine)
            return [
                (np.asarray(b).size, float(np.asarray(b).reshape(-1)[0]))
                for b in blocks
            ]

        rets = returns_of(prog, nodes=nodes, cores=cores,
                          placement=placement)
        expected = [
            (1 + r % 3, float(r)) for r in range(placement.num_ranks)
        ]
        assert all(r == expected for r in rets), pname


@pytest.mark.parametrize("pname", sorted(PLACEMENTS))
class TestAllreduceMatrix:
    @pytest.mark.parametrize("op,expected_fn", [
        (ReduceOp.SUM, lambda xs: sum(xs)),
        (ReduceOp.MAX, lambda xs: max(xs)),
        (ReduceOp.MIN, lambda xs: min(xs)),
        (ReduceOp.PROD, lambda xs: float(np.prod(xs))),
    ])
    def test_ops(self, pname, op, expected_fn):
        placement = PLACEMENTS[pname]
        nodes, cores = _nodes_cores(placement)
        size = placement.num_ranks

        def prog(mpi):
            comm = mpi.world
            out = yield from comm.allreduce(
                np.array([float(comm.rank + 1)]), op
            )
            return float(np.asarray(out)[0])

        rets = returns_of(prog, nodes=nodes, cores=cores,
                          placement=placement)
        expected = float(expected_fn([r + 1 for r in range(size)]))
        assert all(r == pytest.approx(expected) for r in rets), (pname, op)


@pytest.mark.parametrize("pname", sorted(PLACEMENTS))
class TestBarrierMatrix:
    def test_barrier_synchronizes(self, pname):
        placement = PLACEMENTS[pname]
        nodes, cores = _nodes_cores(placement)

        def prog(mpi):
            if mpi.world.rank == mpi.world.size - 1:
                yield mpi.compute(5e-4)
            yield from mpi.world.barrier()
            return mpi.now

        rets = returns_of(prog, nodes=nodes, cores=cores,
                          placement=placement, payload="cost-only")
        assert all(t >= 5e-4 for t in rets), pname
