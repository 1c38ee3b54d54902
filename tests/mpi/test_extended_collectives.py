"""Tests for reduce_scatter, (ex)scan, and non-blocking collectives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import Bytes
from repro.mpi.constants import ReduceOp
from tests.helpers import returns_of, run


class TestReduceScatter:
    @pytest.mark.parametrize("nodes,cores", [(1, 2), (1, 4), (2, 2), (2, 3)])
    def test_blocks_reduced_and_scattered(self, nodes, cores):
        size = nodes * cores

        def prog(mpi):
            comm = mpi.world
            # Rank r contributes vector [r, r, ...] of p blocks x 2 elems.
            vec = np.full(2 * comm.size, float(comm.rank))
            mine = yield from comm.reduce_scatter(vec, ReduceOp.SUM)
            return list(np.asarray(mine).reshape(-1))

        rets = returns_of(prog, nodes=nodes, cores=cores)
        total = float(sum(range(size)))
        assert all(r == [total, total] for r in rets)

    def test_large_pof2_uses_halving(self):
        def prog(mpi):
            comm = mpi.world
            vec = np.arange(float(comm.size * 1024)) * (comm.rank + 1)
            mine = yield from comm.reduce_scatter(vec, ReduceOp.SUM)
            return np.asarray(mine).reshape(-1)

        rets = returns_of(prog, nodes=1, cores=4, nprocs=4)
        # rank r's block: sum_k (k+1) * elements of block r.
        factor = sum(range(1, 5))
        base = np.arange(4 * 1024.0)
        for rank, mine in enumerate(rets):
            expected = base[rank * 1024 : (rank + 1) * 1024] * factor
            np.testing.assert_allclose(mine, expected)

    def test_symbolic_mode_sizes(self):
        def prog(mpi):
            comm = mpi.world
            mine = yield from comm.reduce_scatter(Bytes(comm.size * 100))
            return mine.nbytes

        rets = returns_of(prog, nodes=1, cores=4, nprocs=4,
                          payload="cost-only")
        assert all(r == 100 for r in rets)


class TestScanFamily:
    @pytest.mark.parametrize("cores", [2, 5, 8])
    def test_inclusive_scan(self, cores):
        def prog(mpi):
            out = yield from mpi.world.scan(
                np.array([float(mpi.world.rank + 1)])
            )
            return float(np.asarray(out)[0])

        rets = returns_of(prog, nodes=1, cores=cores, nprocs=cores)
        assert rets == [float(sum(range(1, r + 2))) for r in range(cores)]

    @pytest.mark.parametrize("cores", [2, 5, 8])
    def test_exclusive_scan(self, cores):
        def prog(mpi):
            out = yield from mpi.world.exscan(
                np.array([float(mpi.world.rank + 1)])
            )
            return None if out is None else float(np.asarray(out)[0])

        rets = returns_of(prog, nodes=1, cores=cores, nprocs=cores)
        assert rets[0] is None
        for r in range(1, cores):
            assert rets[r] == float(sum(range(1, r + 1)))

    def test_scan_matches_exscan_plus_self(self):
        def prog(mpi):
            mine = np.array([float(mpi.world.rank * 2 + 1)])
            inc = yield from mpi.world.scan(mine)
            exc = yield from mpi.world.exscan(mine)
            base = 0.0 if exc is None else float(np.asarray(exc)[0])
            return float(np.asarray(inc)[0]) == base + float(mine[0])

        assert all(returns_of(prog, nodes=2, cores=3))


class TestNonBlockingCollectives:
    def test_iallreduce_result(self):
        def prog(mpi):
            req = mpi.world.iallreduce(np.array([1.0]))
            out = yield req.event
            return float(np.asarray(out)[0])

        rets = returns_of(prog, nodes=2, cores=2)
        assert all(r == 4.0 for r in rets)

    def test_overlap_with_computation(self):
        # The collective progresses while the rank "computes": total time
        # must be close to max(compute, collective), not the sum.
        def make(overlapped):
            def prog(mpi):
                comm = mpi.world
                compute_time = 1e-3
                if overlapped:
                    req = comm.iallgather(Bytes(80_000))
                    yield mpi.compute(compute_time)
                    yield req.event
                else:
                    yield from comm.allgather(Bytes(80_000))
                    yield mpi.compute(compute_time)
                return mpi.now

            return prog

        seq = max(returns_of(make(False), nodes=2, cores=4,
                             payload="cost-only"))
        ovl = max(returns_of(make(True), nodes=2, cores=4,
                             payload="cost-only"))
        assert ovl < seq

    def test_two_nonblocking_collectives_in_flight(self):
        def prog(mpi):
            comm = mpi.world
            r1 = comm.iallreduce(np.array([float(comm.rank)]))
            r2 = comm.iallgather(np.array([float(comm.rank)]))
            r3 = comm.ibarrier()
            s = yield r1.event
            blocks = yield r2.event
            yield r3.event
            return (float(np.asarray(s)[0]),
                    [float(np.asarray(b)[0]) for b in blocks])

        rets = returns_of(prog, nodes=2, cores=2)
        assert all(r == (6.0, [0.0, 1.0, 2.0, 3.0]) for r in rets)

    def test_ibcast(self):
        def prog(mpi):
            comm = mpi.world
            buf = (
                np.arange(4.0) if comm.rank == 1 else np.empty(4)
            )
            req = comm.ibcast(buf, root=1)
            out = yield req.event
            return list(np.asarray(out).reshape(-1))

        rets = returns_of(prog, nodes=1, cores=3, nprocs=3)
        assert all(r == [0.0, 1.0, 2.0, 3.0] for r in rets)

    def test_desynchronized_issue_is_safe(self):
        # Ranks reach the non-blocking collectives at different times
        # (after a non-synchronizing exscan) — the regression scenario
        # for the deterministic-hierarchy fix.
        def prog(mpi):
            comm = mpi.world
            yield from comm.exscan(np.array([1.0]))
            r1 = comm.iallreduce(np.array([1.0]))
            r2 = comm.ibarrier()
            out = yield r1.event
            yield r2.event
            return float(np.asarray(out)[0])

        rets = returns_of(prog, nodes=2, cores=2)
        assert all(r == 4.0 for r in rets)
