"""Tests for the synchronization policies (barrier vs shared flags)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BarrierSync, FlagSync, HybridContext
from tests.helpers import returns_of, run


def hybrid_ag(sync, *, nodes=2, cores=3, epochs=1, nbytes=8):
    def prog(mpi):
        comm = mpi.world
        ctx = yield from HybridContext.create(comm, default_sync=sync)
        buf = yield from ctx.allgather_buffer(nbytes)
        times = []
        for _ in range(epochs):
            t0 = mpi.now
            yield from ctx.allgather(buf)
            times.append(mpi.now - t0)
        return times

    return run(prog, nodes=nodes, cores=cores, payload="cost-only")


class TestBarrierSync:
    def test_orders_leader_after_children(self):
        # Leaders must observe the pre-sync after the slowest child.
        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm)
            buf = yield from ctx.allgather_buffer(8)
            if comm.rank == 1:  # a child is slow to write
                yield mpi.compute(1e-3)
            yield from ctx.allgather(buf)
            return mpi.now

        rets = returns_of(prog, nodes=2, cores=2, payload="cost-only")
        assert all(t >= 1e-3 for t in rets)


class TestFlagSync:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlagSync(flag_latency=-1.0)

    def test_cheaper_than_barrier(self):
        barrier = max(hybrid_ag(BarrierSync()).returns)[0]
        flags = max(hybrid_ag(FlagSync()).returns)[0]
        assert flags < barrier

    def test_multiple_epochs_stay_consistent(self):
        result = hybrid_ag(FlagSync(), epochs=5)
        for times in result.returns:
            assert len(times) == 5
            # Steady state: epochs 2..5 cost the same.
            assert times[1] == pytest.approx(times[-1])

    def test_children_wait_for_leader_release(self):
        # A slow LEADER (doing the bridge exchange) must gate children.
        sync = FlagSync()

        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm, default_sync=sync)
            buf = yield from ctx.allgather_buffer(100_000)  # slow exchange
            yield from ctx.allgather(buf)
            return mpi.now

        rets = returns_of(prog, nodes=2, cores=3, payload="cost-only")
        # Everyone (children included) finishes at/after the exchange.
        exchange_floor = 100_000 / 1.0e9  # node block / bandwidth
        assert all(t > exchange_floor for t in rets)

    def test_single_node_round_trip(self):
        sync = FlagSync()

        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm, default_sync=sync)
            buf = yield from ctx.allgather_buffer(8)
            buf_view = buf.local_view(np.float64)
            if buf_view is not None:
                buf_view[:] = comm.rank
            yield from ctx.allgather(buf)
            return float(buf.node_view(np.float64).sum())

        rets = returns_of(prog, nodes=1, cores=4, nprocs=4)
        assert all(r == 6.0 for r in rets)


class TestSyncCostModel:
    def test_barrier_cost_grows_with_ppn(self):
        t4 = max(hybrid_ag(BarrierSync(), nodes=1, cores=4).returns)[0]
        t16 = max(hybrid_ag(BarrierSync(), nodes=1, cores=16).returns)[0]
        assert t16 > t4

    def test_flag_cost_independent_of_message_size(self):
        small = max(hybrid_ag(FlagSync(), nodes=1, cores=4,
                              nbytes=8).returns)[0]
        large = max(hybrid_ag(FlagSync(), nodes=1, cores=4,
                              nbytes=80_000).returns)[0]
        assert small == pytest.approx(large)
