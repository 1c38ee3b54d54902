"""Tests for persistent collective plans and calibration probes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HybridContext
from repro.core.persistent import AllgatherPlan, BcastPlan
from repro.machine import hazel_hen, testing_machine as make_testing_spec
from repro.machine.calibration import probe_machine, probe_report
from repro.machine.placement import Placement
from tests.helpers import returns_of


class TestAllgatherPlan:
    def test_repeated_starts_produce_fresh_results(self):
        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm)
            plan = yield from AllgatherPlan.build(ctx, nbytes_per_rank=8)
            sums = []
            for epoch in range(3):
                plan.buf.local_view(np.float64)[:] = comm.rank + epoch
                yield from plan.start()
                sums.append(float(plan.buf.node_view(np.float64).sum()))
                yield from ctx.shm.barrier()
            return (sums, plan.starts)

        rets = returns_of(prog, nodes=2, cores=2)
        base = sum(range(4))
        expected = [float(base + e * 4) for e in range(3)]
        assert all(r == (expected, 3) for r in rets)

    def test_irregular_plan(self):
        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm)
            sizes = [8 * (r + 1) for r in range(comm.size)]
            plan = yield from AllgatherPlan.build(
                ctx, nbytes_by_rank=sizes
            )
            plan.buf.local_view(np.float64)[:] = comm.rank
            yield from plan.start()
            return plan.buf.total_nbytes

        rets = returns_of(prog, nodes=2, cores=2)
        assert all(r == 8 + 16 + 24 + 32 for r in rets)

    def test_exactly_one_size_argument(self):
        def prog(mpi):
            ctx = yield from HybridContext.create(mpi.world)
            try:
                yield from AllgatherPlan.build(ctx)
            except ValueError:
                yield from mpi.world.barrier()
                return "rejected"
            return "ok"

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert all(r == "rejected" for r in rets)

    def test_amortization_start_cheaper_than_build(self):
        def prog(mpi):
            ctx = yield from HybridContext.create(mpi.world)
            t0 = mpi.now
            plan = yield from AllgatherPlan.build(
                ctx, nbytes_per_rank=1024
            )
            yield from plan.start()
            first = mpi.now - t0
            t1 = mpi.now
            yield from plan.start()
            second = mpi.now - t1
            # One-off setup is zero-cost gates in the model, so the two
            # are nearly equal; the second must never be meaningfully
            # more expensive (no per-start re-setup).
            return second <= first * 1.05

        assert all(returns_of(prog, nodes=2, cores=2,
                              payload="cost-only"))


class TestBcastPlan:
    def test_repeated_broadcasts(self):
        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm)
            plan = yield from BcastPlan.build(ctx, nbytes=16, root=0)
            seen = []
            for epoch in range(2):
                if comm.rank == 0:
                    plan.buf.node_view(np.float64)[:] = epoch * 10.0
                yield from plan.start()
                seen.append(float(plan.buf.node_view(np.float64)[0]))
                yield from ctx.shm.barrier()
            return seen

        rets = returns_of(prog, nodes=2, cores=2)
        assert all(r == [0.0, 10.0] for r in rets)


@pytest.mark.parametrize("kind", ["allgather", "bcast"])
def test_plan_starts_replay(kind):
    """"Bind once, start many" is exactly what the replay cache
    memoises: a plan loop replays, and nothing observable moves."""
    from repro.mpi.collectives import replay as replaylib
    from tests.helpers import assert_same_run, run

    def prog(mpi):
        comm = mpi.world
        ctx = yield from HybridContext.create(comm)
        if kind == "allgather":
            plan = yield from AllgatherPlan.build(ctx, nbytes_per_rank=512)
        else:
            plan = yield from BcastPlan.build(ctx, nbytes=4096, root=3)
        latencies = []
        for _ in range(20):
            yield from comm.align()
            t0 = mpi.now
            yield from plan.start()
            latencies.append(mpi.now - t0)
        return latencies, plan.starts

    def job(replay):
        replaylib.clear_cache()
        return run(prog, spec=hazel_hen(3), placement=Placement.block(3, 4),
                   payload="cost-only", replay=replay)

    off, on = job(False), job("loop")
    # The first start runs live; the other nineteen replay.
    assert (on.replay_hits, off.replay_hits) == (19, 0)
    assert_same_run(on, off)


class TestCalibrationProbes:
    def test_probes_match_testing_spec(self):
        probe = probe_machine(lambda n: make_testing_spec(n, 4))
        # testing machine: alpha 1 us, flat topology (no hop latency).
        assert probe.internode_latency == pytest.approx(1.0e-6, rel=0.01)
        # Large messages approach the 1 GB/s point-to-point bandwidth
        # (rendezvous handshake amortized away).
        assert probe.internode_bandwidth == pytest.approx(1.0e9, rel=0.15)
        # Intra-node large message: single-copy LMT at one stream's
        # 5 GB/s, moving 2n bytes -> effective 2.5 GB/s.
        assert probe.intranode_copy_bandwidth == pytest.approx(
            2.5e9, rel=0.2
        )
        assert probe.shm_barrier_24 > 0

    def test_hazel_hen_probe_sane(self):
        probe = probe_machine(hazel_hen)
        assert 1.0e-6 < probe.internode_latency < 3.0e-6
        assert 5.0e9 < probe.internode_bandwidth < 12.0e9
        assert probe.allgather_1rpn_8nodes > probe.internode_latency

    def test_report_renders(self):
        text = probe_report(lambda n: make_testing_spec(n, 2), name="tiny")
        assert "tiny" in text
        assert "GB/s" in text
