"""Tests of the collective-algorithm registry and selection policies."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.machine import Placement
from repro.machine import testing_machine as make_testing_spec
from repro.machine.presets import hazel_hen
from repro.mpi import Bytes, run_program
from repro.mpi.collectives import registry
from repro.mpi.collectives.registry import (
    CollRequest,
    CostModelSelection,
    ForcedSelection,
    SelectionPolicy,
    TableSelection,
    resolve_policy,
)
from repro.mpi.constants import ReduceOp
from tests.helpers import run


def traced(prog, *, nodes=1, cores=4, policy=None, placement=None,
           **options):
    spec = make_testing_spec(nodes, cores)
    nprocs = None if placement is not None else nodes * cores
    return run_program(
        spec, nprocs, prog, trace=True, payload="cost-only",
        policy=policy, placement=placement, **options,
    )


def small_allgather(mpi):
    yield from mpi.world.allgather(Bytes(64))


class TestRegistryContents:
    EXPECTED_OPS = {
        "allgather", "allgatherv", "allreduce", "alltoall", "barrier",
        "bcast", "exscan", "gather", "gatherv", "hy_allgather",
        "hy_bcast", "reduce", "reduce_scatter", "scan", "scatter",
    }

    def test_all_ops_registered(self):
        assert set(registry.ops()) == self.EXPECTED_OPS

    def test_every_op_has_algorithms(self):
        for op in registry.ops():
            assert registry.algorithms_for(op), op

    def test_get_algorithm_unknown_name(self):
        with pytest.raises(KeyError, match="ring"):
            registry.get_algorithm("allgather", "bogus")

    def test_descriptors_are_complete(self):
        for op in registry.ops():
            for algo in registry.algorithms_for(op):
                assert algo.op == op
                assert callable(algo.fn)
                assert callable(algo.applicable)
                assert callable(algo.cost)
                assert algo.kind in ("flat", "hierarchical", "hybrid")


class TestResolvePolicy:
    def test_instance_passthrough(self):
        policy = CostModelSelection()
        assert resolve_policy(policy) is policy

    def test_by_name(self):
        assert isinstance(resolve_policy("table"), TableSelection)
        assert isinstance(resolve_policy("cost_model"), CostModelSelection)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown selection policy"):
            resolve_policy("simulated_annealing")

    def test_empty_env_gives_table(self):
        assert isinstance(resolve_policy(None, env={}), TableSelection)

    def test_env_policy_variable(self):
        policy = resolve_policy(None, env={registry.ENV_POLICY: "cost_model"})
        assert isinstance(policy, CostModelSelection)

    def test_env_op_override_wraps_forced(self):
        policy = resolve_policy(
            None, env={"REPRO_COLL_ALLGATHER": "ring"}
        )
        assert isinstance(policy, ForcedSelection)
        assert policy.overrides == {"allgather": "ring"}
        assert isinstance(policy.base, TableSelection)

    def test_env_override_over_cost_model(self):
        policy = resolve_policy(None, env={
            registry.ENV_POLICY: "cost_model",
            "REPRO_COLL_BCAST": "binomial",
        })
        assert isinstance(policy, ForcedSelection)
        assert isinstance(policy.base, CostModelSelection)

    def test_env_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown collective op"):
            resolve_policy(None, env={"REPRO_COLL_FROBNICATE": "ring"})

    def test_env_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            resolve_policy(None, env={"REPRO_COLL_ALLGATHER": "bogus"})

    def test_forced_constructor_validates_eagerly(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            ForcedSelection({"allgather": "bogus"})


class TestTracePolicyField:
    def test_default_runs_record_table_policy(self):
        result = traced(small_allgather, cores=4)
        recs = [r for r in result.trace if r["op"] == "allgather"]
        assert recs and all(r["policy"] == "table" for r in recs)

    def test_forced_runs_record_forced_policy(self):
        result = traced(
            small_allgather, cores=4,
            policy=ForcedSelection({"allgather": "ring"}),
        )
        recs = [r for r in result.trace if r["op"] == "allgather"]
        assert {r["algo"] for r in recs} == {"ring"}
        assert all(r["policy"] == "forced" for r in recs)


class TestForcedSelection:
    def test_forced_algorithm_is_used(self):
        # Default table picks recursive_doubling here (pof2, small).
        result = traced(small_allgather, cores=4,
                        policy=ForcedSelection({"allgather": "bruck"}))
        assert {r["algo"] for r in result.trace
                if r["op"] == "allgather"} == {"bruck"}

    def test_inapplicable_force_falls_back(self):
        # recursive_doubling is pof2-only; on 3 ranks the table fallback
        # (bruck) must be selected and the run must still complete.
        result = traced(
            small_allgather, cores=3,
            policy=ForcedSelection({"allgather": "recursive_doubling"}),
        )
        assert {r["algo"] for r in result.trace
                if r["op"] == "allgather"} == {"bruck"}

    def test_forced_results_match_reference(self):
        def prog(mpi):
            vec = np.arange(3.0) + 10 * mpi.world.rank
            out = yield from mpi.world.allgather(vec)
            return [list(np.asarray(b)) for b in out]

        ref = run(prog, nodes=1, cores=4).returns
        forced = run(prog, nodes=1, cores=4,
                     policy=ForcedSelection({"allgather": "ring"})).returns
        assert forced == ref

    def test_job_accepts_policy_name_string(self):
        result = traced(small_allgather, cores=4, policy="cost_model")
        recs = [r for r in result.trace if r["op"] == "allgather"]
        assert recs and all(r["policy"] == "cost_model" for r in recs)


class TestCostModelSelection:
    def test_results_match_table_policy(self):
        def prog(mpi):
            comm = mpi.world
            vec = np.array([float(comm.rank)] * 4)
            total = yield from comm.allreduce(vec, ReduceOp.SUM)
            blocks = yield from comm.allgather(np.asarray(total))
            return [list(np.asarray(b)) for b in blocks]

        table = run(prog, nodes=2, cores=2).returns
        cost = run(prog, nodes=2, cores=2, policy="cost_model").returns
        assert cost == table

    def test_deterministic(self):
        a = traced(small_allgather, cores=4, policy="cost_model")
        b = traced(small_allgather, cores=4, policy="cost_model")
        key = lambda res: [(r["op"], r["algo"]) for r in res.trace]
        assert key(a) == key(b)

    def test_picks_minimum_cost_candidate(self):
        result = traced(small_allgather, cores=4, policy="cost_model")
        chosen = {r["algo"] for r in result.trace
                  if r["op"] == "allgather"}
        assert len(chosen) == 1
        # Recompute the argmin from the registry's own estimators.
        job_probe = []

        def probe(mpi):
            job_probe.append(mpi.world)
            yield from mpi.world.barrier()

        run(probe, nodes=1, cores=4)
        comm = job_probe[0]
        req = CollRequest(op="allgather", nbytes=64, total=64 * 4)
        cands = registry.applicable_algorithms(
            "allgather", registry.comm_shape(comm), req)
        best = min(cands, key=lambda d: d.cost(comm, req))
        assert chosen == {best.name}

    def test_costs_are_positive_finite(self):
        job_probe = []

        def probe(mpi):
            job_probe.append(mpi.world)
            yield from mpi.world.barrier()

        run(probe, nodes=2, cores=2)
        comm = job_probe[0]
        for op in registry.ops():
            req = CollRequest(op=op, nbytes=1024, total=4096, root=0)
            for algo in registry.algorithms_for(op):
                if not algo.applicable(registry.comm_shape(comm), req):
                    continue
                cost = algo.cost(comm, req)
                assert np.isfinite(cost) and cost >= 0, (op, algo.name)


class TestHybridSelection:
    def _hybrid_prog(self, mpi):
        from repro.core import HybridContext

        ctx = yield from HybridContext.create(mpi.world)
        buf = yield from ctx.allgather_buffer(64)
        yield from ctx.allgather(buf)

    def test_hy_allgather_traced(self):
        result = traced(self._hybrid_prog, nodes=2, cores=2)
        recs = [r for r in result.trace if r["op"] == "hy_allgather"]
        assert {r["algo"] for r in recs} == {"shared_window"}

    def test_forced_pipelined_ring(self):
        result = traced(
            self._hybrid_prog, nodes=2, cores=2,
            policy=ForcedSelection({"hy_allgather": "pipelined_ring"}),
        )
        recs = [r for r in result.trace if r["op"] == "hy_allgather"]
        assert {r["algo"] for r in recs} == {"pipelined_ring"}

    def test_caller_override_beats_policy(self):
        from repro.core import HybridContext

        def prog(mpi):
            ctx = yield from HybridContext.create(mpi.world)
            buf = yield from ctx.allgather_buffer(64)
            yield from ctx.allgather(buf, pipelined=True)

        result = traced(prog, nodes=2, cores=2)
        recs = [r for r in result.trace if r["op"] == "hy_allgather"]
        assert {r["algo"] for r in recs} == {"pipelined_ring"}
        assert {r["policy"] for r in recs} == {"caller"}


class TestSelectionErrors:
    def test_no_applicable_candidate_raises(self):
        from repro.simulator.engine import SimulationError

        class NonePolicy(SelectionPolicy):
            name = "none"

            def select(self, comm, req, candidates=None):
                return super().select(comm, req, candidates=())

        def prog(mpi):
            yield from mpi.world.allgather(Bytes(8))

        with pytest.raises(SimulationError) as excinfo:
            run(prog, nodes=1, cores=2, policy=NonePolicy(),
                payload="cost-only")
        assert "no applicable algorithm" in str(excinfo.value.__cause__)


class TestProfileCoverage:
    """Satellite (a): every collective records into the profiler."""

    ALL_OPS = [
        "allgather", "allgatherv", "allreduce", "alltoall", "barrier",
        "bcast", "exscan", "gather", "gatherv", "reduce",
        "reduce_scatter", "scan", "scatter",
    ]

    def _everything_prog(self, mpi):
        comm = mpi.world
        vec = np.arange(4.0) + comm.rank
        yield from comm.barrier()
        yield from comm.bcast(vec, root=0)
        yield from comm.gather(vec, root=0)
        yield from comm.gatherv(vec[: 1 + comm.rank % 2], root=0)
        parts = (
            [np.full(2, float(r)) for r in range(comm.size)]
            if comm.rank == 1 else None
        )
        yield from comm.scatter(parts, root=1)
        yield from comm.reduce(vec, ReduceOp.SUM, root=0)
        yield from comm.allreduce(vec, ReduceOp.MAX)
        yield from comm.alltoall(
            [np.array([float(comm.rank * comm.size + p)])
             for p in range(comm.size)]
        )
        yield from comm.scan(vec, ReduceOp.SUM)
        yield from comm.exscan(vec, ReduceOp.SUM)
        yield from comm.reduce_scatter(
            np.arange(float(comm.size * 2)), ReduceOp.SUM
        )
        yield from comm.allgather(vec)
        yield from comm.allgatherv(vec[: 1 + comm.rank % 3])

    def test_every_op_appears_in_profile(self):
        result = run(self._everything_prog, nodes=2, cores=2)
        summary = result.comm_summary()
        for op in self.ALL_OPS:
            assert op in summary, f"{op} missing from profile"
            assert summary[op]["calls"] == 4  # one call on each rank
            assert summary[op]["time"] > 0.0

    def test_barrier_records_zero_bytes(self):
        result = run(self._everything_prog, nodes=2, cores=2)
        assert result.comm_summary()["barrier"]["bytes"] == 0

    def test_nonblocking_ops_profiled_under_i_names(self):
        def prog(mpi):
            comm = mpi.world
            req1 = comm.iallgather(np.array([1.0 * comm.rank]))
            req2 = comm.ibarrier()
            yield from comm.wait(req1)
            yield from comm.wait(req2)

        summary = run(prog, nodes=1, cores=4).comm_summary()
        assert "iallgather" in summary
        assert "ibarrier" in summary


class TestAllgathervByteAccounting:
    """Satellite (b): allgatherv charges the true sum of per-rank sizes."""

    def test_irregular_bytes_sum_actual_sizes(self):
        counts = [1, 3, 2, 5]  # doubles contributed per rank

        def prog(mpi):
            comm = mpi.world
            mine = np.full(counts[comm.rank], float(comm.rank))
            yield from comm.allgatherv(mine)

        result = run(prog, nodes=1, cores=4)
        stats = result.comm_summary()["allgatherv"]
        total = 8 * sum(counts)  # true payload, not local * size
        assert stats["bytes"] == total * 4  # each of 4 ranks charges total
        assert stats["calls"] == 4

    def test_regular_allgather_unchanged(self):
        def prog(mpi):
            yield from mpi.world.allgather(np.zeros(2))

        stats = run(prog, nodes=1, cores=4).comm_summary()["allgather"]
        assert stats["bytes"] == (8 * 2 * 4) * 4


class TestBehaviorPreservation:
    """Default TableSelection reproduces the pre-registry selections
    (trace-level equality on the Fig 7 / Fig 9 benchmark configs)."""

    @staticmethod
    def _multiset(spec, placement, nbytes, variant):
        from repro.bench.osu import (
            hybrid_allgather_program,
            pure_allgather_program,
        )

        prog = (pure_allgather_program if variant == "pure"
                else hybrid_allgather_program)
        result = run_program(
            spec, None, prog, placement=placement, payload="cost-only",
            trace=True,
            program_kwargs={"nbytes_per_rank": nbytes, "reps": 1},
        )
        # Only mpi-layer dispatches: the hy_* records are a new,
        # additive tracing feature of the registry refactor.
        return Counter(
            (r["op"], r["algo"]) for r in result.trace
            if not r["op"].startswith("hy_")
        )

    # Counts are warmup + 1 timed rep per rank.  The OSU harness's
    # align-delimited protocol (see repro.bench.osu) realigns ranks with
    # Comm.align(), which is not a dispatch — the barrier records the
    # old inter-repetition barrier used to contribute are gone, and the
    # algorithm selections are what this test actually pins.

    def test_fig7_single_node(self):
        spec, placement = hazel_hen(1), Placement.block(1, 24)
        assert self._multiset(spec, placement, 8 * 64, "pure") == {
            ("allgather", "bruck"): 48,
        }
        assert self._multiset(spec, placement, 8 * 16384, "pure") == {
            ("allgather", "ring"): 48,
        }
        assert self._multiset(spec, placement, 8 * 64, "hybrid") == {
            ("barrier", "shm_flags"): 48,
        }

    def test_fig9_multi_node(self):
        spec, placement = hazel_hen(16), Placement.block(16, 12)
        assert self._multiset(spec, placement, 8 * 64, "pure") == {
            ("allgather", "smp_hierarchical"): 384,
        }
        assert self._multiset(spec, placement, 8 * 64, "hybrid") == {
            ("allgatherv", "bruck_v"): 32,
            ("barrier", "shm_flags"): 768,
        }
