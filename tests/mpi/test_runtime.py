"""Tests for the job runner and rank contexts."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.machine import Placement, testing_machine as make_testing_spec
from repro.mpi import Bytes, MPIJob, run_program
from repro.simulator import DeadlockError, SimulationError
from tests.helpers import returns_of, run


class TestJobBasics:
    def test_returns_indexed_by_rank(self):
        def prog(mpi):
            yield from mpi.world.barrier()
            return mpi.world.rank * 10

        rets = returns_of(prog, nodes=1, cores=4, nprocs=4)
        assert rets == [0, 10, 20, 30]

    def test_finish_times_recorded(self):
        def prog(mpi):
            yield mpi.compute(1e-3 * (mpi.world.rank + 1))
            return None

        result = run(prog, nodes=1, cores=3, nprocs=3)
        assert result.finish_times == pytest.approx([1e-3, 2e-3, 3e-3])
        assert result.max_rank_time() == pytest.approx(3e-3)
        assert result.elapsed >= result.max_rank_time()

    def test_stats_counted(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                yield from comm.send(Bytes(100), 1)
            elif comm.rank == 1:
                yield from comm.recv(source=0)
            return None

        result = run(prog, nodes=2, cores=1, nprocs=2)
        assert result.sent_messages == 1
        assert result.sent_bytes == 100
        assert result.network_messages == 1

    def test_deterministic_repeat(self):
        def prog(mpi):
            blocks = yield from mpi.world.allgather(Bytes(64))
            yield from mpi.world.barrier()
            return mpi.now

        a = run(prog, nodes=2, cores=3)
        b = run(prog, nodes=2, cores=3)
        assert a.returns == b.returns
        assert a.events_processed == b.events_processed

    def test_mismatched_nprocs_and_placement(self):
        spec = make_testing_spec(2, 2)
        with pytest.raises(ValueError):
            MPIJob(spec, lambda mpi: None, nprocs=3,
                   placement=Placement.block(2, 2))

    def test_requires_nprocs_or_placement(self):
        spec = make_testing_spec(2, 2)
        with pytest.raises(ValueError):
            MPIJob(spec, lambda mpi: None)

    def test_invalid_payload_mode(self):
        spec = make_testing_spec(1, 1)
        with pytest.raises(ValueError):
            MPIJob(spec, lambda mpi: None, nprocs=1, payload="weird")
        with pytest.raises(ValueError):
            MPIJob(spec, lambda mpi: None, nprocs=1, payload="model")

    def test_scheduler_has_no_mode_switch(self):
        spec = make_testing_spec(1, 1)
        with pytest.raises(TypeError, match="fast_path"):
            run_program(spec, 1, lambda mpi: None, fast_path=True)

    def test_deadlock_reported_with_rank_names(self):
        def prog(mpi):
            if mpi.world.rank == 0:
                yield from mpi.world.recv(source=1)  # never sent
            return None

        with pytest.raises(DeadlockError, match="rank0"):
            run(prog, nodes=1, cores=2, nprocs=2)


class TestRankContext:
    def test_identity_fields(self):
        def prog(mpi):
            yield from mpi.world.barrier()
            return (mpi.world_rank, mpi.node, mpi.world.size)

        rets = returns_of(prog, nodes=2, cores=2)
        assert rets == [(0, 0, 4), (1, 0, 4), (2, 1, 4), (3, 1, 4)]

    def test_compute_charges_time(self):
        def prog(mpi):
            yield mpi.compute(0.5)
            return mpi.now

        assert returns_of(prog, nodes=1, cores=1, nprocs=1) == [0.5]

    def test_compute_flops_uses_machine_model(self):
        def prog(mpi):
            yield mpi.compute_flops(1e9, kind="gemm")
            return mpi.now

        # testing machine: 1 GF/s peak * 0.85 gemm efficiency.
        rets = returns_of(prog, nodes=1, cores=1, nprocs=1)
        assert rets[0] == pytest.approx(1 / 0.85)

    def test_payload_helpers_respect_mode(self):
        def prog(mpi):
            yield from mpi.world.barrier()
            return (type(mpi.payload(16)).__name__,
                    type(mpi.doubles(4)).__name__)

        assert returns_of(prog, nodes=1, cores=1, nprocs=1) == [
            ("ndarray", "ndarray")
        ]
        assert returns_of(prog, nodes=1, cores=1, nprocs=1,
                          payload="cost-only") == [("Bytes", "Bytes")]

    def test_rank_rngs_are_independent_and_stable(self):
        def prog(mpi):
            yield from mpi.world.barrier()
            return float(mpi.rng.random())

        a = returns_of(prog, nodes=1, cores=3, nprocs=3)
        b = returns_of(prog, nodes=1, cores=3, nprocs=3)
        assert a == b                       # seeded deterministically
        assert len(set(a)) == 3             # distinct streams per rank

    def test_rank_rng_is_built_on_first_use_with_the_same_stream(self):
        """Lazily built, but the stream a program sees is the one it
        always saw: ``default_rng(job.seed + rank)``."""
        built = []

        def prog(mpi, draw):
            yield from mpi.world.barrier()
            built.append(mpi._rng is not None)
            if draw:
                assert mpi.rng is mpi.rng
                return mpi.rng.random(3).tolist()

        assert returns_of(prog, nodes=1, cores=3, nprocs=3,
                          program_args=(False,)) == [None] * 3
        assert built == [False] * 3
        drawn = returns_of(prog, nodes=1, cores=3, nprocs=3, seed=11,
                           program_args=(True,))
        assert drawn == [np.random.default_rng(11 + rank).random(3).tolist()
                         for rank in range(3)]

    def test_program_args_forwarded(self):
        def prog(mpi, factor, offset=0):
            yield from mpi.world.barrier()
            return mpi.world.rank * factor + offset

        result = run(
            prog, nodes=1, cores=2, nprocs=2,
            program_args=(10,), program_kwargs={"offset": 1},
        )
        assert result.returns == [1, 11]


class TestPlacementIntegration:
    def test_round_robin_node_assignment(self):
        def prog(mpi):
            yield from mpi.world.barrier()
            return mpi.node

        placement = Placement.round_robin(2, 2)
        rets = returns_of(prog, nodes=2, cores=2, placement=placement)
        assert rets == [0, 1, 0, 1]

    def test_irregular_counts(self):
        def prog(mpi):
            shm = yield from mpi.world.split_type_shared()
            return shm.size

        placement = Placement.irregular([3, 1])
        rets = returns_of(prog, nodes=2, cores=4, placement=placement)
        assert rets == [3, 3, 3, 1]


class TestRankProcesses:
    """Each rank's process drives the program's coroutine itself: the
    result, finish times and failures read as with a wrapper around it."""

    def test_returns_and_finish_times_of_staggered_ranks(self):
        delays = [3e-6, 0.0, 1e-3, 2.5e-7]

        def prog(mpi):
            delay = delays[mpi.world_rank]
            if delay:
                yield mpi.compute(delay)
            return ("done", mpi.world_rank)

        result = run(prog, nodes=1, cores=4, nprocs=4)
        # The tick grid's exact arithmetic (Engine.qtime from t = 0).
        expected = [math.ceil(d * 2.0 ** 50) * 2.0 ** -50 for d in delays]
        assert result.finish_times == expected
        assert result.returns == [("done", r) for r in range(4)]
        assert result.elapsed == max(expected)

    def test_a_raising_rank_is_named(self):
        def prog(mpi):
            yield mpi.compute(1e-6)
            if mpi.world_rank == 2:
                raise KeyError("boom")
            return None

        with pytest.raises(SimulationError,
                           match="unhandled exception in process 'rank2'"
                           ) as info:
            run(prog, nodes=1, cores=4, nprocs=4)
        assert isinstance(info.value.__cause__, KeyError)

    def test_a_program_without_a_coroutine_is_named(self):
        def prog(mpi):
            return mpi.world_rank

        with pytest.raises(SimulationError,
                           match="unhandled exception in process 'rank0'"
                           ) as info:
            run(prog, nodes=1, cores=2, nprocs=2)
        assert isinstance(info.value.__cause__, TypeError)

    def test_a_program_may_return_its_coroutine(self):
        def body(mpi):
            total = yield from mpi.world.allreduce(
                np.array([float(mpi.world_rank)]))
            return float(total[0])

        def prog(mpi):
            return body(mpi)

        assert returns_of(prog, nodes=1, cores=3, nprocs=3) == [3.0] * 3
