"""Tests for the OS-noise injection model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.noise import NoiseModel
from repro.machine import testing_machine as make_testing_spec
from repro.mpi import run_program


def noisy_job(noise, reps=30):
    def prog(mpi):
        for _ in range(reps):
            yield mpi.compute(1e-5)
            yield from mpi.world.barrier()
        return mpi.now

    return run_program(
        make_testing_spec(2, 4), 8, prog,
        payload="cost-only", noise=noise,
    )


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(jitter=-1)
        with pytest.raises(ValueError):
            NoiseModel(detour_rate=2.0)
        with pytest.raises(ValueError):
            NoiseModel(detour_seconds=-1)

    def test_perturb_never_shrinks(self):
        nm = NoiseModel(jitter=0.1, detour_rate=0.5)
        rng = nm.stream_for(0)
        for _ in range(100):
            assert nm.perturb(1e-5, rng) >= 1e-5

    def test_zero_charge_untouched(self):
        nm = NoiseModel()
        assert nm.perturb(0.0, nm.stream_for(0)) == 0.0

    def test_streams_differ_per_rank(self):
        nm = NoiseModel(jitter=0.1)
        a = nm.perturb(1.0, nm.stream_for(0))
        b = nm.perturb(1.0, nm.stream_for(1))
        assert a != b


class TestNoiseInJobs:
    def test_noise_slows_the_job(self):
        clean = noisy_job(None)
        noisy = noisy_job(NoiseModel(jitter=0.05, detour_rate=0.05))
        assert max(noisy.returns) > max(clean.returns)

    def test_noisy_runs_are_reproducible(self):
        nm = NoiseModel(jitter=0.05, detour_rate=0.05, seed=7)
        a = noisy_job(nm)
        b = noisy_job(NoiseModel(jitter=0.05, detour_rate=0.05, seed=7))
        assert a.returns == b.returns

    def test_different_seeds_change_timing(self):
        a = noisy_job(NoiseModel(seed=1, jitter=0.05))
        b = noisy_job(NoiseModel(seed=2, jitter=0.05))
        assert a.returns != b.returns

    def test_barriers_amplify_noise(self):
        # With barriers, the job pays the per-step MAX of the ranks'
        # noise; without them, only each rank's own sum.  The slowdown
        # factor (noisy/clean) must be larger in the barrier version.
        def prog_barrier(mpi):
            for _ in range(40):
                yield mpi.compute(1e-5)
                yield from mpi.world.barrier()
            return mpi.now

        def prog_free(mpi):
            for _ in range(40):
                yield mpi.compute(1e-5)
            return mpi.now

        nm = NoiseModel(jitter=0.0, detour_rate=0.2, detour_seconds=5e-5)

        def slowdown(prog):
            spec = make_testing_spec(2, 4)
            clean = run_program(spec, 8, prog, payload="cost-only")
            noisy = run_program(spec, 8, prog, payload="cost-only",
                                noise=nm)
            return max(noisy.returns) / max(clean.returns)

        assert slowdown(prog_barrier) > slowdown(prog_free)
