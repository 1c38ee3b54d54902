"""Tests for the power-iteration workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.matvec import (
    MatvecConfig,
    _planted_matrix,
    power_iteration_program,
)
from tests.helpers import run


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MatvecConfig(variant="x")
        with pytest.raises(ValueError):
            MatvecConfig(n=0)


class TestPlantedMatrix:
    def test_symmetric_with_dominant_eigenvalue(self):
        a = _planted_matrix(64, seed=1)
        np.testing.assert_allclose(a, a.T)
        eigs = np.linalg.eigvalsh(a)
        assert eigs[-1] > 4.0
        assert eigs[-1] > 2.0 * abs(eigs[-2])


@pytest.mark.parametrize("variant", ["ori", "hybrid"])
class TestConvergence:
    def test_finds_dominant_eigenvalue(self, variant):
        cfg = MatvecConfig(n=96, iterations=30, variant=variant)
        res = run(power_iteration_program, nodes=2, cores=2, nprocs=4,
                  program_kwargs={"config": cfg})
        a = _planted_matrix(96, cfg.seed)
        true_lam = np.linalg.eigvalsh(a)[-1]
        for r in res.returns:
            assert r["eigenvalue"] == pytest.approx(true_lam, rel=0.01)
            assert r["residual"] < 0.2

    def test_uneven_partition(self, variant):
        # n not divisible by nprocs exercises the irregular buffers.
        cfg = MatvecConfig(n=50, iterations=25, variant=variant)
        res = run(power_iteration_program, nodes=2, cores=3, nprocs=6,
                  program_kwargs={"config": cfg})
        lams = {round(r["eigenvalue"], 6) for r in res.returns}
        assert len(lams) == 1  # every rank agrees


class TestVariantsAgree:
    def test_same_eigenvalue_both_variants(self):
        lams = {}
        for variant in ("ori", "hybrid"):
            cfg = MatvecConfig(n=64, iterations=25, variant=variant)
            res = run(power_iteration_program, nodes=2, cores=2, nprocs=4,
                      program_kwargs={"config": cfg})
            lams[variant] = res.returns[0]["eigenvalue"]
        assert lams["ori"] == pytest.approx(lams["hybrid"], rel=1e-6)

    def test_hybrid_comm_cheaper_on_node(self):
        def comm_time(variant):
            cfg = MatvecConfig(n=512, iterations=5, variant=variant)
            res = run(power_iteration_program, nodes=1, cores=8, nprocs=8,
                      payload="cost-only",
                      program_kwargs={"config": cfg})
            return max(r["comm"] for r in res.returns)

        assert comm_time("hybrid") < comm_time("ori")
