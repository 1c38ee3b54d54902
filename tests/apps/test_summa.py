"""Tests for the SUMMA kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.summa import (
    SummaConfig,
    grid_shape,
    summa_program,
    verify_summa,
)
from tests.helpers import run


class TestConfig:
    def test_grid_shape(self):
        assert grid_shape(16) == 4
        assert grid_shape(1) == 1
        with pytest.raises(ValueError):
            grid_shape(6)

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            SummaConfig(variant="magic")
        with pytest.raises(ValueError):
            SummaConfig(block=0)


@pytest.mark.parametrize("variant", ["ori", "hybrid"])
@pytest.mark.parametrize("grid,block", [(2, 4), (2, 8), (3, 5), (4, 4)])
class TestCorrectness:
    def test_product_matches_numpy(self, variant, grid, block):
        nprocs = grid * grid
        cfg = SummaConfig(block=block, variant=variant, verify=True)
        result = run(
            summa_program, nodes=2, cores=(nprocs + 1) // 2,
            nprocs=nprocs, program_kwargs={"config": cfg},
        )
        assert verify_summa(result.returns, grid, block)


class TestVariantsAgree:
    def test_same_result_both_variants(self):
        results = {}
        for variant in ("ori", "hybrid"):
            cfg = SummaConfig(block=6, variant=variant, verify=True)
            res = run(summa_program, nodes=2, cores=2, nprocs=4,
                      program_kwargs={"config": cfg})
            results[variant] = np.concatenate(
                [r["c"].reshape(-1) for r in res.returns]
            )
        np.testing.assert_allclose(
            results["ori"], results["hybrid"], atol=1e-10
        )

    def test_stats_reported(self):
        cfg = SummaConfig(block=4, variant="hybrid")
        res = run(summa_program, nodes=1, cores=4, nprocs=4,
                  program_kwargs={"config": cfg})
        for r in res.returns:
            assert r["total"] >= r["comm"] >= 0
            assert r["compute"] >= 0
            assert "norm" in r


class TestModelMode:
    def test_model_mode_runs_without_data(self):
        for variant in ("ori", "hybrid"):
            cfg = SummaConfig(block=16, variant=variant)
            res = run(summa_program, nodes=2, cores=2, nprocs=4,
                      payload="cost-only",
                      program_kwargs={"config": cfg})
            assert all(r["norm"] is None for r in res.returns)
            assert all(r["total"] > 0 for r in res.returns)

    def test_hybrid_wins_on_shared_node_model(self):
        def total(variant):
            cfg = SummaConfig(block=16, variant=variant)
            res = run(summa_program, nodes=1, cores=16, nprocs=16,
                      payload="cost-only",
                      program_kwargs={"config": cfg})
            return max(r["total"] for r in res.returns)

        assert total("hybrid") < total("ori")


class TestOverlap:
    @pytest.mark.parametrize("variant", ["ori", "hybrid"])
    def test_overlap_product_matches_numpy(self, variant):
        cfg = SummaConfig(block=5, variant=variant, verify=True,
                          overlap=True)
        res = run(summa_program, nodes=2, cores=2, nprocs=4,
                  program_kwargs={"config": cfg})
        assert verify_summa(res.returns, 2, 5)

    @pytest.mark.parametrize("variant", ["ori", "hybrid"])
    def test_overlap_matches_blocking_result(self, variant):
        results = {}
        for overlap in (False, True):
            cfg = SummaConfig(block=6, variant=variant, verify=True,
                              overlap=overlap)
            res = run(summa_program, nodes=2, cores=2, nprocs=4,
                      program_kwargs={"config": cfg})
            results[overlap] = np.concatenate(
                [r["c"].reshape(-1) for r in res.returns]
            )
        np.testing.assert_allclose(results[False], results[True],
                                   atol=1e-10)

    @pytest.mark.parametrize("variant", ["ori", "hybrid"])
    def test_overlap_is_faster_in_model_mode(self, variant):
        def total(overlap):
            cfg = SummaConfig(block=64, variant=variant, overlap=overlap)
            res = run(summa_program, nodes=4, cores=4, nprocs=16,
                      payload="cost-only",
                      program_kwargs={"config": cfg})
            return max(r["total"] for r in res.returns)

        assert total(True) < total(False)

    def test_overlap_reports_exposed_comm_only(self):
        cfg = SummaConfig(block=64, variant="ori", overlap=True)
        res = run(summa_program, nodes=4, cores=4, nprocs=16,
                  payload="cost-only", program_kwargs={"config": cfg})
        for r in res.returns:
            assert r["total"] >= r["comm"] >= 0
            assert r["compute"] >= 0
