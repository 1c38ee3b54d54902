"""Tests for the BPMF application."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.bpmf import BPMFConfig, block_partition, bpmf_program
from repro.apps.datasets import synthetic_chembl
from tests.helpers import run


@pytest.fixture(scope="module")
def small_dataset():
    return synthetic_chembl(
        n_compounds=150, n_targets=40, density=0.12, latent_dim=6, seed=5
    )


class TestPartition:
    def test_block_partition_covers_range(self):
        parts = block_partition(10, 3)
        assert parts == [(0, 4), (4, 7), (7, 10)]
        assert parts[0][1] - parts[0][0] >= parts[-1][1] - parts[-1][0]

    def test_more_parts_than_items(self):
        parts = block_partition(2, 4)
        assert parts == [(0, 1), (1, 2), (2, 2), (2, 2)]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BPMFConfig(variant="x")
        with pytest.raises(ValueError):
            BPMFConfig(iterations=0)

    def test_dims_prefer_dataset(self, small_dataset):
        cfg = BPMFConfig(dataset=small_dataset)
        assert cfg.dims() == (150, 40, small_dataset.nnz)
        cfg2 = BPMFConfig(num_compounds=5, num_targets=3, nnz=7)
        assert cfg2.dims() == (5, 3, 7)


@pytest.mark.parametrize("variant", ["ori", "hybrid"])
class TestLearning:
    def test_rmse_decreases(self, small_dataset, variant):
        cfg = BPMFConfig(
            dataset=small_dataset, iterations=5, latent_dim=6,
            variant=variant, per_item_overhead=0.0,
            per_iteration_overhead=0.0,
        )
        res = run(bpmf_program, nodes=2, cores=2, nprocs=4,
                  program_kwargs={"config": cfg})
        rmse = res.returns[0]["rmse"]
        assert len(rmse) == 5
        assert rmse[-1] < rmse[0] * 0.6, rmse

    def test_all_ranks_agree_on_rmse(self, small_dataset, variant):
        cfg = BPMFConfig(
            dataset=small_dataset, iterations=3, latent_dim=6,
            variant=variant, per_item_overhead=0.0,
            per_iteration_overhead=0.0,
        )
        res = run(bpmf_program, nodes=2, cores=2, nprocs=4,
                  program_kwargs={"config": cfg})
        tracks = [tuple(r["rmse"]) for r in res.returns]
        assert len(set(tracks)) == 1  # allreduced metric is global


class TestModelMode:
    def test_runs_at_scale_without_data(self):
        cfg = BPMFConfig(iterations=2, variant="hybrid")
        res = run(bpmf_program, nodes=2, cores=4, nprocs=8,
                  payload="cost-only", program_kwargs={"config": cfg})
        r = res.returns[0]
        assert r["total"] > 0 and r["comm"] > 0
        assert r["rmse"] == []

    def test_hybrid_faster_in_comm(self):
        def comm_time(variant):
            cfg = BPMFConfig(iterations=2, variant=variant)
            res = run(bpmf_program, nodes=2, cores=4, nprocs=8,
                      payload="cost-only",
                      program_kwargs={"config": cfg})
            return max(r["comm"] for r in res.returns)

        assert comm_time("hybrid") < comm_time("ori")
