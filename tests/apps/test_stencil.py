"""Tests for the Jacobi halo-exchange example workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.stencil import StencilConfig, _jacobi_sweep, stencil_program
from tests.helpers import run


def reference_jacobi(global_grid: np.ndarray, iterations: int) -> np.ndarray:
    """Single-process reference of the distributed stencil."""
    g = global_grid.copy()
    for _ in range(iterations):
        padded = np.zeros((g.shape[0] + 2, g.shape[1]))
        padded[1:-1] = g
        new = g.copy()
        new[:, 1:-1] = 0.25 * (
            padded[:-2, 1:-1]
            + padded[2:, 1:-1]
            + padded[1:-1, :-2]
            + padded[1:-1, 2:]
        )
        g = new
    return g


def build_global(nprocs: int, rows: int, cols: int) -> np.ndarray:
    strips = [
        np.sin(np.arange(rows * cols, dtype=np.float64) + rank).reshape(
            rows, cols
        )
        for rank in range(nprocs)
    ]
    return np.vstack(strips)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StencilConfig(variant="weird")
        with pytest.raises(ValueError):
            StencilConfig(rows_per_rank=0)


@pytest.mark.parametrize("variant", ["pure", "hybrid"])
class TestAgainstReference:
    def test_matches_serial_jacobi(self, variant):
        rows, cols, iters, nprocs = 4, 8, 3, 4
        cfg = StencilConfig(
            rows_per_rank=rows, cols=cols, iterations=iters, variant=variant
        )
        res = run(stencil_program, nodes=2, cores=2, nprocs=nprocs,
                  program_kwargs={"config": cfg})
        expected = reference_jacobi(
            build_global(nprocs, rows, cols), iters
        )
        total = sum(r["checksum"] for r in res.returns)
        assert total == pytest.approx(float(expected.sum()), abs=1e-9)


class TestVariantEquivalence:
    @pytest.mark.parametrize("nodes,cores", [(1, 4), (2, 3), (3, 2)])
    def test_checksums_identical(self, nodes, cores):
        sums = {}
        for variant in ("pure", "hybrid"):
            cfg = StencilConfig(
                rows_per_rank=4, cols=6, iterations=4, variant=variant
            )
            res = run(stencil_program, nodes=nodes, cores=cores,
                      program_kwargs={"config": cfg})
            sums[variant] = sum(r["checksum"] for r in res.returns)
        assert sums["pure"] == pytest.approx(sums["hybrid"], abs=1e-12)

    def test_hybrid_avoids_on_node_copies(self):
        cfg_kwargs = dict(rows_per_rank=8, cols=32, iterations=2)
        res_pure = run(
            stencil_program, nodes=1, cores=4, nprocs=4,
            program_kwargs={
                "config": StencilConfig(variant="pure", **cfg_kwargs)
            },
        )
        res_hy = run(
            stencil_program, nodes=1, cores=4, nprocs=4,
            program_kwargs={
                "config": StencilConfig(variant="hybrid", **cfg_kwargs)
            },
        )
        assert res_hy.intra_copies < res_pure.intra_copies


class TestSweepKernel:
    def test_interior_update(self):
        interior = np.ones((3, 4))
        out = _jacobi_sweep(interior, None, None)
        # interior column points with all-ones neighbours: edges of the
        # strip see zero halos above/below.
        assert out[1, 1] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.75)

    def test_halos_enter_update(self):
        interior = np.zeros((1, 3))
        up = np.ones(3)
        out = _jacobi_sweep(interior, up, None)
        assert out[0, 1] == pytest.approx(0.25)


class TestOverlap:
    @pytest.mark.parametrize("variant", ["pure", "hybrid"])
    def test_overlap_checksum_matches_blocking(self, variant):
        checksums = {}
        for overlap in (False, True):
            cfg = StencilConfig(rows_per_rank=8, cols=16, iterations=4,
                                variant=variant, overlap=overlap)
            res = run(stencil_program, nodes=2, cores=2, nprocs=4,
                      program_kwargs={"config": cfg})
            checksums[overlap] = [r["checksum"] for r in res.returns]
        assert checksums[False] == checksums[True]

    @pytest.mark.parametrize("variant", ["pure", "hybrid"])
    def test_overlap_no_slower_in_model_mode(self, variant):
        def total(overlap):
            cfg = StencilConfig(rows_per_rank=256, cols=2048,
                                iterations=4, variant=variant,
                                overlap=overlap)
            res = run(stencil_program, nodes=2, cores=4, nprocs=8,
                      payload="cost-only",
                      program_kwargs={"config": cfg})
            return max(r["total"] for r in res.returns)

        assert total(True) <= total(False)
