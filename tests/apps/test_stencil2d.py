"""Tests for the 2D Cartesian stencil."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.stencil2d import Stencil2DConfig, _sweep, stencil2d_program
from repro.mpi.cart import dims_create
from tests.helpers import run


def reference_grid(nprocs: int, tile: int, iterations: int) -> np.ndarray:
    """Serial reference: assemble the global grid and sweep it."""
    dims = dims_create(nprocs, 2)
    rows, cols = dims
    grid = np.zeros((rows * tile, cols * tile))
    for rank in range(nprocs):
        r, c = rank // cols, rank % cols
        grid[r * tile : (r + 1) * tile, c * tile : (c + 1) * tile] = np.sin(
            np.arange(tile * tile, dtype=np.float64) * 0.37 + rank
        ).reshape(tile, tile)
    for _ in range(iterations):
        padded = np.zeros((grid.shape[0] + 2, grid.shape[1] + 2))
        padded[1:-1, 1:-1] = grid
        grid = 0.25 * (
            padded[:-2, 1:-1]
            + padded[2:, 1:-1]
            + padded[1:-1, :-2]
            + padded[1:-1, 2:]
        )
    return grid


class TestSweepKernel:
    def test_interior_only(self):
        tile = np.ones((2, 2))
        out = _sweep(tile, None, None, None, None)
        assert out[0, 0] == pytest.approx(0.5)

    def test_full_halos(self):
        tile = np.zeros((2, 2))
        ones = np.ones(2)
        out = _sweep(tile, ones, ones, ones, ones)
        # Corner points see one vertical + one horizontal halo neighbour.
        assert out[0, 0] == pytest.approx(0.5)


@pytest.mark.parametrize("variant", ["pure", "hybrid"])
@pytest.mark.parametrize("nprocs,nodes,cores", [(4, 2, 2), (6, 2, 3), (8, 2, 4)])
class TestAgainstReference:
    def test_matches_serial(self, variant, nprocs, nodes, cores):
        tile, iters = 6, 3
        cfg = Stencil2DConfig(tile=tile, iterations=iters, variant=variant)
        res = run(stencil2d_program, nodes=nodes, cores=cores,
                  nprocs=nprocs, program_kwargs={"config": cfg})
        expected = float(reference_grid(nprocs, tile, iters).sum())
        total = sum(r["checksum"] for r in res.returns)
        assert total == pytest.approx(expected, abs=1e-9)


class TestVariantBehaviour:
    def test_checksums_match_between_variants(self):
        sums = {}
        for variant in ("pure", "hybrid"):
            cfg = Stencil2DConfig(tile=5, iterations=4, variant=variant)
            res = run(stencil2d_program, nodes=2, cores=2, nprocs=4,
                      program_kwargs={"config": cfg})
            sums[variant] = sum(r["checksum"] for r in res.returns)
        assert sums["pure"] == pytest.approx(sums["hybrid"], abs=1e-12)

    def test_hybrid_sends_fewer_network_messages_on_one_node(self):
        cfg_p = Stencil2DConfig(tile=8, iterations=2, variant="pure")
        cfg_h = Stencil2DConfig(tile=8, iterations=2, variant="hybrid")
        pure = run(stencil2d_program, nodes=1, cores=4, nprocs=4,
                   program_kwargs={"config": cfg_p})
        hy = run(stencil2d_program, nodes=1, cores=4, nprocs=4,
                 program_kwargs={"config": cfg_h})
        # Single node: hybrid halos are all loads -> zero p2p messages
        # beyond barriers; pure exchanges 4 halo pairs per iteration.
        assert hy.intra_copies < pure.intra_copies

    def test_grid_dims_reported(self):
        cfg = Stencil2DConfig(tile=4, iterations=1)
        res = run(stencil2d_program, nodes=1, cores=6, nprocs=6,
                  program_kwargs={"config": cfg})
        assert all(r["dims"] == (3, 2) for r in res.returns)


class TestOverlap:
    @pytest.mark.parametrize("variant", ["pure", "hybrid"])
    def test_overlap_checksum_matches_blocking(self, variant):
        checksums = {}
        for overlap in (False, True):
            cfg = Stencil2DConfig(tile=8, iterations=3, variant=variant,
                                  overlap=overlap)
            res = run(stencil2d_program, nodes=2, cores=2, nprocs=4,
                      program_kwargs={"config": cfg})
            checksums[overlap] = [r["checksum"] for r in res.returns]
        assert checksums[False] == checksums[True]

    @pytest.mark.parametrize("variant", ["pure", "hybrid"])
    def test_overlap_no_slower_in_model_mode(self, variant):
        def total(overlap):
            cfg = Stencil2DConfig(tile=64, iterations=3, variant=variant,
                                  overlap=overlap)
            res = run(stencil2d_program, nodes=2, cores=4, nprocs=8,
                      payload="cost-only",
                      program_kwargs={"config": cfg})
            return max(r["total"] for r in res.returns)

        assert total(True) <= total(False)
