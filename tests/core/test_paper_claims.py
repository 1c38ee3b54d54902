"""Small-scale timing assertions of the paper's headline claims.

These are the paper's qualitative results stated as executable tests at
test-suite-friendly sizes; the full-scale versions live in benchmarks/.
"""

from __future__ import annotations

import pytest

from repro.bench.osu import osu_allgather_latency
from repro.machine import Placement, hazel_hen, vulcan
from repro.mpi import run_program


def latencies(spec, placement, nbytes):
    hy = osu_allgather_latency(spec, placement, nbytes, "hybrid")
    pure = osu_allgather_latency(spec, placement, nbytes, "pure")
    return hy, pure


class TestFig7Claims:
    """Single full node: hybrid flat and faster; pure grows."""

    def test_hybrid_constant_pure_growing(self):
        spec = hazel_hen(1)
        placement = Placement.block(1, 24)
        hy_small, pure_small = latencies(spec, placement, 8)
        hy_big, pure_big = latencies(spec, placement, 8 * 16384)
        assert hy_small == pytest.approx(hy_big)    # one barrier each
        assert pure_big > 100 * pure_small          # steady growth
        assert hy_small < pure_small
        assert hy_big < pure_big

    def test_holds_for_both_libraries(self):
        placement = Placement.block(1, 24)
        for spec in (hazel_hen(1), vulcan(1)):
            hy, pure = latencies(spec, placement, 4096)
            assert hy < pure, spec.name


class TestFig8Claims:
    """One rank per node: hybrid slightly slower, never dramatically."""

    def test_hybrid_never_better_never_catastrophic(self):
        spec = hazel_hen(8)
        placement = Placement.irregular([1] * 8)
        for elements in (1, 512, 16384):
            hy, pure = latencies(spec, placement, elements * 8)
            assert hy >= 0.95 * pure, elements
            assert hy <= 1.6 * pure, elements


class TestFig9Claims:
    """Advantage grows with ranks per node."""

    def test_monotone_in_ppn(self):
        spec = hazel_hen(4)
        ratios = []
        for ppn in (2, 4, 8):
            placement = Placement.block(4, ppn)
            hy, pure = latencies(spec, placement, 512 * 8)
            ratios.append(pure / hy)
        assert ratios == sorted(ratios)
        assert ratios[-1] > ratios[0] > 1.0


class TestFig10Claims:
    """Irregular population: hybrid still wins."""

    def test_irregular_advantage(self):
        spec = hazel_hen(4)
        placement = Placement.irregular([6, 6, 6, 4])
        for elements in (64, 4096):
            hy = osu_allgather_latency(
                spec, placement, elements * 8, "hybrid"
            )
            pure = osu_allgather_latency(
                spec, placement, elements * 8, "pure", irregular=True
            )
            assert hy < pure, elements


class TestMemoryClaims:
    """The paper's memory argument: one copy per node, not per rank."""

    def test_hybrid_removes_on_node_copies(self):
        from repro.bench.osu import (
            hybrid_allgather_program,
            pure_allgather_program,
        )

        spec = hazel_hen(2)
        placement = Placement.block(2, 8)
        hy = run_program(
            spec, None, hybrid_allgather_program, placement=placement,
            payload="cost-only",
            program_kwargs={"nbytes_per_rank": 4096},
        )
        pure = run_program(
            spec, None, pure_allgather_program, placement=placement,
            payload="cost-only",
            program_kwargs={"nbytes_per_rank": 4096},
        )
        # Hybrid: zero CICO copies (only barriers + bridge traffic).
        assert hy.intra_copies == 0
        assert pure.intra_copies > 0

    def test_per_node_memory_constant_in_ppn(self):
        # The shared window's size is msg * nprocs per NODE regardless of
        # how many ranks share the node (paper §4: per-core memory costs
        # constant) — every rank handle reports the same total.
        from repro.core import HybridContext

        def prog(mpi):
            ctx = yield from HybridContext.create(mpi.world)
            buf = yield from ctx.allgather_buffer(1024)
            yield from ctx.shm.barrier()
            return buf.win.total_bytes if ctx.is_leader else 0

        for ppn in (2, 4):
            spec = hazel_hen(2)
            placement = Placement.block(2, ppn)
            result = run_program(
                spec, None, prog, placement=placement,
                payload="cost-only",
            )
            window_bytes = [b for b in result.returns if b]
            # One allocation per node, each the full result size.
            assert len(window_bytes) == 2
            assert all(b == 1024 * 2 * ppn for b in window_bytes)
