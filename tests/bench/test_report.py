"""Tests for report generation, trace tooling, and render round-trip."""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import FigureResult
from repro.bench.report import (
    SHAPE_CHECKS,
    figure_section,
    parse_rendered,
    render_report,
)
from repro.mpi import Bytes, run_program
from repro.machine import testing_machine as make_testing_spec
from repro.trace import (
    format_timeline,
    summarize,
    to_chrome_trace,
)


def toy_result(figure_id="fig12", rows=None):
    rows = rows or [
        {"cores": 24, "ratio": 1.02, "ori_tt_ms": 100.0, "hy_tt_ms": 98.0},
        {"cores": 240, "ratio": 1.08, "ori_tt_ms": 20.0, "hy_tt_ms": 18.5},
    ]
    return FigureResult(
        figure_id=figure_id,
        title="Fig 12 — BPMF total-time ratio Ori/Hy, 24..1024 cores",
        columns=list(rows[0]),
        rows=rows,
        mode="quick",
        wall_seconds=0.1,
    )


class TestShapeChecks:
    def test_every_figure_has_a_check(self):
        from repro.bench.figures import FIGURES

        assert set(SHAPE_CHECKS) == set(FIGURES)

    def test_fig12_check_passes_on_good_shape(self):
        ok, _ = SHAPE_CHECKS["fig12"].verdict(toy_result())
        assert ok

    def test_fig12_check_fails_on_flat_ratio(self):
        bad = toy_result(rows=[
            {"cores": 24, "ratio": 1.08, "ori_tt_ms": 100.0,
             "hy_tt_ms": 92.0},
            {"cores": 240, "ratio": 1.02, "ori_tt_ms": 20.0,
             "hy_tt_ms": 19.6},
        ])
        ok, _ = SHAPE_CHECKS["fig12"].verdict(bad)
        assert not ok

    def test_check_errors_reported_not_raised(self):
        broken = toy_result(rows=[{"cores": 1}])  # missing 'ratio'
        ok, msg = SHAPE_CHECKS["fig12"].verdict(broken)
        assert not ok and "errored" in msg


class TestSections:
    def test_section_contains_verdict_and_table(self):
        text = figure_section(toy_result(), "ratio rises slowly")
        assert "REPRODUCED" in text
        assert "| cores |" in text or "| cores " in text
        assert "ratio rises slowly" in text

    def test_render_report_joins_sections(self):
        text = render_report(
            [(toy_result(), "claim A")], header="# Results"
        )
        assert text.startswith("# Results")
        assert "claim A" in text


class TestRenderRoundTrip:
    def test_parse_rendered_recovers_rows(self):
        from repro.bench.figures import get_figure

        result = get_figure("abl_placement").run(mode="quick")
        parsed = parse_rendered(result.render())
        assert len(parsed) == 1
        back = parsed[0]
        assert back.figure_id == "abl_placement"
        assert back.columns == result.columns
        assert len(back.rows) == len(result.rows)
        for a, b in zip(back.rows, result.rows):
            for col in result.columns:
                assert a[col] == pytest.approx(b[col], rel=0.01)

    def test_parse_multiple_blocks(self):
        text = toy_result().render() + "\n\n" + toy_result().render()
        parsed = parse_rendered(text)
        assert len(parsed) == 2


class TestTraceTools:
    @pytest.fixture()
    def trace(self):
        def prog(mpi):
            yield from mpi.world.allgather(Bytes(64))
            yield from mpi.world.barrier()
            return None

        result = run_program(
            make_testing_spec(2, 2), 4, prog,
            trace=True, payload="cost-only",
        )
        return result.trace

    def test_summarize_counts(self, trace):
        summary = summarize(trace)
        allgather_keys = [k for k in summary if k[0] == "allgather"]
        assert allgather_keys
        total_calls = sum(v["calls"] for v in summary.values())
        assert total_calls == len(trace)

    def test_chrome_trace_is_json_serializable(self, trace):
        blob = to_chrome_trace(trace)
        text = json.dumps(blob)
        assert "traceEvents" in blob
        assert "allgather" in text

    def test_timeline_renders(self, trace):
        text = format_timeline(trace)
        assert "rank" in text.splitlines()[0]
        assert len(text.splitlines()) > 2

    def test_empty_timeline(self):
        assert format_timeline([]) == "(empty trace)"
