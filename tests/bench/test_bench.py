"""Tests for the benchmark harness (OSU protocol, figures, CLI)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench.figures import FIGURES, get_figure
from repro.bench.harness import Figure, Ms, Ratio, format_table
from repro.bench.osu import osu_allgather_latency, osu_latency_program
from repro.machine import Placement, testing_machine as make_testing_spec
from repro.mpi import run_program


class TestOsuProtocol:
    def test_warmup_excluded_from_timing(self):
        # An op with a one-off setup cost: the first call is slow.
        def program(mpi):
            state = {"first": True}

            def op(_mpi):
                if state["first"]:
                    state["first"] = False
                    yield _mpi.compute(1.0)  # expensive one-off
                yield _mpi.compute(1e-6)

            latency = yield from osu_latency_program(
                mpi, op, reps=2, warmup=1
            )
            return latency

        result = run_program(
            make_testing_spec(1, 2), 2, program, payload_mode="model"
        )
        assert all(t < 1e-4 for t in result.returns)

    def test_latency_helper_variants(self):
        spec = make_testing_spec(2, 2)
        placement = Placement.block(2, 2)
        hy = osu_allgather_latency(spec, placement, 64, "hybrid")
        pure = osu_allgather_latency(spec, placement, 64, "pure")
        assert hy > 0 and pure > 0
        with pytest.raises(ValueError):
            osu_allgather_latency(spec, placement, 64, "quantum")


def _tiny(nbytes: int, variant: str, **fields):
    from repro.bench.sweep import SweepPoint

    return SweepPoint(**{"machine": "testing", "counts": (2, 2),
                         "nbytes": nbytes, "variant": variant, **fields})


class TestHarness:
    def test_figure_run_collects_rows(self):
        from repro.bench.sweep import SweepPoint, run_point

        summa = SweepPoint(machine="testing", counts=(4,),
                           workload="summa", params={"block": 4})

        def rows(mode):
            return [
                {"x": n, "hy_us": _tiny(n, "hybrid"),
                 "pure_us": _tiny(n, "pure"),
                 "ratio": Ratio("pure_us", "hy_us"), "app_ms": Ms(summa)}
                for n in (8, 64)
            ]

        fig = Figure(figure_id="toy", title="Toy", paper_claim="n/a",
                     rows=rows)
        # One point per distinct cell: the SUMMA point is shared.
        assert len(fig.points("quick")) == 5
        result = fig.run(mode="quick")
        assert result.columns == ["x", "hy_us", "pure_us", "ratio",
                                  "app_ms"]
        assert result.series("x") == [8, 64]
        for row in result.rows:
            hy = run_point(_tiny(row["x"], "hybrid"))["latency_us"]
            pure = run_point(_tiny(row["x"], "pure"))["latency_us"]
            assert (row["hy_us"], row["pure_us"]) == (hy, pure)
            assert row["ratio"] == pure / hy
            assert row["app_ms"] == run_point(summa)["latency_s"] * 1e3
        assert result.figure_id == "toy"
        assert "Toy" in result.render()

    def test_mode_validated(self):
        fig = Figure("t", "T", "c", lambda m: [])
        with pytest.raises(ValueError):
            fig.run(mode="huge")

    def test_points_must_be_named_apart(self):
        from repro.bench.harness import point_id

        a = _tiny(8, "hybrid", machine="hazel_hen")
        b = _tiny(8, "hybrid", machine="vulcan")
        assert point_id(b) == "vulcan/" + point_id(a)
        fig = Figure("t", "T", "c", lambda m: [{"a": a, "b": b}])
        assert [name for name, _p in fig.points("quick")] == [
            "n2x2/1el/hybrid", "vulcan/n2x2/1el/hybrid"]
        # Points the name does not tell apart cannot share a figure.
        clash = Figure("t", "T", "c", lambda m: [
            {"a": a, "b": replace(a, payload="data")}])
        with pytest.raises(ValueError, match="two different points"):
            clash.points("quick")

    def test_failed_point_fails_the_figure(self, monkeypatch, capsys):
        from repro.bench.cli import main
        from repro.bench.harness import FigureError

        bad = Figure("bad", "Bad", "c", lambda m: [
            {"x": 1, "ok_us": _tiny(8, "hybrid"),
             "bad_us": _tiny(8, "hybrid", algo="no_such_algorithm")}])
        with pytest.raises(FigureError, match="no_such_algorithm"):
            bad.run(mode="quick")
        monkeypatch.setitem(FIGURES, "bad", bad)
        assert main(["--figure", "bad", "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "no_such_algorithm" in captured.err
        assert "bad_us" not in captured.out  # no table, no '-' cell

    def test_format_table_aligns(self):
        text = format_table(
            ["a", "bb"], [{"a": 1, "bb": 2.5}, {"a": 10, "bb": None}]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "-" in lines[1]
        assert "-" in lines[3]  # None rendered as '-'


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        expected = {
            "fig7", "fig8a", "fig8b", "fig9a", "fig9b", "fig10",
            "fig11a", "fig11b", "fig11c", "fig11d", "fig12",
        }
        assert expected <= set(FIGURES)

    def test_ablations_present(self):
        assert {
            "abl_sync", "abl_pipeline", "abl_placement", "abl_multileader"
        } <= set(FIGURES)

    def test_unknown_figure_lists_known(self):
        with pytest.raises(KeyError, match="fig7"):
            get_figure("fig99")

    def test_every_figure_declares_claim_and_sweeps(self):
        for fid, fig in FIGURES.items():
            assert fig.paper_claim, fid
            quick = fig.rows("quick")
            paper = fig.rows("paper")
            assert quick, fid
            assert len(paper) >= len(quick), fid
            # Every figure measures through sweep points, and its rows
            # name them apart.
            assert fig.points("quick") and fig.points("paper"), fid


class TestCli:
    def test_list(self, capsys):
        from repro.bench.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "abl_sync" in out

    def test_requires_action(self, capsys):
        from repro.bench.cli import main

        assert main([]) == 2

    def test_unknown_figure_exit_code(self, capsys):
        from repro.bench.cli import main

        assert main(["--figure", "nope"]) == 2
