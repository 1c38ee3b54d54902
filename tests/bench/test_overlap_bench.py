"""The committed overlap benchmark stays exact, and the overlap sweep
workload is cache-key-sensitive.

``BENCH_overlap.json`` backs the overlap engine's acceptance claim:
overlap-aware SUMMA is at least 1.2x faster than its blocking
counterpart on a Fig-9-class configuration (hazel_hen, 4 nodes x 4
ranks, block 128).  The simulator is deterministic, so the test
regenerates every point and compares latencies exactly — any drift in
the non-blocking progress machinery, the collectives, or the SUMMA
overlap schedule shows up as a diff against the committed numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.overlap import main as overlap_main
from repro.bench.overlap import run_overlap_suite
from repro.bench.sweep import (
    SweepPoint,
    cache_key,
    expand_spec,
    point_name,
    run_point,
)

BENCH_PATH = Path(__file__).resolve().parents[2] / "BENCH_overlap.json"

_POINT_KEYS = ("pure_us", "compute_us", "overall_us", "effective_us",
               "overlap_pct")
_SUMMA_KEYS = ("blocking_us", "overlap_us", "speedup")


@pytest.fixture(scope="module")
def committed() -> dict:
    with BENCH_PATH.open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def regenerated() -> dict:
    return run_overlap_suite(quick=False)


class TestCommittedBench:
    def test_acceptance_speedup(self, committed):
        """The headline claim: overlap-aware SUMMA >= 1.2x, both
        variants, on the committed Fig-9-class config."""
        assert committed["summa"]["ori/b128"]["speedup"] >= 1.2
        assert committed["summa"]["hybrid/b128"]["speedup"] >= 1.2

    def test_full_overlap_at_osu_grain(self, committed):
        """With the OSU grain (compute = blocking latency) the DES hides
        the whole exchange: every cf1 point reports ~100% overlap."""
        cf1 = {k: v for k, v in committed["points"].items()
               if k.endswith("/cf1")}
        assert cf1
        for point in cf1.values():
            assert point["overlap_pct"] == pytest.approx(100.0, abs=0.1)

    def test_points_regenerate_exactly(self, committed, regenerated):
        assert set(regenerated["points"]) == set(committed["points"])
        for name, point in regenerated["points"].items():
            for key in _POINT_KEYS:
                assert point[key] == pytest.approx(
                    committed["points"][name][key], rel=1e-12, abs=1e-9
                ), f"{name}/{key} drifted"

    def test_summa_regenerates_exactly(self, committed, regenerated):
        assert set(regenerated["summa"]) == set(committed["summa"])
        for name, stats in regenerated["summa"].items():
            for key in _SUMMA_KEYS:
                assert stats[key] == pytest.approx(
                    committed["summa"][name][key], rel=1e-12, abs=1e-9
                ), f"summa {name}/{key} drifted"


class TestOverlapCli:
    def test_quick_run_writes_json(self, tmp_path):
        out = tmp_path / "overlap.json"
        rc = overlap_main(["--quick", "--quiet", "--nodes", "2",
                           "--ppn", "2", "--out-json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "quick"
        assert doc["points"] and doc["summa"]

    def test_bad_args_rejected(self):
        assert overlap_main(["--nodes", "0"]) == 2

    @pytest.mark.parametrize("args", [["--reps", "0"], ["--warmup", "-1"]])
    def test_bad_repetitions_rejected(self, args, capsys):
        assert overlap_main(["--quick", "--quiet", "--nodes", "2",
                             "--ppn", "2"] + args) == 2
        assert "--reps must be >= 1" in capsys.readouterr().err


class TestOverlapSweepWorkload:
    def test_spec_expansion(self):
        pts = expand_spec({
            "machine": "testing", "nodes": 2, "ppn": 2,
            "elements": [512], "variant": ["hybrid", "pure"],
            "workload": "overlap", "compute_grain": [0.5, 1.0],
        })
        names = [point_name(p) for p in pts]
        assert names == [
            "n2x2/512el/hybrid/overlap0.5",
            "n2x2/512el/hybrid/overlap1",
            "n2x2/512el/pure/overlap0.5",
            "n2x2/512el/pure/overlap1",
        ]

    def test_cache_key_sensitive_to_compute_grain(self):
        base = dict(machine="testing", counts=(2, 2), nbytes=4096,
                    workload="overlap")
        keys = {cache_key(SweepPoint(compute_grain=g, **base))
                for g in (0.25, 0.5, 1.0)}
        assert len(keys) == 3
        # ... and to the workload itself.
        latency = SweepPoint(machine="testing", counts=(2, 2), nbytes=4096)
        assert cache_key(latency) not in keys

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            SweepPoint(machine="testing", counts=(2,), workload="bogus")
        with pytest.raises(ValueError):
            SweepPoint(machine="testing", counts=(2,), compute_grain=-1.0)

    def test_sim_point_reports_effective_latency(self):
        point = SweepPoint(machine="testing", counts=(4, 4), nbytes=4096,
                           workload="overlap", compute_grain=0.5)
        record = run_point(point)
        assert record["overlap_pct"] == pytest.approx(50.0, abs=0.5)
        assert record["latency_us"] == pytest.approx(
            record["pure_us"] * 0.5, rel=1e-6
        )

    def test_model_point_matches_sim_at_half_grain(self):
        """At grain 0.5 the exposed half is pure bandwidth for both
        engines, so sim and model agree to conformance tolerance."""
        base = dict(machine="testing", counts=(4, 4), nbytes=4096,
                    workload="overlap", compute_grain=0.5)
        sim = run_point(SweepPoint(engine="sim", **base))
        model = run_point(SweepPoint(engine="model",
                                     algo="shared_window", **base))
        assert model["latency_us"] == pytest.approx(
            sim["latency_us"], rel=0.35
        )
