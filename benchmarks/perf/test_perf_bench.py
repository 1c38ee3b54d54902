"""Tests of the benchmark harness itself (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_bench.py

The smoke run takes most of a minute; everything else is quick.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

run.bootstrap()
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke() -> dict:
    done = _run("--smoke", "--workload", "osu_replay", "--seed", "3")
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    return {"result": json.loads(lines[-1]),
            "info": json.loads(lines[-2])["info"]}


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in CONTRACT["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    bounds = [m["bound"] for m in CONTRACT["end_to_end"]]
    assert all(0 < b <= 0.25 for b in bounds) and setup["bound"] == max(bounds)
    assert [w["name"] for w in CONTRACT["workloads"]] == list(
        workloads.WORKLOADS)


def test_smoke_emits_every_listed_metric_with_its_unit(smoke):
    result = smoke["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = {m["name"]: m["unit"]
              for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_host_shares_sum_to_one(smoke):
    shares = [m["value"] for name, m in smoke["result"]["metrics"].items()
              if name.startswith("host_share.")]
    assert len(shares) == len(tracing.BINS)
    assert abs(sum(shares) - 1.0) <= 0.01


def test_item_spans_add_up_to_the_traced_pass(smoke):
    info = smoke["info"]["per_layer"]
    assert abs(info["item_span_sum_s"] / info["traced_pass_raw_s"] - 1.0) \
        <= 0.02


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 5, golden=None, references=False)
        b = workloads.build(name, 5, golden=None, references=False)
        assert a.inputs == b.inputs
    orders = {tuple(workloads.build("osu_live", seed, golden=None,
                                    references=False).inputs["order"])
              for seed in range(6)}
    sizes = {tuple(workloads.build("osu_replay", seed, golden=None,
                                   references=False).inputs["seeded_elements"])
             for seed in range(6)}
    mixes = {workloads.build("model_service", seed, golden=None,
                             references=False).inputs["request_digest"]
             for seed in range(3)}
    assert len(orders) > 1 and len(sizes) == 6 and len(mixes) == 3


# (raw, kernel before, kernel after) of three passes of three items,
# recorded on the 2-core VM while it changed speed between passes.
RECORDED = [
    [(0.1630, 0.0221, 0.0229), (0.5402, 0.0229, 0.0232), (0.0911, 0.0232, 0.0224)],
    [(0.2105, 0.0287, 0.0301), (0.7419, 0.0301, 0.0312), (0.1178, 0.0312, 0.0290)],
    [(0.1702, 0.0236, 0.0228), (0.5288, 0.0228, 0.0226), (0.0902, 0.0226, 0.0231)],
]


def _estimate(samples, factor=1.0):
    return calib.pass_seconds([
        [calib.calibrated(raw * factor, before * factor, after * factor)
         for raw, before, after in one_pass] for one_pass in samples])


def test_estimator_is_invariant_under_machine_speed():
    base = _estimate(RECORDED)
    for factor in (0.5, 1.37, 3.0):
        assert _estimate(RECORDED, factor) == pytest.approx(base, rel=1e-12)
    # ... and calibration pulls the slow pass towards the others.
    raw = [sum(r for r, _, _ in p) for p in RECORDED]
    cal = [sum(calib.calibrated(*s) for s in p) for p in RECORDED]
    assert max(cal) / min(cal) < max(raw) / min(raw)


def test_corrupted_golden_value_fails_the_run():
    done = _run("--smoke", "--trace", "0", "--workload", "apps_observe",
                "--corrupt-golden")
    assert done.returncode == 1, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert "FAILED" in done.stderr


def test_unlisted_or_missing_metric_fails_loudly():
    listed = CONTRACT["end_to_end"]
    with pytest.raises(run.HarnessError, match="not produced.*setup_s"):
        run.finish_metrics({"pass_s": 1.0, "peak_rss_mb": 2.0}, listed, "x")
    with pytest.raises(run.HarnessError, match="not listed.*bogus"):
        run.finish_metrics({"pass_s": 1.0, "peak_rss_mb": 2.0,
                            "setup_s": 1.0, "bogus": 0.0}, listed, "x")


def test_foreign_repro_is_refused(tmp_path):
    fake = tmp_path / "repro"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    code = (f"import sys; sys.path.insert(0, {str(tmp_path)!r}); "
            f"import repro; sys.path.insert(0, {HERE!r}); import run; "
            "run.bootstrap()")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert "refusing to measure" in done.stderr


def _program_state() -> dict:
    """Identity of every attribute of every loaded ``repro`` module and
    of every class defined there."""
    state = {}
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            state[modname, attr] = id(value)
            if isinstance(value, type) and value.__module__ == modname:
                for name, member in vars(value).items():
                    state[modname, attr, name] = id(member)
    return state


def test_traced_pass_leaves_the_program_unmodified():
    golden = workloads.load_golden()
    wl = workloads.build("model_service", 1, smoke=True, golden=golden)
    clock = calib.Clock()
    run.run_pass(wl, clock)  # lazy imports and caches settle
    before = _program_state()
    rec = tracing.Recorder(enabled=True)
    with tracing.Sampler() as sampler:
        done = run.run_pass(wl, clock, rec, sampler, probe=True)
    assert done.failures == []
    assert _program_state() == before
    names = {span["name"].split(":")[0] for span in rec.spans}
    assert {"pass", "item", "http", "ResultCache.get",
            "ResultCache.put"} <= names
    assert not os.path.isdir(workloads.TMP_ROOT) or not any(
        name.startswith("pass-") for name in os.listdir(workloads.TMP_ROOT))


def test_compare_verdicts():
    def runs(values):
        return [{"info": {"workload": "osu_live"},
                 "metrics": {"pass_s": {"value": v, "unit": "s"}}}
                for v in values]

    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00]

    def verdict(values):
        (row,) = compare.compare(runs(base), runs(values), CONTRACT)
        return row["verdict"]

    assert verdict(base) == "same"
    assert verdict([v * 1.5 for v in base]) == "worse"
    assert verdict([v * 0.7 for v in base]) == "better"
    noisy = [0.7, 1.3, 0.8, 1.2, 0.75, 1.25]
    (row,) = compare.compare(runs(noisy), runs(noisy[::-1]), CONTRACT)
    assert row["verdict"] == "unresolved"
