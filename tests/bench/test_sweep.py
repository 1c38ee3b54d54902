"""Sweep orchestrator + content-addressed cache (repro.bench.sweep).

Pins the contracts docs/sweeps.md promises:

* parallel and serial execution produce bit-identical virtual-time
  results (the simulator is deterministic; process boundaries are
  invisible);
* a cache hit answers without simulating (counters prove it);
* the cache key covers every input that can change an answer — machine
  preset, transport, point axes, engine version — and nothing changes
  silently;
* a worker that exceeds its timeout or raises becomes a structured
  failure record after bounded retries, never a crashed sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

import pytest

from repro.bench import sweep as sweeplib
from repro.bench.sweep import (
    ResultCache,
    SweepPoint,
    cache_key,
    evaluate,
    expand_spec,
    figure_points,
    point_name,
    point_seed,
    run_point,
    run_sweep,
)
from repro.mpi.collectives import registry
from tests.helpers import UNDER_VERIFY

# A Fig-9 miniature: ppn sweep at fixed node count, hybrid vs pure —
# small enough for process-pool tests to stay fast.
FIG9_MINI = {
    "machine": "hazel_hen",
    "nodes": 2,
    "ppn": [3, 6],
    "elements": 512,
    "variant": ["hybrid", "pure"],
}


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


# ---------------------------------------------------------------------------
# Points, names, keys
# ---------------------------------------------------------------------------

def test_expand_spec_grid_order():
    points = expand_spec(FIG9_MINI)
    assert [point_name(p) for p in points] == [
        "n2x3/512el/hybrid", "n2x3/512el/pure",
        "n2x6/512el/hybrid", "n2x6/512el/pure",
    ]


def test_expand_spec_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown sweep spec key"):
        expand_spec({"machine": "testing", "sizes": [8]})


def test_point_roundtrip_and_seed_stability():
    point = SweepPoint(machine="testing", counts=(4, 2), nbytes=64,
                       variant="pure")
    clone = SweepPoint.from_dict(json.loads(json.dumps(point.to_dict())))
    assert clone == point
    assert point_seed(clone) == point_seed(point)
    assert cache_key(clone) == cache_key(point)


def test_figure_points_match_bench_names():
    names = [name for name, _ in figure_points("fig10", quick=True)]
    assert names == [
        "r160/1el/hybrid", "r160/1el/pure",
        "r160/1024el/hybrid", "r160/1024el/pure",
        "r160/16384el/hybrid", "r160/16384el/pure",
    ]


def test_cache_key_changes_with_machine_and_transport():
    base = SweepPoint(machine="hazel_hen_2s", counts=(4, 4), nbytes=64)
    keys = {
        cache_key(base),
        cache_key(SweepPoint(machine="hazel_hen", counts=(4, 4), nbytes=64)),
        cache_key(SweepPoint(machine="hazel_hen_2s", counts=(4, 4),
                             nbytes=64, transport="cma_single_copy")),
        cache_key(SweepPoint(machine="hazel_hen_2s", counts=(4, 4),
                             nbytes=64, socket_mode="scatter")),
    }
    assert len(keys) == 4


def _whole_document_key(point: SweepPoint) -> str:
    """SHA-256 over ``json.dumps`` of the whole key document, built
    from scratch — what ``cache_key`` splices from memoised parts."""
    from repro.bench import osu

    doc = {"machine": point.spec().describe(), "point": point.to_dict()}
    if point.engine == "model":
        doc["model_version"] = sweeplib.MODEL_VERSION
    else:
        doc.update(engine_version=sweeplib.ENGINE_VERSION,
                   reps=osu.DEFAULT_REPS, warmup=osu.DEFAULT_WARMUP)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _clear_selection_env(monkeypatch):
    for var in [k for k in os.environ if k.startswith("REPRO_COLL_")]:
        monkeypatch.delenv(var)


#: Points the parent code could build, with the name, key and seed it
#: gave them: adding a workload kind must move none of them.  A model
#: point's key folds in ``MODEL_VERSION`` (here "7.1"), so it moves, by
#: design, when the model's predictions do.
_PARENT_POINTS = {
    "hybrid": (
        dict(machine="hazel_hen", counts=(24,), nbytes=8),
        "n1x24/1el/hybrid",
        "8aaa285626215a91df3cbd26fb86b221bca8c76b2884b8fac7bf7bd18f5081c8",
        206046966),
    "pure-irregular": (
        dict(machine="vulcan", counts=(24, 24, 16), nbytes=8192,
             variant="pure"),
        "r64/1024el/pure",
        "c66d317abd841e5f467c4205e4a753453bb74edd3df4d9dcc2f0623db6387e68",
        2501543673),
    "model-algo-transport-socket": (
        dict(machine="hazel_hen_2s", counts=(12, 12), nbytes=512,
             engine="model", algo="shared_window_3l",
             transport="cma_single_copy", socket_mode="scatter"),
        "n2x12/64el/hybrid/shared_window_3l/cma_single_copy/scatter/model",
        "2a0dbe2454d643894471cf90f5a53d971e762c80a63b2a96d61235a6690d1995",
        2478607992),
    "model-op-payload": (
        dict(machine="testing", counts=(3,), nbytes=12, variant="pure",
             engine="model", op="allgather", algo="ring", payload="data"),
        "n1x3/12B/pure/ring/model",
        "dad90ff3c5af4465f017bc53080dd88aa128adb73f91d39cb1de631539d31ec5",
        2486769150),
    "sim-forced-2s": (
        dict(machine="hazel_hen_2s", counts=(24,) * 4, nbytes=64,
             algo="shared_window", transport="pip_direct",
             socket_mode="balanced"),
        "n4x24/8el/hybrid/shared_window/pip_direct/balanced",
        "f2072c8d232a11ebd25e6f7784cf99390bd454168cfab188cab2d7430909e661",
        3096657178),
    "overlap-grain": (
        dict(machine="hazel_hen", counts=(4, 4), nbytes=4096,
             variant="pure", workload="overlap", compute_grain=0.5),
        "n2x4/512el/pure/overlap0.5",
        "91b54c55b530856414c8287410d159e894e8f7a7d0263d715793b46b2eaa755c",
        4054123009),
}


@pytest.mark.parametrize("case", sorted(_PARENT_POINTS))
def test_existing_point_identity_is_stable(case, monkeypatch):
    _clear_selection_env(monkeypatch)
    point_fields, name, key, seed = _PARENT_POINTS[case]
    point = SweepPoint(**point_fields)
    assert "params" not in point.to_dict()
    assert point_name(point) == name
    assert cache_key(point) == key
    assert point_seed(point) == seed


def test_workload_params_are_validated_and_round_trip():
    point = SweepPoint(counts=(24, 24, 16), workload="summa",
                       params={"block": 64})
    assert point.to_dict()["params"] == {"block": 64}
    assert SweepPoint.from_dict(json.loads(json.dumps(point.to_dict()))) \
        == point
    assert point_name(point) == "r64/summa/hybrid/block=64"
    assert point_name(SweepPoint(counts=(24,) * 8, nbytes=4096,
                                 variant="pure", workload="multileader",
                                 params={"leaders": 2})) \
        == "n8x24/512el/pure/multileader/leaders=2"
    with pytest.raises(ValueError, match="unknown summa param.*iterations"):
        SweepPoint(workload="summa", params={"iterations": 3})
    with pytest.raises(ValueError, match="unknown workload"):
        SweepPoint(workload="stencil")
    with pytest.raises(ValueError, match="model engine"):
        SweepPoint(engine="model", workload="bpmf")
    with pytest.raises(ValueError, match="model engine"):
        SweepPoint(engine="model", params={"sync": "flags"})
    with pytest.raises(ValueError, match="round_robin"):
        SweepPoint(counts=(4, 2), params={"order": "round_robin"}).placement()


def test_cache_key_folds_the_selection_environment(cache, monkeypatch):
    """``REPRO_COLL_*`` change a simulator point's latency, so they
    change its key: a cache filled under a forced algorithm must not
    answer a default run."""
    _clear_selection_env(monkeypatch)
    point = SweepPoint(machine="hazel_hen", counts=(24,), nbytes=8,
                       variant="pure")
    forced = replace(point, algo="bruck")
    default_key, forced_key = cache_key(point), cache_key(forced)
    default = run_point(point)["latency_us"]

    monkeypatch.setenv("REPRO_COLL_ALLGATHER", "ring")
    assert cache_key(point) != default_key
    ring, _source = evaluate(point, cache)
    assert ring["latency_us"] != default
    # A point's own algo is forced over the table alone.
    assert cache_key(forced) == forced_key

    monkeypatch.delenv("REPRO_COLL_ALLGATHER")
    record, source = evaluate(point, cache)
    assert source == "computed"
    assert record["latency_us"] == default
    # Naming the default tables is the default selection.
    monkeypatch.setenv("REPRO_COLL_POLICY", "table")
    assert cache_key(point) == default_key
    monkeypatch.setenv("REPRO_COLL_POLICY", "cost_model")
    assert cache_key(point) != default_key


def test_cache_key_bytes_are_pinned():
    """Literal keys of a model and a sim point, each equal to the hash
    of the whole key document: the spliced document must hash exactly
    like ``json.dumps`` of the whole one.  (The model key is at
    ``MODEL_VERSION`` "7.1".)"""
    model_point = SweepPoint(machine="hazel_hen", counts=(24, 24, 16),
                             nbytes=4096, variant="hybrid", engine="model",
                             algo="shared_window")
    sim_point = SweepPoint(machine="hazel_hen_2s", counts=(12,) * 4,
                           nbytes=64, variant="pure", engine="sim",
                           transport="pip_direct", socket_mode="scatter")
    for point, pinned in [
        (model_point,
         "0a31dc3fb22fbd37549013771f8dbd712b325dcd86f3f5e0b38c3234e4d9a51e"),
        (sim_point,
         "5a7601df50dad7bfaa5596e6f49a73919cb71260143ef9ddd05fed3d19f117c7"),
    ]:
        assert cache_key(point) == pinned
        assert _whole_document_key(point) == pinned


def test_scheduler_knob_is_an_unknown_field():
    """The point document has no scheduler field: a point, a spec or a
    ``/query`` body carrying one is rejected, not silently ignored."""
    doc = SweepPoint(machine="testing", counts=(2, 2), nbytes=8).to_dict()
    assert "fast_path" not in doc
    with pytest.raises(ValueError, match="unknown point field.*fast_path"):
        SweepPoint.from_dict(dict(doc, fast_path=True))
    with pytest.raises(ValueError, match="unknown sweep spec key.*fast_path"):
        expand_spec({"machine": "testing", "nodes": 2, "ppn": 2,
                     "fast_path": True})


def test_stored_fingerprint_is_the_spec_fingerprint(cache):
    point = SweepPoint(machine="hazel_hen_2s", counts=(2, 2), nbytes=64,
                       engine="model", algo="shared_window",
                       transport="cma_single_copy")
    evaluate(point, cache)
    stored = cache.get(cache_key(point))
    assert stored["machine_fingerprint"] == point.spec().fingerprint()


@pytest.mark.parametrize("field,value,allowed", [
    ("socket_mode", "weird", "compact, scatter, balanced"),
    ("transport", "bogus", "cma_single_copy, pip_direct, shm_two_copy"),
])
def test_point_rejects_unknown_socket_mode_and_transport(field, value,
                                                         allowed):
    with pytest.raises(ValueError) as err:
        SweepPoint(machine="testing", counts=(2, 2), nbytes=8,
                   **{field: value})
    assert value in str(err.value) and allowed in str(err.value)
    with pytest.raises(ValueError):
        expand_spec({"machine": "testing", "nodes": 2, "ppn": 2,
                     field: ["compact" if field == "socket_mode"
                             else "pip_direct", value]})


@pytest.mark.parametrize("payload", ["model", "weird"])
def test_point_rejects_unknown_payload(payload):
    """A payload mode the simulator does not have fails when the point
    is built, not when its job runs."""
    with pytest.raises(ValueError, match="data, full, cost-only"):
        SweepPoint(machine="testing", counts=(2, 2), nbytes=8,
                   payload=payload)


@pytest.mark.parametrize("engine,op", [
    ("sim", "bcast"), ("sim", "allgather"), ("sim", "nosuch"),
    ("model", "nosuch"), ("model", "hy_reduce"),
])
def test_point_rejects_an_op_it_would_not_measure(tmp_path, capsys, engine,
                                                  op):
    """A simulator point runs its variant's collective (a hybrid one on
    (4, 4) runs ``hy_allgather``), so any other ``op`` would be cached
    under its own key with that latency; a model point prices only
    registered ops.  Both fail when the point is built, and a spec
    naming one exits 2."""
    from repro.bench.sweep import main

    with pytest.raises(ValueError, match=repr(op)):
        SweepPoint(machine="testing", counts=(4, 4), nbytes=4096,
                   engine=engine, op=op)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "machine": "testing", "counts": [4, 4], "nbytes": 4096,
        "engine": engine, "op": op,
    }))
    assert main(["run", "--spec", str(spec_path), "--quiet"]) == 2
    assert repr(op) in capsys.readouterr().err
    SweepPoint(machine="testing", counts=(4, 4), nbytes=4096,
               engine=engine, op="hy_allgather")


def test_cost_model_rejects_unknown_socket_mode():
    from repro.analysis.model import CostModel

    with pytest.raises(ValueError, match="weird.*balanced"):
        CostModel(sweeplib.MACHINES["hazel_hen_2s"](2), (4, 4),
                  socket_mode="weird")


def test_cache_key_changes_with_engine_version(monkeypatch):
    point = SweepPoint(machine="testing", counts=(2, 2), nbytes=64)
    before = cache_key(point)
    monkeypatch.setattr(sweeplib, "ENGINE_VERSION", "999.0-test")
    assert cache_key(point) != before
    # Model points key on MODEL_VERSION instead, so they are unmoved.
    model_point = SweepPoint(machine="testing", counts=(2, 2), nbytes=64,
                             engine="model", algo="shared_window")
    model_before = cache_key(model_point)
    monkeypatch.setattr(sweeplib, "MODEL_VERSION", "999.0-test")
    assert cache_key(model_point) != model_before
    assert cache_key(point) != before  # still keyed on the fake engine


def test_cache_key_changes_with_osu_reps(monkeypatch):
    from repro.bench import osu

    point = SweepPoint(machine="testing", counts=(2, 2), nbytes=64)
    before = cache_key(point)
    monkeypatch.setattr(osu, "DEFAULT_REPS", 5)
    assert cache_key(point) != before


# ---------------------------------------------------------------------------
# Cache semantics
# ---------------------------------------------------------------------------

def test_cache_hit_returns_without_simulating(cache, monkeypatch):
    point = SweepPoint(machine="testing", counts=(2, 2), nbytes=64)
    record, source = evaluate(point, cache)
    assert source == "computed"
    assert cache.puts == 1

    # Second evaluation must be answered purely from the cache: break
    # the engine entry point to prove nothing simulates.
    def boom(_point):
        raise AssertionError("cache hit must not simulate")

    monkeypatch.setattr(sweeplib, "run_point", boom)
    again, source = evaluate(point, cache)
    assert source == "cache"
    assert again == record
    assert cache.hits == 1


def test_run_sweep_counters_cold_then_warm(cache):
    points = expand_spec(FIG9_MINI)
    cold = run_sweep(points, cache=cache)
    assert cold["counters"] == {
        "points": 4, "hits": 0, "misses": 4, "computed": 4,
        "failed": 0, "retried": 0,
    }
    warm = run_sweep(points, cache=cache)
    assert warm["counters"]["hits"] == 4
    assert warm["counters"]["computed"] == 0
    assert warm["points"] == cold["points"]
    assert warm["cache"]["entries"] == 4


def test_corrupt_cache_entry_is_a_miss(cache):
    point = SweepPoint(machine="testing", counts=(2,), nbytes=8)
    record, _ = evaluate(point, cache)
    path = cache._path(cache_key(point))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{ not json")
    again, source = evaluate(point, cache)
    assert source == "computed"
    assert again["latency_us"] == record["latency_us"]


def test_gc(cache):
    for nbytes in (8, 16, 24):
        evaluate(SweepPoint(machine="testing", counts=(2,),
                            nbytes=nbytes), cache)
    assert cache.stats()["entries"] == 3
    assert cache.gc(older_than=3600.0) == 0   # all fresh
    assert cache.gc(everything=True) == 3
    assert cache.stats()["entries"] == 0


def test_figure_run_uses_env_cache(tmp_path, monkeypatch):
    from repro.bench.harness import Figure

    monkeypatch.setenv(sweeplib.CACHE_ENV, str(tmp_path / "env-cache"))
    point = SweepPoint(machine="testing", counts=(2, 2), nbytes=64)
    figure = Figure("t", "T", "c", lambda mode: [{"lat_us": point}])
    first = figure.run().rows
    # The second run must hit the on-disk entry the first one wrote.
    def boom(_point):
        raise AssertionError("env-cache hit must not simulate")

    monkeypatch.setattr(sweeplib, "run_point", boom)
    assert figure.run().rows == first


# ---------------------------------------------------------------------------
# Determinism: parallel == serial
# ---------------------------------------------------------------------------

def test_parallel_bit_identical_to_serial(cache):
    points = expand_spec(FIG9_MINI)
    serial = run_sweep(points, cache=None)
    parallel = run_sweep(points, cache=cache, workers=2, chunksize=2,
                         timeout=120.0)
    assert parallel["counters"]["failed"] == 0
    for name in serial["points"]:
        a, b = serial["points"][name], parallel["points"][name]
        # Bit-identical virtual-time results (not approximate).
        assert a["latency_us"] == b["latency_us"]
        assert a["latency_s"] == b["latency_s"]
        assert a["events"] == b["events"]
        assert a["seed"] == b["seed"]
    # And the cache now answers the same sweep without computing.
    warm = run_sweep(points, cache=cache, workers=2)
    assert warm["counters"]["hits"] == len(points)
    for name in serial["points"]:
        assert warm["points"][name]["latency_us"] == \
            serial["points"][name]["latency_us"]


def test_model_engine_points(cache):
    point = SweepPoint(machine="hazel_hen", counts=(24, 24), nbytes=4096,
                       variant="hybrid", engine="model")
    record, _ = evaluate(point, cache)
    assert record["engine"] == "model"
    assert record["events"] == 0
    assert record["latency_us"] == pytest.approx(
        record["latency_s"] * 1e6)
    # Keyed on MODEL_VERSION, not ENGINE_VERSION: same point, sim
    # engine, must address a different entry.
    sim_key = cache_key(SweepPoint(machine="hazel_hen", counts=(24, 24),
                                   nbytes=4096, variant="hybrid"))
    assert cache_key(point) != sim_key


# ---------------------------------------------------------------------------
# Failure handling
# ---------------------------------------------------------------------------

def test_serial_error_becomes_failure_record(cache):
    good = SweepPoint(machine="testing", counts=(2,), nbytes=8)
    bad = SweepPoint(machine="testing", counts=(2,), nbytes=16,
                     algo="no_such_algorithm")
    report = run_sweep([good, bad], cache=cache, retries=1)
    assert report["counters"]["failed"] == 1
    assert report["counters"]["computed"] == 1
    (failure,) = report["failures"]
    assert failure["name"] == point_name(bad)
    assert failure["attempts"] == 2          # initial try + 1 retry
    assert "no_such_algorithm" in failure["error"]
    assert point_name(good) in report["points"]


def test_worker_timeout_becomes_failure_record(monkeypatch):
    monkeypatch.setenv(sweeplib.TEST_DELAY_ENV, "5.0")
    slow = SweepPoint(machine="testing", counts=(2,), nbytes=8)
    report = run_sweep([slow], workers=1, timeout=0.2, retries=1)
    assert report["counters"]["failed"] == 1
    (failure,) = report["failures"]
    assert failure["error"] == "timeout"
    assert failure["attempts"] == 2
    assert report["points"] == {}


def test_worker_error_becomes_failure_record():
    bad = SweepPoint(machine="testing", counts=(2,), nbytes=16,
                     algo="no_such_algorithm")
    report = run_sweep([bad], workers=1, retries=0)
    assert report["counters"]["failed"] == 1
    assert report["failures"][0]["attempts"] == 1


def test_duplicate_point_names_rejected():
    point = SweepPoint(machine="testing", counts=(2,), nbytes=8)
    with pytest.raises(ValueError, match="collide"):
        run_sweep([point, point])


# ---------------------------------------------------------------------------
# BENCH integration
# ---------------------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@UNDER_VERIFY
def test_committed_fig7_pins_are_live():
    """The committed BENCH_fig7.json is what the code produces now (its
    ``events`` count replay-on work, which verify runs live)."""
    from repro.bench.sweep import check_against_bench

    report = run_sweep([p for _n, p in figure_points("fig7")])
    assert check_against_bench(report, "fig7", ROOT) == []


#: The committed pins of the paper's application figures (paper grid).
APP_PINS = ["fig11a", "fig11b", "fig11c", "fig11d", "fig12"]


@pytest.mark.parametrize("label", ["fig7", "fig9", "fig10", *APP_PINS])
def test_committed_bench_points_pin_only_virtual_time(label):
    with open(os.path.join(ROOT, f"BENCH_{label}.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {name for name, _p in figure_points(label)} == set(doc["points"])
    for name, rec in doc["points"].items():
        assert set(rec) == {"latency_us", "events"}, name


@pytest.mark.parametrize("label", APP_PINS)
def test_committed_app_pins_are_live(label):
    """The single-node points of each application pin are what the
    code produces now (the whole grid runs in CI's --check-bench)."""
    with open(os.path.join(ROOT, f"BENCH_{label}.json"),
              encoding="utf-8") as fh:
        pinned = json.load(fh)["points"]
    small = [(n, p) for n, p in figure_points(label) if len(p.counts) == 1]
    assert small
    for name, point in small:
        record = run_point(point)
        assert {"latency_us": record["latency_us"],
                "events": record["events"]} == pinned[name], name


def test_model_report_finds_each_committed_point_in_its_grid():
    from repro.bench.model import _figure_point, run_report

    report = run_report(bench_dir=ROOT)
    assert report["missing"] == [] and len(report["points"]) == 18
    # A quick-grid name resolves too; a name no grid made does not.
    assert _figure_point("fig9", "n4x12/512el/pure").counts == (12,) * 4
    with pytest.raises(ValueError):
        _figure_point("fig10", "r1000/1el/pure")


def test_check_against_bench(tmp_path, cache):
    from repro.bench.sweep import check_against_bench

    points = figure_points("fig7")
    report = run_sweep([p for _n, p in points], cache=cache)
    bench = {"label": "fig7",
             "points": {n: dict(report["points"][n]) for n, _p in points}}
    with open(tmp_path / "BENCH_fig7.json", "w", encoding="utf-8") as fh:
        json.dump(bench, fh)
    assert check_against_bench(report, "fig7", str(tmp_path)) == []
    # A diverging committed latency must be flagged.
    bench["points"]["n1x24/1el/hybrid"]["latency_us"] += 1.0
    with open(tmp_path / "BENCH_fig7.json", "w", encoding="utf-8") as fh:
        json.dump(bench, fh)
    problems = check_against_bench(report, "fig7", str(tmp_path))
    assert len(problems) == 1 and "n1x24/1el/hybrid" in problems[0]


def test_sweep_metrics_export(cache):
    from repro.metrics import sweep_metrics, to_prometheus

    report = run_sweep(expand_spec(FIG9_MINI), cache=cache)
    metrics = sweep_metrics(report)
    assert metrics["counters"]["sweep_points"] == 4
    assert metrics["counters"]["sweep_cache_misses"] == 4
    prom = to_prometheus(metrics)
    assert "repro_sweep_points 4" in prom
    assert "repro_sweep_cache_misses 4" in prom


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_runs_any_figure_through_the_cache(tmp_path, capsys):
    """``run --figure`` takes a figure id beyond the pin grids, names
    its points as the figure does, and a warm re-run is all hits."""
    from repro.bench.figures import get_figure
    from repro.bench.sweep import main

    cache_dir, out = str(tmp_path / "cache"), tmp_path / "report.json"
    args = ["run", "--figure", "fig8a", "--quick", "--cache", cache_dir,
            "--quiet"]
    assert main(args + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["points"]) == {
        name for name, _p in get_figure("fig8a").points("quick")}
    assert all(name.startswith("vulcan/") for name in report["points"])
    capsys.readouterr()
    assert main(args) == 0
    assert "16 cache hits (100%)" in capsys.readouterr().out


def test_cli_check_bench_needs_a_figure(tmp_path, capsys):
    """A spec run has no committed BENCH file to check against: asking
    for the check is a usage error, not a silent pass."""
    from repro.bench.sweep import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "machine": "testing", "nodes": 2, "ppn": 2, "elements": [1],
    }))
    assert main(["run", "--spec", str(spec_path), "--check-bench",
                 str(tmp_path), "--quiet"]) == 2
    assert "--check-bench needs --figure" in capsys.readouterr().err


@pytest.mark.parametrize("counts, message", [
    ("4,0", "counts must be non-empty positive ints"),
    ("4,x", "invalid literal"),
])
def test_cli_query_rejects_a_bad_point(capsys, counts, message):
    """A point ``SweepPoint`` refuses is a usage error (exit 2 with the
    reason), as for ``run --spec``, not a traceback."""
    from repro.bench.sweep import main

    assert main(["query", "--machine", "testing", "--counts", counts]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-sweep query: ") and message in err


def test_cli_run_query_stats_gc(tmp_path, capsys):
    from repro.bench.sweep import main

    cache_dir = str(tmp_path / "cache")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "machine": "testing", "nodes": 2, "ppn": 2, "elements": [1, 8],
    }))
    out_path = tmp_path / "report.json"
    assert main(["run", "--spec", str(spec_path), "--cache", cache_dir,
                 "--out", str(out_path), "--quiet"]) == 0
    report = json.loads(out_path.read_text())
    assert report["counters"] == {
        "points": 2, "hits": 0, "misses": 2, "computed": 2,
        "failed": 0, "retried": 0,
    }
    capsys.readouterr()

    # Warm re-run: 100% hit rate.
    assert main(["run", "--spec", str(spec_path), "--cache", cache_dir,
                 "--quiet"]) == 0
    assert "2 cache hits (100%)" in capsys.readouterr().out

    # query --cache-only answers from disk.
    assert main(["query", "--machine", "testing", "--nodes", "2",
                 "--ppn", "2", "--elements", "8", "--cache", cache_dir,
                 "--cache-only"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["source"] == "cache"
    assert doc["result"]["latency_us"] > 0

    assert main(["stats", "--cache", cache_dir]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 2

    assert main(["gc", "--cache", cache_dir, "--all"]) == 0
    assert "removed 2 entries" in capsys.readouterr().out

    # After gc, --cache-only misses and exits non-zero.
    assert main(["query", "--machine", "testing", "--nodes", "2",
                 "--ppn", "2", "--elements", "8", "--cache", cache_dir,
                 "--cache-only"]) == 1


# ---------------------------------------------------------------------------
# Model points without an algorithm price the table's pick
# ---------------------------------------------------------------------------

def _issue(op: str, mpi, nbytes: int):
    """Coroutine: one call of *op* moving *nbytes* per rank."""
    from repro.core import HybridContext
    from repro.mpi.constants import ReduceOp
    from repro.mpi.datatypes import Bytes

    comm = mpi.world
    if op == "hy_allgather":
        hctx = yield from HybridContext.create(comm)
        buf = yield from hctx.allgather_buffer(nbytes)
        return (yield from hctx.allgather(buf))
    if op == "hy_bcast":
        hctx = yield from HybridContext.create(comm)
        buf = yield from hctx.bcast_buffer(nbytes)
        return (yield from hctx.bcast(buf, root=0))
    b = Bytes(nbytes)
    args = {
        "bcast": (b, 0), "gather": (b, 0), "gatherv": (b, 0),
        "scatter": ([b] * comm.size if comm.rank == 0 else None, 0),
        "reduce": (b, ReduceOp.SUM, 0), "alltoall": ([b] * comm.size,),
        "barrier": (),
        "allreduce": (b, ReduceOp.SUM), "reduce_scatter": (b, ReduceOp.SUM),
        "scan": (b, ReduceOp.SUM), "exscan": (b, ReduceOp.SUM),
    }.get(op, (b,))
    return (yield from getattr(comm, op)(*args))


def _simulated_pick(point: SweepPoint) -> str:
    """The algorithm the simulator dispatches for *point*'s call, read
    off the trace of one run of it."""
    from repro.mpi import run_program

    op = point.resolved_op
    result = run_program(
        point.spec(), None, lambda mpi: _issue(op, mpi, point.nbytes),
        placement=point.placement(), payload="cost-only", trace="dispatch",
        replay=False)
    (algo,) = {rec["algo"] for rec in result.trace
               if rec["op"] == op and rec["parent"] is None}
    return algo


@pytest.mark.parametrize("op", sorted(registry.ops()))
@pytest.mark.parametrize("machine, counts", [
    ("hazel_hen", (8,)), ("hazel_hen", (1,) * 5), ("hazel_hen", (4, 4)),
    ("hazel_hen_2s", (8, 8)),
])
def test_model_point_without_algo_prices_the_table_pick(op, machine,
                                                        counts):
    for nbytes in (64, 65536):
        point = SweepPoint(machine=machine, counts=counts, nbytes=nbytes,
                           variant="hybrid" if op.startswith("hy_")
                           else "pure", op=op, engine="model")
        algo = _simulated_pick(point)
        assert (run_point(point)["latency_us"]
                == run_point(replace(point, algo=algo))["latency_us"])


def test_model_point_key_follows_the_table_pick(monkeypatch):
    """A result priced under one pick is never served for another."""
    from repro.analysis.model import CostModel

    point = SweepPoint(machine="hazel_hen_2s", counts=(24, 24, 24, 24),
                       nbytes=4096, variant="hybrid", engine="model")
    key = cache_key(point)
    assert cache_key(replace(point, algo="shared_window_3l")) != key
    monkeypatch.setattr(CostModel, "table_algo",
                        lambda self, op, nbytes, root=0: "pipelined_ring")
    assert cache_key(point) != key
