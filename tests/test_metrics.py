"""Tests of the metrics export (repro/metrics.py) and the CLI flags."""

from __future__ import annotations

import json

import pytest

from repro.bench.cli import main as cli_main
from repro.metrics import (
    LATENCY_BUCKETS,
    collect_metrics,
    save_metrics,
    to_prometheus,
)
from repro.mpi import Bytes
from tests.helpers import run


def mixed_program(mpi):
    yield from mpi.world.allgather(Bytes(64))
    yield from mpi.world.bcast(Bytes(256), root=0)
    return mpi.now


def _metrics(detail="phase"):
    result = run(mixed_program, nodes=2, cores=2, trace=detail,
                 payload="cost-only")
    return result, collect_metrics(result)


def test_counters_present():
    result, m = _metrics()
    c = m["counters"]
    assert c["ranks"] == 4
    assert c["elapsed_seconds"] == result.elapsed
    assert c["sent_messages"] == result.sent_messages


def test_per_op_series_and_histograms():
    _result, m = _metrics()
    keys = set(m["ops"])
    assert any(k.startswith("allgather:") for k in keys)
    assert any(k.startswith("bcast:") for k in keys)
    for series in m["ops"].values():
        hist = series["latency"]
        assert hist["count"] == series["calls"]
        # Buckets are cumulative and end at the full count.
        counts = [c for _b, c in hist["buckets"]]
        assert counts == sorted(counts)
        assert counts[-1] <= hist["count"]
        assert len(hist["buckets"]) == len(LATENCY_BUCKETS)


def test_queue_wait_histogram_needs_p2p_detail():
    _result, m = _metrics(detail="phase")
    assert m["queue_wait"] is None
    _result, m = _metrics(detail="p2p")
    assert m["queue_wait"] is not None and m["queue_wait"]["count"] > 0


def test_profile_section_matches_comm_summary():
    result, m = _metrics()
    assert m["profile"] == result.comm_summary()


def test_metrics_without_trace():
    result = run(mixed_program, nodes=2, cores=2, payload="cost-only")
    m = collect_metrics(result)
    assert m["ops"] == {} and m["queue_wait"] is None
    assert m["counters"]["ranks"] == 4


def test_prometheus_rendering():
    _result, m = _metrics(detail="p2p")
    text = to_prometheus(m)
    assert text.endswith("\n")
    assert "repro_ranks 4" in text
    assert 'repro_collective_calls_total{op="allgather"' in text
    assert 'le="+Inf"' in text
    assert "repro_queue_wait_seconds_count" in text
    # Every histogram's +Inf bucket equals its _count.
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if 'le="+Inf"' in line:
            count = line.rsplit(" ", 1)[1]
            total = next(
                ln for ln in lines[i:] if "_count" in ln
            ).rsplit(" ", 1)[1]
            assert count == total


def test_save_metrics_json_and_prom(tmp_path):
    _result, m = _metrics()
    jpath = tmp_path / "m.json"
    ppath = tmp_path / "m.prom"
    save_metrics(m, str(jpath))
    save_metrics(m, str(ppath))
    assert json.loads(jpath.read_text())["counters"]["ranks"] == 4
    assert ppath.read_text().startswith("# TYPE")


def test_cli_trace_and_metrics_out(tmp_path, capsys):
    tpath = tmp_path / "trace.json"
    mpath = tmp_path / "metrics.json"
    rc = cli_main([
        "--trace-out", str(tpath), "--metrics-out", str(mpath),
        "--trace-nodes", "2", "--trace-ppn", "4",
        "--trace-elements", "128",
    ])
    assert rc == 0
    doc = json.loads(tpath.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
    metrics = json.loads(mpath.read_text())
    assert any(k.startswith("hy_allgather:") for k in metrics["ops"])
    out = capsys.readouterr().out
    assert "critical rank:" in out
    assert "bridge_exchange" in out


def test_cli_pure_variant(tmp_path):
    mpath = tmp_path / "metrics.prom"
    rc = cli_main([
        "--metrics-out", str(mpath), "--trace-variant", "pure",
        "--trace-nodes", "2", "--trace-ppn", "4",
        "--trace-elements", "128", "--quiet",
    ])
    assert rc == 0
    assert "repro_collective" in mpath.read_text()


@pytest.mark.parametrize("flags, message", [
    (["--trace-nodes", "0"], "nodes must be >= 1"),
    (["--trace-ppn", "0"], "ppn must be >= 1"),
    (["--trace-elements", "-1"], "elements must be >= 0"),
])
def test_cli_rejects_bad_trace_inputs(flags, message, tmp_path, capsys):
    tpath = tmp_path / "trace.json"
    rc = cli_main(["--trace-out", str(tpath), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.strip() == message + f", got {flags[1]}"
    assert not tpath.exists()


def _histogram_per_bound(values):
    """The histogram as a count over all values per bound."""
    return {
        "buckets": [[bound, sum(1 for v in values if v <= bound)]
                    for bound in LATENCY_BUCKETS],
        "count": len(values),
        "sum": sum(values),
    }


def _name_and_kind(rec):
    """A Chrome event's name and ``args.kind``, derived from scratch."""
    kind = rec.get("kind", "dispatch")
    name = {
        "dispatch": lambda: f"{rec['op']}:{rec['algo']}",
        "phase": lambda: rec["phase"],
        "p2p": lambda: f"p2p.{rec['op']}",
        "shm": lambda: f"shm.{rec['op']}",
        "compute": lambda: f"compute:{rec['op']}",
    }.get(kind, lambda: kind)()
    return name, kind


def test_consumers_match_the_per_record_formulas_on_a_p2p_trace():
    """One sorted pass per histogram and one kind lookup per Chrome
    event give what a count per bound and a lookup per use give, on a
    recorded p2p-detail OSU trace — with latencies and queue waits equal
    to every bucket bound added, where ``<=`` decides."""
    from repro.bench import osu
    from repro.machine.placement import Placement
    from repro.machine.presets import hazel_hen
    from repro.mpi import run_program
    from repro.trace import to_chrome_trace

    result = run_program(
        hazel_hen(2), None, osu.pure_allgather_program,
        placement=Placement.block(2, 6), payload="cost-only", trace="p2p",
        program_kwargs={"nbytes_per_rank": 4096, "reps": 3, "warmup": 1})
    edges = [dict(rank=0, kind="dispatch", op="allgather", algo="edge",
                  t=0.0, dur=bound) for bound in LATENCY_BUCKETS]
    edges += [dict(rank=1, kind="queue_wait", t=0.0, wait=bound)
              for bound in LATENCY_BUCKETS]
    result.trace.extend(edges)
    m = collect_metrics(result)
    assert m["ops"]["allgather:edge"]["latency"] == _histogram_per_bound(
        list(LATENCY_BUCKETS))
    by_key: dict[str, list] = {}
    waits = []
    for rec in result.trace:
        kind = rec.get("kind", "dispatch")
        if kind == "dispatch" and rec.get("dur") is not None:
            by_key.setdefault(f"{rec['op']}:{rec['algo']}", []).append(
                rec["dur"])
        elif kind == "queue_wait":
            waits.append(rec["wait"])
    assert len(by_key) >= 2 and len(waits) > len(LATENCY_BUCKETS)
    for key, durations in by_key.items():
        assert m["ops"][key]["latency"] == _histogram_per_bound(durations)
    assert m["queue_wait"] == _histogram_per_bound(waits)
    events = to_chrome_trace(result.trace)["traceEvents"]
    for rec, event in zip(result.trace, events):
        name, kind = _name_and_kind(rec)
        assert (event["name"], event["args"]["kind"]) == (name, kind)
        assert list(event["args"])[-1] == "kind"
