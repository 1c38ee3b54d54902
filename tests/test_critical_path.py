"""Tests of the critical-path decomposition (repro/analysis)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.critical_path import (
    OUTSIDE,
    critical_path_report,
    format_report,
)
from repro.bench.observe import run_traced_allgather
from repro.mpi import Bytes
from tests.helpers import run


def mixed_program(mpi):
    yield from mpi.world.allgather(Bytes(64))
    yield from mpi.world.barrier()
    return mpi.now


def test_empty_trace():
    report = critical_path_report([])
    assert report.total == 0.0 and report.categories == {}
    report = critical_path_report([], total_time=2.0)
    assert report.categories == {OUTSIDE: 2.0}


def test_hand_built_tree_self_times():
    trace = [
        {"t": 0.0, "rank": 0, "op": "allgather", "algo": "ring",
         "kind": "dispatch", "sid": 1, "parent": None, "depth": 0,
         "dur": 10.0},
        {"t": 1.0, "rank": 0, "kind": "phase", "phase": "bridge_exchange",
         "sid": 2, "parent": 1, "depth": 1, "dur": 6.0},
        {"t": 8.0, "rank": 0, "kind": "phase", "phase": "post_sync",
         "sid": 3, "parent": 1, "depth": 1, "dur": 2.0},
    ]
    report = critical_path_report(trace, total_time=12.0)
    assert report.rank == 0
    cats = report.categories
    assert cats["allgather:ring/bridge_exchange"] == 6.0
    assert cats["allgather:ring/post_sync"] == 2.0
    assert cats["allgather:ring"] == pytest.approx(2.0)  # self time
    assert cats[OUTSIDE] == pytest.approx(2.0)
    assert report.calls["allgather:ring"] == 1


def test_critical_rank_is_latest_finisher():
    trace = [
        {"t": 0.0, "rank": 0, "op": "a", "algo": "x", "kind": "dispatch",
         "sid": 1, "parent": None, "depth": 0, "dur": 1.0},
        {"t": 0.0, "rank": 3, "op": "a", "algo": "x", "kind": "dispatch",
         "sid": 2, "parent": None, "depth": 0, "dur": 5.0},
    ]
    assert critical_path_report(trace).rank == 3


def test_phase_times_sum_to_total_on_real_run():
    """Acceptance: per-category times sum to end-to-end virtual time."""
    result = run(mixed_program, nodes=2, cores=2, trace="phase",
                 payload="cost-only")
    report = critical_path_report(result.trace, total_time=result.elapsed)
    assert report.total == result.elapsed
    assert sum(report.categories.values()) == pytest.approx(report.total,
                                                            rel=1e-9)


def test_fig9_config_distinguishes_bridge_from_sync():
    """Acceptance: a Fig 9-config hybrid run separates the bridge
    exchange from the on-node sync phases, and the report covers the
    full end-to-end time."""
    result, tracer = run_traced_allgather(nodes=4, ppn=8, elements=512,
                                          reps=2, warmup=1)
    phases = {r["phase"] for r in result.trace if r.get("kind") == "phase"}
    assert "bridge_exchange" in phases
    assert {"pre_sync", "post_sync"} <= phases
    # Nested: every phase span has a parent dispatch span.
    by_sid = {r["sid"]: r for r in result.trace if "sid" in r}
    assert all(r["parent"] in by_sid for r in result.trace
               if r.get("kind") == "phase")
    report = critical_path_report(result.trace, total_time=result.elapsed)
    assert sum(report.categories.values()) == pytest.approx(result.elapsed,
                                                            rel=1e-9)
    labels = set(report.categories)
    assert any("bridge_exchange" in lbl for lbl in labels)
    assert any("sync" in lbl for lbl in labels)


def test_traced_run_is_deterministic():
    streams = []
    for _ in range(2):
        result, _ = run_traced_allgather(nodes=2, ppn=4, elements=128,
                                         reps=2, warmup=0)
        streams.append(json.dumps(result.trace, sort_keys=True))
    assert streams[0] == streams[1]


def test_format_report_renders_table():
    result = run(mixed_program, nodes=2, cores=2, trace="phase",
                 payload="cost-only")
    report = critical_path_report(result.trace, total_time=result.elapsed)
    text = format_report(report)
    assert "critical rank:" in text
    assert "end-to-end:" in text
    assert OUTSIDE in text
