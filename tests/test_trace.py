"""Tests of the span tracer and its exports (repro/trace.py)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.osu import hybrid_allgather_program, pure_allgather_program
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi import Bytes, run_program
from repro.mpi.profiler import aggregate_profiles
from repro.trace import (
    DETAIL_LEVELS,
    Tracer,
    format_timeline,
    save_chrome_trace,
    summarize,
    to_chrome_trace,
)
from tests.helpers import run


def allgather_program(mpi):
    result = yield from mpi.world.allgather(Bytes(64))
    return len(result)


def mixed_program(mpi):
    yield from mpi.world.allgather(Bytes(64))
    yield from mpi.world.bcast(Bytes(256), root=0)
    yield from mpi.world.barrier()
    return mpi.now


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------

def test_detail_levels_are_ordered():
    assert DETAIL_LEVELS["dispatch"] < DETAIL_LEVELS["phase"] \
        < DETAIL_LEVELS["p2p"]
    t = Tracer(detail="phase")
    assert t.wants("dispatch") and t.wants("phase") and not t.wants("p2p")


def test_unknown_detail_rejected():
    with pytest.raises(ValueError, match="unknown trace detail"):
        Tracer(detail="everything")


def test_span_nesting_links_parent_and_depth():
    t = Tracer(detail="phase")
    a = t.begin({"t": 0.0, "rank": 0, "op": "x", "algo": "y",
                 "kind": "dispatch"})
    b = t.begin({"t": 1.0, "rank": 0, "kind": "phase", "phase": "p"})
    c = t.begin({"t": 1.0, "rank": 1, "kind": "phase", "phase": "q"})
    assert a["parent"] is None and a["depth"] == 0
    assert b["parent"] == a["sid"] and b["depth"] == 1
    # Other ranks have their own stacks.
    assert c["parent"] is None and c["depth"] == 0
    t.end(b, 2.0)
    t.end(a, 3.0)
    assert b["dur"] == 1.0 and a["dur"] == 3.0
    # Stream order is begin order.
    assert t.records == [a, b, c]


# ---------------------------------------------------------------------------
# Back-compat: default tracing looks like the old instant-event log
# ---------------------------------------------------------------------------

def test_default_trace_one_record_per_collective():
    result = run(mixed_program, nodes=2, cores=2, trace=True,
                 payload="cost-only")
    ops = [r["op"] for r in result.trace]
    nranks = 4
    assert ops.count("allgather") == nranks
    assert ops.count("bcast") == nranks
    # Default detail is dispatch-only: no phase records.
    assert all(r.get("kind", "dispatch") == "dispatch" for r in result.trace)
    for r in result.trace:
        assert {"t", "rank", "comm", "op", "algo", "nbytes"} <= set(r)


def test_phase_detail_adds_nested_children():
    result = run(mixed_program, nodes=2, cores=2, trace="phase",
                 payload="cost-only")
    phases = [r for r in result.trace if r.get("kind") == "phase"]
    assert phases, "phase detail must add phase spans"
    by_sid = {r["sid"]: r for r in result.trace if "sid" in r}
    for ph in phases:
        assert ph["parent"] in by_sid
        assert ph["depth"] >= 1


def test_p2p_detail_adds_waits():
    result = run(mixed_program, nodes=2, cores=2, trace="p2p",
                 payload="cost-only")
    kinds = {r.get("kind", "dispatch") for r in result.trace}
    assert "queue_wait" in kinds


# ---------------------------------------------------------------------------
# Determinism (acceptance criterion)
# ---------------------------------------------------------------------------

def test_same_program_yields_bit_identical_span_stream():
    streams = []
    for _ in range(2):
        result = run(mixed_program, nodes=2, cores=2, trace="p2p",
                     payload="cost-only")
        streams.append(json.dumps(result.trace, sort_keys=True))
    assert streams[0] == streams[1]


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------

def test_chrome_trace_schema(tmp_path):
    result = run(mixed_program, nodes=2, cores=2, trace="phase",
                 payload="cost-only")
    doc = to_chrome_trace(result.trace)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    phs = {e["ph"] for e in events}
    assert "X" in phs and "M" in phs
    for e in events:
        assert {"name", "ph", "pid", "tid"} <= set(e)
        if e["ph"] == "X":
            assert e["dur"] >= 0 and e["ts"] >= 0
        if e["ph"] == "i":
            assert e["s"] == "t"
    # Metadata: one thread_name row per rank.
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["tid"] for e in meta} == set(range(4))
    assert all(e["name"] == "thread_name" for e in meta)
    # Round-trips through JSON.
    path = tmp_path / "trace.json"
    save_chrome_trace(result.trace, str(path))
    assert json.loads(path.read_text())["traceEvents"]


#: ``(events, SHA-256 of the sorted-key JSON, SHA-256 of the JSON as
#: written)`` of the Chrome export of a p2p-detail traced 4x12
#: ``hazel_hen`` OSU allgather, 4 KiB per rank.
CHROME = {
    "pure": (2892, "b1c55c65924e005970da80e646f376e8"
                   "301b4b2436431c7a9ab717187b8bcc03",
             "b0a4e37f4199c44c41522b7a2ce1fcbc"
             "3b8896847ad57c5b8832aee3b08175fa"),
    "hybrid": (864, "fda8794b3ea3815c24cad47ca30c5ab4"
                    "ae37e8d860eca0764b03b6e83a196260",
               "cf92e04f0d6bd170be16ce8f66ce9dbe"
               "4cd953bb0ea958a3d0d54dfeadd21eb5"),
}


def chrome_export(variant: str) -> tuple:
    program = {"pure": pure_allgather_program,
               "hybrid": hybrid_allgather_program}[variant]
    result = run_program(hazel_hen(4), None, program,
                         placement=Placement.block(4, 12),
                         payload="cost-only", replay=False, trace="p2p",
                         program_kwargs={"nbytes_per_rank": 4096,
                                         "reps": 2, "warmup": 1})
    doc = to_chrome_trace(result.trace)
    return (len(doc["traceEvents"]),
            hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest(),
            # Key order too: save_chrome_trace dumps the document as is.
            hashlib.sha256(json.dumps(doc).encode()).hexdigest())


@pytest.mark.parametrize("variant", sorted(CHROME))
def test_chrome_export_is_pinned(variant):
    assert chrome_export(variant) == CHROME[variant]


def test_chrome_trace_nesting_balanced():
    """Per rank, children lie within their parent's [ts, ts+dur]."""
    result = run(mixed_program, nodes=2, cores=2, trace="phase",
                 payload="cost-only")
    by_sid = {r["sid"]: r for r in result.trace if "sid" in r}
    eps = 1e-12
    for rec in result.trace:
        parent = by_sid.get(rec.get("parent"))
        if parent is None:
            continue
        assert rec["t"] >= parent["t"] - eps
        assert rec["t"] + rec["dur"] <= parent["t"] + parent["dur"] + eps


def test_open_spans_exported_as_instants():
    t = Tracer()
    t.begin({"t": 1e-6, "rank": 0, "op": "x", "algo": "y",
             "kind": "dispatch"})
    events = to_chrome_trace(t.records)["traceEvents"]
    assert events[0]["ph"] == "i"


def test_empty_trace_handling():
    assert to_chrome_trace([]) == {"traceEvents": [],
                                   "displayTimeUnit": "ms"}
    assert summarize([]) == {}
    assert format_timeline([]) == "(empty trace)"


# ---------------------------------------------------------------------------
# summarize vs profiler byte conventions
# ---------------------------------------------------------------------------

def test_summarize_bytes_match_profiler_conventions():
    result = run(allgather_program, nodes=2, cores=2, trace=True,
                 payload="cost-only")
    summary = summarize(result.trace)
    [(key, agg)] = [(k, v) for k, v in summary.items()
                    if k[0] == "allgather"]
    merged = aggregate_profiles(result.profiles)
    # Dispatch records carry req.total = the same per-rank convention
    # the profiler charges (allgather: local * size), summed over ranks.
    assert agg["calls"] == merged["allgather"].calls
    assert agg["bytes"] == merged["allgather"].bytes
    assert agg["bytes"] == 64 * 4 * 4  # local * size, per rank, 4 ranks


# ---------------------------------------------------------------------------
# format_timeline
# ---------------------------------------------------------------------------

def test_format_timeline_sorts_before_truncating():
    # Insertion order deliberately scrambled across ranks/times.
    trace = [
        {"t": 3e-6, "rank": 0, "op": "c", "algo": "z", "nbytes": 0},
        {"t": 1e-6, "rank": 1, "op": "a", "algo": "z", "nbytes": 0},
        {"t": 1e-6, "rank": 0, "op": "b", "algo": "z", "nbytes": 0},
        {"t": 2e-6, "rank": 0, "op": "d", "algo": "z", "nbytes": 0},
    ]
    out = format_timeline(trace, max_rows=3)
    body = out.splitlines()[1:]
    # Sorted by (t, rank): b(r0) before a(r1), c truncated away.
    assert "b:z" in body[0] and "a:z" in body[1] and "d:z" in body[2]
    assert "c:z" not in out
    assert "+1 more" in out


def test_format_timeline_shows_durations():
    trace = [{"t": 0.0, "rank": 0, "op": "a", "algo": "z", "nbytes": 0,
              "kind": "dispatch", "sid": 1, "parent": None, "depth": 0,
              "dur": 5e-6}]
    out = format_timeline(trace)
    assert "5.00" in out
