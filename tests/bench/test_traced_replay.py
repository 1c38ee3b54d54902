"""The traced run replays its repetitions and shows what a live run shows.

``repro-bench --trace-out/--metrics-out`` runs
:func:`repro.bench.observe.run_traced_allgather` with ``replay="loop"``:
the first aligned repetition is simulated and recorded, the later ones
re-emit its span slice tagged ``replayed``.  Each configuration below
runs that way, once more with every repetition executed live beside its
record (``REPRO_REPLAY_VERIFY=1``), and once as the same job with replay
off.  The replayed stream equals the live replay-on stream byte for byte
apart from the ``replayed`` tag — order, ``sid`` and ``parent``
included.  Against replay off, every consumer reads the same: returns
and elapsed time, the critical-path report, the Chrome event count and
the Prometheus text apart from the processed event count, the one
number replay exists to lower; and so does the span stream, except on
one node with the hybrid variant, where the order differs (below).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.critical_path import critical_path_report
from repro.bench import observe
from repro.metrics import collect_metrics, to_prometheus
from repro.mpi import run_program
from repro.mpi.collectives import replay as replaylib
from repro.trace import to_chrome_trace

#: Under ``REPRO_REPLAY_VERIFY=1`` the shipped run executes every hit
#: live and compares it with its record, so nothing is re-emitted.
VERIFY = os.environ.get("REPRO_REPLAY_VERIFY", "0") not in ("", "0")

#: (sockets, socket mode, on-node transport)
NODE_MODELS = [(1, "compact", "shm_two_copy"),
               (2, "scatter", "cma_single_copy")]

CONFIGS = [
    dict(variant=variant, nodes=nodes, detail=detail, sockets=sockets,
         socket_mode=mode, transport=transport)
    for variant in ("hybrid", "pure")
    for nodes in (1, 4)
    for detail in ("dispatch", "phase", "p2p")
    for sockets, mode, transport in NODE_MODELS
]


def _id(cfg: dict) -> str:
    return "-".join([cfg["variant"], f"{cfg['nodes']}n", cfg["detail"],
                     "flat" if cfg["sockets"] == 1 else
                     f"2s-{cfg['socket_mode']}-{cfg['transport']}"])


def _one_node_hybrid(cfg: dict) -> bool:
    return cfg["variant"] == "hybrid" and cfg["nodes"] == 1


def _traced(cfg: dict, mode: str):
    """One traced run: as shipped (``"loop"``), with every hit executed
    live (``"verify"``), or the same job with replay off (``"off"``)."""
    replaylib.clear_cache()
    with pytest.MonkeyPatch.context() as mp:
        if mode != "loop":
            mp.setenv("REPRO_REPLAY_VERIFY", "1" if mode == "verify" else "")
        if mode == "off":
            mp.setattr(observe, "run_program", lambda *a, **kw: (
                run_program(*a, **{**kw, "replay": False})))
        result, _tracer = observe.run_traced_allgather(
            ppn=6, elements=512, reps=4, **cfg)
    return result


def _stream(trace: list[dict]) -> list[str]:
    return [json.dumps({k: v for k, v in rec.items() if k != "replayed"},
                       default=repr) for rec in trace]


def _tree(trace: list[dict]) -> list[str]:
    """The spans with each ``sid``/``parent`` replaced by the span it
    names, in a canonical order: equal when two streams hold the same
    span tree, whatever order they emitted it in."""
    plain = {rec.get("sid"): {k: v for k, v in rec.items()
                              if k not in ("sid", "parent", "replayed")}
             for rec in trace}
    return sorted(json.dumps([plain[rec.get("sid")],
                              plain.get(rec.get("parent"))],
                             sort_keys=True, default=repr)
                  for rec in trace)


def _prometheus(result) -> list[str]:
    return [line for line in to_prometheus(collect_metrics(result))
            .splitlines() if not line.startswith("repro_events_processed")]


@pytest.mark.parametrize("cfg", CONFIGS, ids=_id)
def test_traced_run_replays_what_a_live_run_shows(cfg):
    on, live, off = (_traced(cfg, mode) for mode in ("loop", "verify", "off"))
    assert on.replay_hits > 0 and off.replay_hits == 0
    assert VERIFY or any(rec.get("replayed") for rec in on.trace)
    assert _stream(on.trace) == _stream(live.trace)
    if _one_node_hybrid(cfg):
        assert _tree(on.trace) == _tree(off.trace)
    else:
        assert _stream(on.trace) == _stream(off.trace)
    assert on.returns == off.returns
    assert on.elapsed == off.elapsed
    assert (critical_path_report(on.trace, total_time=on.elapsed)
            == critical_path_report(off.trace, total_time=off.elapsed))
    assert (len(to_chrome_trace(on.trace)["traceEvents"])
            == len(to_chrome_trace(off.trace)["traceEvents"]))
    assert _prometheus(on) == _prometheus(off)


@pytest.mark.xfail(strict=True, reason=(
    "one-node hybrid: the sync barrier nested in hy_allgather parks in "
    "every replay-on live occurrence, so each rank's hy_allgather span "
    "begins before any rank's barrier span; replay off interleaves "
    "them.  Same spans and tree, other order and sids."))
@pytest.mark.parametrize("cfg", [c for c in CONFIGS if _one_node_hybrid(c)
                                 and c["detail"] == "dispatch"], ids=_id)
def test_one_node_hybrid_stream_is_byte_identical_to_replay_off(cfg):
    assert _stream(_traced(cfg, "loop").trace) == (
        _stream(_traced(cfg, "off").trace))


@pytest.mark.parametrize("kwargs, message", [
    ({"nodes": 0}, "nodes must be >= 1"),
    ({"ppn": 0}, "ppn must be >= 1"),
    ({"elements": -1}, "elements must be >= 0"),
    ({"reps": 0}, "reps must be >= 1"),
    ({"warmup": -1}, "warmup must be >= 0"),
])
def test_bad_inputs_raise_before_any_job(kwargs, message, monkeypatch):
    def no_job(*_args, **_kwargs):
        raise AssertionError("a job was built")

    monkeypatch.setattr(observe, "run_program", no_job)
    with pytest.raises(ValueError, match=message):
        observe.run_traced_allgather(**kwargs)
