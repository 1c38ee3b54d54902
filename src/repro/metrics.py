"""Counters and histograms over a job result, exportable as JSON or
Prometheus text exposition format.

Complements the raw span stream (:mod:`repro.trace`) and the
critical-path decomposition (:mod:`repro.analysis.critical_path`) with
the aggregate view monitoring systems expect:

* **counters** — ranks, virtual elapsed time, messages/bytes by layer
  (total, intra-node, network);
* **per-(op, algo) series** — call counts, byte totals and a latency
  histogram of the dispatch-span durations;
* **queue-wait histogram** — receive matching delays (only populated at
  trace detail ``"p2p"``);
* **profile** — the per-op communication summary of
  :meth:`~repro.mpi.runtime.JobResult.comm_summary` (bytes follow the
  conventions of :mod:`repro.mpi.profiler`).

All times are **virtual seconds** (the simulator's clock); histogram
buckets are fixed log-spaced bounds so runs are comparable.

Example
-------
>>> m = {"counters": {"ranks": 4}, "ops": {}, "queue_wait": None,
...      "profile": {}}
>>> print(to_prometheus(m).splitlines()[1])
repro_ranks 4
"""

from __future__ import annotations

import json
from bisect import bisect_right

__all__ = [
    "LATENCY_BUCKETS",
    "collect_metrics",
    "sweep_metrics",
    "to_prometheus",
    "save_metrics",
]

#: Histogram bucket upper bounds, seconds (log-spaced; +Inf implied).
LATENCY_BUCKETS = (
    1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
    1e-2, 3e-2, 1e-1,
)


def _histogram(values: list[float]) -> dict:
    """Cumulative bucket counts plus sum/count (Prometheus semantics):
    one sort, then a bisection per bound (values ``<= bound``)."""
    ordered = sorted(values)
    buckets = [[bound, bisect_right(ordered, bound)]
               for bound in LATENCY_BUCKETS]
    return {
        "buckets": buckets,
        "count": len(values),
        "sum": sum(values),
    }


def collect_metrics(result) -> dict:
    """Aggregate a :class:`~repro.mpi.runtime.JobResult` into metrics.

    Works with or without a trace: without one, the per-op series and
    queue-wait histogram are empty and only counters/profile remain.
    """
    counters = {
        "ranks": len(result.finish_times),
        "elapsed_seconds": result.elapsed,
        "events_processed": result.events_processed,
        "sent_messages": result.sent_messages,
        "sent_bytes": result.sent_bytes,
        "intra_copies": result.intra_copies,
        "intra_bytes": result.intra_bytes,
        "network_messages": result.network_messages,
        "network_bytes": result.network_bytes,
    }
    ops: dict[str, dict] = {}
    waits: list[float] = []
    for rec in result.trace or []:
        kind = rec.get("kind", "dispatch")
        if kind == "dispatch":
            key = f"{rec['op']}:{rec['algo']}"
            series = ops.setdefault(
                key, {"calls": 0, "bytes": 0, "latencies": []}
            )
            series["calls"] += 1
            series["bytes"] += rec.get("nbytes", 0)
            if rec.get("dur") is not None:
                series["latencies"].append(rec["dur"])
        elif kind == "queue_wait":
            waits.append(rec["wait"])
    for series in ops.values():
        series["latency"] = _histogram(series.pop("latencies"))
    return {
        "counters": counters,
        "ops": ops,
        "queue_wait": _histogram(waits) if waits else None,
        "profile": result.comm_summary(),
    }


def sweep_metrics(report: dict) -> dict:
    """Aggregate a :func:`repro.bench.sweep.run_sweep` report into the
    same metrics shape :func:`collect_metrics` produces, so sweep runs
    export through the existing :func:`to_prometheus` /
    :func:`save_metrics` plumbing.

    Counters carry the orchestrator's observability signals — points
    answered, cache hits/misses, the cache instance's corrupt entries
    and lookups answered without opening a file, computed/failed/retried
    counts, worker count and wall seconds — prefixed ``sweep_`` so they
    never collide with the per-job simulator counters.

    >>> report = {"counters": {"points": 4, "hits": 3, "misses": 1,
    ...                        "computed": 1, "failed": 0, "retried": 0},
    ...           "workers": 2, "wall_s": 0.25}
    >>> m = sweep_metrics(report)
    >>> m["counters"]["sweep_cache_hits"]
    3
    >>> "repro_sweep_points 4" in to_prometheus(m)
    True
    """
    c = report.get("counters", {})
    cache = report.get("cache") or {}
    counters = {
        "sweep_points": c.get("points", 0),
        "sweep_cache_hits": c.get("hits", 0),
        "sweep_cache_misses": c.get("misses", 0),
        "sweep_cache_corrupt": cache.get("corrupt", 0),
        "sweep_cache_memo_hits": cache.get("memo_hits", 0),
        "sweep_computed": c.get("computed", 0),
        "sweep_failed": c.get("failed", 0),
        "sweep_retried": c.get("retried", 0),
        "sweep_workers": report.get("workers", 0),
        "sweep_wall_seconds": report.get("wall_s", 0.0),
    }
    return {"counters": counters, "ops": {}, "queue_wait": None,
            "profile": {}}


def _prom_hist(lines: list[str], name: str, labels: str, hist: dict) -> None:
    for bound, count in hist["buckets"]:
        sep = "," if labels else ""
        lines.append(f'{name}_bucket{{{labels}{sep}le="{bound:g}"}} {count}')
    sep = "," if labels else ""
    lines.append(f'{name}_bucket{{{labels}{sep}le="+Inf"}} {hist["count"]}')
    brace = f"{{{labels}}}" if labels else ""
    lines.append(f"{name}_sum{brace} {hist['sum']:.12g}")
    lines.append(f"{name}_count{brace} {hist['count']}")


def to_prometheus(metrics: dict) -> str:
    """Render :func:`collect_metrics` output as Prometheus text format.

    Metric names are prefixed ``repro_``; per-op series carry ``op`` and
    ``algo`` labels; times are seconds (Prometheus convention).
    """
    lines: list[str] = []
    lines.append("# TYPE repro_ranks gauge")
    for key, value in metrics["counters"].items():
        fmt = f"{value:.12g}" if isinstance(value, float) else str(value)
        lines.append(f"repro_{key} {fmt}")
    lines.append("# TYPE repro_collective_latency_seconds histogram")
    for key in sorted(metrics["ops"]):
        series = metrics["ops"][key]
        op, _, algo = key.partition(":")
        labels = f'op="{op}",algo="{algo}"'
        lines.append(f"repro_collective_calls_total{{{labels}}} "
                     f"{series['calls']}")
        lines.append(f"repro_collective_bytes_total{{{labels}}} "
                     f"{series['bytes']}")
        _prom_hist(lines, "repro_collective_latency_seconds", labels,
                   series["latency"])
    if metrics.get("queue_wait"):
        lines.append("# TYPE repro_queue_wait_seconds histogram")
        _prom_hist(lines, "repro_queue_wait_seconds", "", metrics["queue_wait"])
    for op in sorted(metrics.get("profile", {})):
        s = metrics["profile"][op]
        labels = f'op="{op}"'
        lines.append(f"repro_profile_calls_total{{{labels}}} {s['calls']}")
        lines.append(f"repro_profile_bytes_total{{{labels}}} {s['bytes']}")
        lines.append(f"repro_profile_time_seconds{{{labels}}} "
                     f"{s['time']:.12g}")
    return "\n".join(lines) + "\n"


def save_metrics(metrics: dict, path: str) -> None:
    """Write metrics to *path*: ``.json`` → JSON, anything else →
    Prometheus text format (``.prom``/``.txt``)."""
    if path.endswith(".json"):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_prometheus(metrics))
