#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 benchmarks/perf/compare.py A.json B.json

Each file holds what ``run.py --json`` wrote — one run, or a list of
runs (``run.py --aa`` writes such lists).  A is the base.  One row per
(workload, end-to-end metric): both medians and quartiles, the ratio
B/A, the metric's bound from ``BENCHMARK.json``, and a verdict:

``worse``       B's median is worse than A's by more than the bound
                (or every run of B is worse than every run of A and the
                medians differ by more than A's own spread).
``better``      B wins at least nine tenths of the run pairs and the
                medians differ by more than A's interquartile range.
``unresolved``  A's own spread is wider than the bound, so neither of
                the above can be told from noise.
``same``        none of the above.

Exits non-zero if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

__all__ = ["compare", "render", "main"]


def _load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc if isinstance(doc, list) else [doc]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs
            if run["info"]["workload"] == workload
            and metric in run["metrics"]]


def compare(a_runs: list[dict], b_runs: list[dict], contract: dict
            ) -> list[dict]:
    """Rows for every (workload, end-to-end metric) both sets cover."""
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        for spec in contract["end_to_end"]:
            a = _values(a_runs, workload, spec["name"])
            b = _values(b_runs, workload, spec["name"])
            if not a or not b:
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            a_q1, a_med, a_q3 = _quartiles(a)
            b_q1, b_med, b_q3 = _quartiles(b)
            # Positive gap: B is worse, as a share of A's median.
            gap = sign * (b_med - a_med) / a_med
            spread = (a_q3 - a_q1) / a_med
            pairs = [(x, y) for x in a for y in b]
            b_wins = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
            if (gap > spec["bound"]
                    or (b_wins == 0.0 and gap > spread and len(a) > 1)):
                verdict = "worse"
            elif b_wins >= 0.9 and -gap > spread and len(a) > 1:
                verdict = "better"
            elif spread > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "same"
            rows.append({
                "workload": workload, "metric": spec["name"],
                "unit": spec["unit"], "n": (len(a), len(b)),
                "a": (a_q1, a_med, a_q3), "b": (b_q1, b_med, b_q3),
                "ratio": b_med / a_med, "gap": gap, "a_spread": spread,
                "b_wins": b_wins, "bound": spec["bound"],
                "verdict": verdict,
            })
    return rows


def render(rows: list[dict]) -> str:
    """The rows as a Markdown table (ratios are B/A, base A)."""
    lines = [
        "| workload | metric | A median (q1–q3) | B median (q1–q3) "
        "| B/A | A spread | bound | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        lines.append(
            f"| {r['workload']} | {r['metric']} [{r['unit']}] "
            f"| {r['a'][1]:.4g} ({r['a'][0]:.4g}–{r['a'][2]:.4g}) "
            f"| {r['b'][1]:.4g} ({r['b'][0]:.4g}–{r['b'][2]:.4g}) "
            f"| {r['ratio']:.3f} | {r['a_spread']:.3f} | {r['bound']:g} "
            f"| {r['verdict']} |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    rows = compare(_load(argv[0]), _load(argv[1]), contract)
    if not rows:
        print("no (workload, metric) is covered by both files",
              file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
