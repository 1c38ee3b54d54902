"""Benchmark harness: regenerate every table and figure of the paper.

* :mod:`repro.bench.osu` — the OSU-style latency measurement protocol
  the paper's micro-benchmarks are built on (§5: "modified from the OSU
  benchmark", warm-up + repeated timed executions).
* :mod:`repro.bench.harness` — figure runner (one
  :func:`~repro.bench.sweep.run_sweep` per figure) and table formatting.
* :mod:`repro.bench.figures` — one :class:`~repro.bench.harness.Figure`
  row declaration per paper artifact (Fig 7, 8a, 8b, 9a, 9b, 10, 11a-d,
  12) plus the ablation studies (sync mechanism, pipelining, placement,
  multi-leader baseline, noise) and extensions.
* :mod:`repro.bench.cli` — ``repro-bench --figure fig7`` /
  ``python -m repro.bench``.

Every figure runs in two modes: ``quick`` (reduced sweep for CI /
pytest-benchmark) and ``paper`` (the full parameter grid of the paper).
"""

from repro.bench.figures import FIGURES, get_figure
from repro.bench.harness import Figure, FigureResult, run_figure
from repro.bench.osu import osu_allgather_latency, osu_latency_program

__all__ = [
    "FIGURES",
    "Figure",
    "FigureResult",
    "get_figure",
    "osu_allgather_latency",
    "osu_latency_program",
    "run_figure",
]
