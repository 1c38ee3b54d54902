"""Traced benchmark runs for the observability exports.

`repro-bench --trace-out/--metrics-out` runs one Fig 9-configuration
allgather (hybrid by default, pure-MPI via ``--trace-variant pure``)
with span tracing enabled and exports:

* a Chrome/Perfetto trace (``--trace-out``),
* JSON or Prometheus metrics (``--metrics-out``),
* a critical-path report on stdout.

The figures pipeline itself never exposes job traces (each figure point
builds its job internally); this module is the dedicated path for
inspecting *one* run phase-by-phase.
"""

from __future__ import annotations

from repro.analysis.critical_path import critical_path_report, format_report
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen, hazel_hen_2s
from repro.mpi.runtime import JobResult, run_program
from repro.trace import Tracer

__all__ = ["check_traced_run", "run_traced_allgather"]


def check_traced_run(variant: str, nodes: int, ppn: int, elements: int,
                     sockets: int, reps: int | None = None,
                     warmup: int | None = None) -> None:
    """Raise ValueError naming the first input a traced run cannot take —
    before any job is built."""
    from repro.bench.osu import check_repetitions

    if variant not in ("hybrid", "pure"):
        raise ValueError(f"variant must be 'hybrid' or 'pure', got {variant!r}")
    if sockets not in (1, 2):
        raise ValueError(f"sockets must be 1 or 2, got {sockets!r}")
    for name, value, least in (("nodes", nodes, 1), ("ppn", ppn, 1),
                               ("elements", elements, 0)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    check_repetitions(reps, warmup)


def run_traced_allgather(
    variant: str = "hybrid",
    nodes: int = 4,
    ppn: int = 8,
    elements: int = 512,
    detail: str = "phase",
    reps: int = 3,
    warmup: int = 1,
    sockets: int = 1,
    socket_mode: str = "compact",
    transport: str = "shm_two_copy",
) -> tuple[JobResult, Tracer]:
    """Run one Fig 9-config allgather with tracing; returns (result, tracer).

    *variant* is ``"hybrid"`` (paper Fig 3b/4) or ``"pure"`` (the
    SMP-aware pure-MPI baseline); *elements* are float64 per rank, as in
    the paper's OSU-style sweeps.

    ``sockets=2`` switches to the honest two-socket Hazel Hen node with
    the given on-node *transport* (see :mod:`repro.machine.transport`)
    and maps slots to sockets per *socket_mode* — phase spans then carry
    a ``level`` tag so the exported trace shows which stages ran inside
    a socket, across sockets, or on the bridge network.

    The aligned repetitions replay (``replay="loop"``, as every OSU
    run): the first occurrence is simulated and recorded where it runs,
    the later ones re-emit its spans tagged ``replayed`` — the spans of
    a replay-off run at a fraction of the simulation cost (on one node
    the hybrid variant's come in another order; see
    ``docs/observability.md``).
    """
    from repro.bench.osu import (
        hybrid_allgather_program,
        pure_allgather_program,
    )

    check_traced_run(variant, nodes, ppn, elements, sockets, reps, warmup)
    spec = (hazel_hen(nodes) if sockets == 1
            else hazel_hen_2s(nodes, transport=transport))
    program = (
        hybrid_allgather_program if variant == "hybrid"
        else pure_allgather_program
    )
    tracer = Tracer(detail=detail)
    result = run_program(
        spec,
        None,
        program,
        placement=Placement.block(nodes, ppn).with_socket_mode(socket_mode),
        payload="cost-only",
        trace=tracer,
        replay="loop",
        program_kwargs={
            "nbytes_per_rank": elements * 8,
            "reps": reps,
            "warmup": warmup,
        },
    )
    return result, tracer


def render_critical_path(result: JobResult) -> str:
    """The critical-path report of a traced run, as text."""
    report = critical_path_report(result.trace or [],
                                  total_time=result.elapsed)
    return format_report(report)
