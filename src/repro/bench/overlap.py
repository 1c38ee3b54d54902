"""OSU-style communication/computation overlap benchmark.

Measures how much of a collective's latency a non-blocking issue can
hide behind computation, using the OSU micro-benchmark overlap
protocol:

1. ``t_pure`` — the blocking collective's latency;
2. ``t_compute`` — the compute grain alone (defaults to ``t_pure``,
   the classic "just enough work to hide everything" setting);
3. ``t_overall`` — issue the immediate collective, run the compute
   grain, then wait.

From these::

    overlap % = 100 * (1 - (t_overall - t_compute) / t_pure)
    effective latency = t_overall - t_compute        (the *exposed* part)

A fully hidden exchange gives 100 % overlap and zero effective latency;
a blocking-equivalent one gives 0 % and ``t_pure``.  The hybrid variant
is where the paper's structure pays off: only the node leaders run the
bridge exchange, so every child's compute grain hides it entirely.

Run via ``repro-bench overlap`` (see ``--help``) or import
:func:`measure_overlap` / :func:`run_overlap_suite` directly.  The
committed ``BENCH_overlap.json`` at the repo root is regenerated with
``repro-bench overlap --out-json BENCH_overlap.json`` and pinned by
``tests/bench/test_overlap_bench.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.core import HybridContext
from repro.machine import presets
from repro.machine.placement import Placement
from repro.mpi import run_program
from repro.mpi.datatypes import Bytes

__all__ = [
    "overlap_program",
    "measure_overlap",
    "summa_speedup",
    "run_overlap_suite",
    "main",
]

#: Timed repetitions / warm-up (the simulator is deterministic; the
#: warm-up absorbs the one-off hierarchy and window setup).
DEFAULT_REPS = 1
DEFAULT_WARMUP = 1

#: Message sizes (bytes per rank) for the suite.
QUICK_SIZES = (4 * 1024, 64 * 1024)
FULL_SIZES = (1024, 4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024)


def overlap_program(mpi, nbytes: int, variant: str = "hybrid",
                    compute_s: float | None = None,
                    compute_factor: float = 1.0,
                    reps: int | None = None, warmup: int | None = None):
    """Rank program: the three OSU overlap measurements for one size.

    *variant* picks the collective: ``"pure"`` (``Comm.iallgather``) or
    ``"hybrid"`` (``HybridContext.iallgather`` over a node-shared
    buffer).  The compute grain is ``compute_s`` seconds when given,
    else ``compute_factor`` × the measured blocking latency (factor 1.0
    is the OSU default: just enough work to hide the whole exchange;
    smaller factors expose the remainder).  Returns ``{"pure": t,
    "compute": t, "overall": t}`` — per-rank mean seconds of each phase.
    """
    if reps is None:
        reps = DEFAULT_REPS
    if warmup is None:
        warmup = DEFAULT_WARMUP
    comm = mpi.world

    if variant == "hybrid":
        ctx = yield from HybridContext.create(comm)
        buf = yield from ctx.allgather_buffer(nbytes)

        def blocking_op():
            yield from ctx.allgather(buf)

        def immediate_op():
            return ctx.iallgather(buf)
    elif variant == "pure":
        payload = mpi.payload(nbytes) if mpi.data_mode else Bytes(nbytes)

        def blocking_op():
            yield from comm.allgather(payload)

        def immediate_op():
            return comm.iallgather(payload)
    else:
        raise ValueError("variant must be 'pure' or 'hybrid'")

    for _ in range(warmup):
        yield from blocking_op()

    yield from comm.barrier()
    t0 = mpi.now
    for _ in range(reps):
        yield from blocking_op()
    t_pure = (mpi.now - t0) / reps

    grain = t_pure * compute_factor if compute_s is None else compute_s

    yield from comm.barrier()
    t0 = mpi.now
    for _ in range(reps):
        yield mpi.compute(grain)
    t_compute = (mpi.now - t0) / reps

    yield from comm.barrier()
    t0 = mpi.now
    for _ in range(reps):
        req = immediate_op()
        yield mpi.compute(grain)
        yield from req.wait()
    t_overall = (mpi.now - t0) / reps

    return {"pure": t_pure, "compute": t_compute, "overall": t_overall}


def measure_overlap(spec, nprocs: int, nbytes: int, variant: str,
                    compute_s: float | None = None,
                    compute_factor: float = 1.0,
                    payload: str = "cost-only",
                    reps: int | None = None,
                    warmup: int | None = None,
                    placement: Placement | None = None) -> dict[str, float]:
    """Run :func:`overlap_program`; aggregate over the slowest rank.

    Returns microsecond latencies plus the OSU overlap percentage::

        {"pure_us", "compute_us", "overall_us", "effective_us",
         "overlap_pct"}
    """
    result = run_program(
        spec, nprocs, overlap_program, payload=payload,
        placement=placement,
        program_kwargs={
            "nbytes": nbytes, "variant": variant,
            "compute_s": compute_s, "compute_factor": compute_factor,
            "reps": reps, "warmup": warmup,
        },
    )
    t_pure = max(r["pure"] for r in result.returns)
    t_compute = max(r["compute"] for r in result.returns)
    t_overall = max(r["overall"] for r in result.returns)
    exposed = max(t_overall - t_compute, 0.0)
    overlap_pct = 100.0 * (1.0 - exposed / t_pure) if t_pure > 0 else 0.0
    return {
        "pure_us": t_pure * 1e6,
        "compute_us": t_compute * 1e6,
        "overall_us": t_overall * 1e6,
        "effective_us": exposed * 1e6,
        "overlap_pct": round(max(overlap_pct, 0.0), 2),
    }


def summa_speedup(spec, nprocs: int, block: int, variant: str,
                  payload: str = "cost-only",
                  placement: Placement | None = None) -> dict[str, float]:
    """Blocking vs overlap-aware SUMMA on *spec*; returns the speedup."""
    from repro.apps.summa import SummaConfig, summa_program

    times = {}
    for overlap in (False, True):
        cfg = SummaConfig(block=block, variant=variant, overlap=overlap)
        result = run_program(
            spec, nprocs, summa_program, payload=payload,
            placement=placement,
            program_kwargs={"config": cfg},
        )
        times[overlap] = max(r["total"] for r in result.returns)
    return {
        "blocking_us": times[False] * 1e6,
        "overlap_us": times[True] * 1e6,
        "speedup": round(times[False] / times[True], 3),
    }


def run_overlap_suite(quick: bool = False, nodes: int = 4, ppn: int = 4,
                      compute_factor: float | None = None,
                      reps: int | None = None,
                      warmup: int | None = None) -> dict[str, Any]:
    """The full overlap suite: micro overlap points + SUMMA speedups.

    *compute_factor* scales the compute grain as a multiple of the
    measured blocking latency (``None`` → 1.0, the OSU default).
    """
    spec = presets.hazel_hen(num_nodes=nodes)
    nprocs = nodes * ppn
    # Block placement spreads the job over all nodes (ppn ranks each),
    # so the hybrid bridge exchange is non-trivial.
    place = Placement.block(nodes, ppn)
    sizes = QUICK_SIZES if quick else FULL_SIZES
    factors = (0.5, 1.0) if compute_factor is None else (compute_factor,)
    points: dict[str, dict[str, float]] = {}
    for variant in ("pure", "hybrid"):
        for nbytes in sizes:
            for factor in factors:
                key = f"{variant}/{nbytes // 1024}KiB/cf{factor:g}"
                points[key] = measure_overlap(
                    spec, nprocs, nbytes, variant,
                    compute_factor=factor,
                    reps=reps, warmup=warmup, placement=place,
                )
    summa = {
        "ori/b128": summa_speedup(spec, nprocs, 128, "ori",
                                  placement=place),
        "hybrid/b128": summa_speedup(spec, nprocs, 128, "hybrid",
                                     placement=place),
    }
    return {
        "label": "overlap",
        "mode": "quick" if quick else "full",
        "payload": "cost-only",
        "machine": f"hazel_hen(n{nodes}x{ppn})",
        "points": points,
        "summa": summa,
    }


def _render(suite: dict[str, Any]) -> str:
    lines = [
        f"overlap suite on {suite['machine']} ({suite['mode']})",
        f"{'point':<18}{'pure_us':>10}{'effective_us':>14}{'overlap%':>10}",
    ]
    for name, pt in suite["points"].items():
        lines.append(
            f"{name:<18}{pt['pure_us']:>10.2f}"
            f"{pt['effective_us']:>14.2f}{pt['overlap_pct']:>10.1f}"
        )
    lines.append("")
    lines.append(f"{'summa':<18}{'blocking_us':>12}{'overlap_us':>12}"
                 f"{'speedup':>9}")
    for name, st in suite["summa"].items():
        lines.append(
            f"{name:<18}{st['blocking_us']:>12.1f}"
            f"{st['overlap_us']:>12.1f}{st['speedup']:>8.2f}x"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """``repro-bench overlap`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-bench overlap",
        description=(
            "OSU-style communication/computation overlap benchmark "
            "(non-blocking collectives; see docs/modeling.md)."
        ),
    )
    parser.add_argument("--quick", action="store_true",
                        help="reduced size grid (CI smoke)")
    parser.add_argument("--nodes", type=int, default=4,
                        help="hazel_hen nodes (default 4)")
    parser.add_argument("--ppn", type=int, default=4,
                        help="ranks per node (default 4)")
    parser.add_argument("--compute-factor", type=float, default=None,
                        metavar="F",
                        help="compute grain as F x the blocking latency "
                             "(default: both 0.5 and 1.0; 1.0 is the "
                             "OSU protocol)")
    parser.add_argument("--reps", type=int, default=None,
                        help="timed repetitions per measurement")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warm-up repetitions excluded from timing")
    parser.add_argument("--out-json", metavar="PATH",
                        help="write the suite as JSON (BENCH_overlap.json "
                             "format)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the rendered table")
    args = parser.parse_args(argv)
    if args.nodes < 1 or args.ppn < 1:
        print("--nodes and --ppn must be >= 1", file=sys.stderr)
        return 2
    if (args.reps is not None and args.reps < 1) or (
            args.warmup is not None and args.warmup < 0):
        print("--reps must be >= 1 and --warmup >= 0", file=sys.stderr)
        return 2
    suite = run_overlap_suite(
        quick=args.quick, nodes=args.nodes, ppn=args.ppn,
        compute_factor=args.compute_factor,
        reps=args.reps, warmup=args.warmup,
    )
    if args.out_json:
        with open(args.out_json, "w") as fh:
            json.dump(suite, fh, indent=2)
            fh.write("\n")
    if not args.quiet:
        print(_render(suite))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
