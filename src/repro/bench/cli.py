"""Command-line entry point: regenerate paper figures as text tables.

Examples::

    repro-bench --list
    repro-bench --figure fig7
    repro-bench --figure fig9a --mode paper
    repro-bench --all --mode quick --out results.txt
    python -m repro.bench --figure fig12

Algorithm-selection ablations (the registry's pluggable policies)::

    repro-bench --list-algos
    repro-bench --figure fig7 --policy cost_model
    repro-bench --figure fig9a --algo allgather=ring
    repro-bench --figure fig7 --algo allgather=bruck --algo bcast=binomial

Communication/computation overlap (non-blocking collectives — see
docs/modeling.md)::

    repro-bench overlap --quick
    repro-bench overlap --out-json BENCH_overlap.json

Observability (span tracing, metrics, critical path — see
docs/observability.md)::

    repro-bench --trace-out run.json
    repro-bench --trace-out run.json --trace-detail p2p
    repro-bench --metrics-out metrics.prom --trace-variant pure
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench.figures import FIGURES, get_figure
from repro.bench.harness import FigureError
from repro.mpi.collectives import registry as _registry

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate the tables/figures of 'MPI Collectives for "
            "Multi-core Clusters' (ICPP'19) on the simulated clusters."
        ),
    )
    parser.add_argument(
        "--figure", "-f",
        help="figure id to run (see --list)",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every figure"
    )
    parser.add_argument(
        "--mode", choices=("quick", "paper"), default="quick",
        help="sweep size: quick (reduced, default) or paper (full grid)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list known figure ids"
    )
    parser.add_argument(
        "--out", help="append rendered tables to this file"
    )
    parser.add_argument(
        "--report",
        help="write an EXPERIMENTS-style markdown report to this file",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    parser.add_argument(
        "--reps", type=int, metavar="N",
        help=(
            "timed repetitions per OSU measurement (default 50; the "
            "replay cache memoizes the aligned repetitions, so extra "
            "reps cost O(ranks) each instead of a full re-simulation)"
        ),
    )
    parser.add_argument(
        "--warmup", type=int, metavar="N",
        help="warm-up repetitions excluded from timing (default 1)",
    )
    parser.add_argument(
        "--policy", choices=("table", "cost_model"),
        help=(
            "collective selection policy for all runs "
            "(default: the behavior-preserving decision tables)"
        ),
    )
    parser.add_argument(
        "--algo", action="append", metavar="OP=NAME", default=[],
        help=(
            "force one collective's algorithm, e.g. allgather=ring "
            "(repeatable; see --list-algos for names)"
        ),
    )
    parser.add_argument(
        "--list-algos", action="store_true",
        help="list registered collective algorithms per op",
    )
    obs = parser.add_argument_group(
        "observability",
        "trace one Fig 9-config allgather run (see docs/observability.md)",
    )
    obs.add_argument(
        "--trace-out", metavar="FILE",
        help="write a Chrome/Perfetto trace of one traced run to FILE",
    )
    obs.add_argument(
        "--metrics-out", metavar="FILE",
        help=(
            "write metrics of one traced run to FILE "
            "(.json -> JSON, otherwise Prometheus text format)"
        ),
    )
    obs.add_argument(
        "--trace-detail", choices=("dispatch", "phase", "p2p"),
        default="phase",
        help="span granularity of the traced run (default: phase)",
    )
    obs.add_argument(
        "--trace-variant", choices=("hybrid", "pure"), default="hybrid",
        help="allgather variant to trace (default: hybrid)",
    )
    obs.add_argument(
        "--trace-nodes", type=int, default=4, metavar="N",
        help="nodes of the traced run (default: 4)",
    )
    obs.add_argument(
        "--trace-ppn", type=int, default=8, metavar="N",
        help="ranks per node of the traced run (default: 8)",
    )
    obs.add_argument(
        "--trace-elements", type=int, default=512, metavar="N",
        help="float64 elements per rank (default: 512, a Fig 9 point)",
    )
    obs.add_argument(
        "--sockets", type=int, choices=(1, 2), default=1,
        help=(
            "sockets per node of the traced run: 1 = flat node model "
            "(default), 2 = the honest two-socket Hazel Hen preset"
        ),
    )
    obs.add_argument(
        "--placement", choices=("compact", "scatter", "balanced"),
        default="compact", metavar="MODE",
        help=(
            "slot-to-socket mapping of the traced run: compact "
            "(default), scatter, or balanced (only meaningful with "
            "--sockets 2)"
        ),
    )
    obs.add_argument(
        "--transport", default="shm_two_copy", metavar="NAME",
        help=(
            "on-node transport of the traced run: shm_two_copy "
            "(default), cma_single_copy, or pip_direct (only meaningful "
            "with --sockets 2)"
        ),
    )
    return parser


def _run_traced(args) -> int:
    """Handle --trace-out/--metrics-out: one traced allgather run."""
    from repro.bench.observe import (
        check_traced_run,
        render_critical_path,
        run_traced_allgather,
    )
    from repro.metrics import collect_metrics, save_metrics
    from repro.trace import save_chrome_trace

    from repro.machine.transport import get_transport

    try:
        get_transport(args.transport)  # fail fast on typos
        check_traced_run(args.trace_variant, args.trace_nodes,
                         args.trace_ppn, args.trace_elements, args.sockets)
    except ValueError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    result, _tracer = run_traced_allgather(
        variant=args.trace_variant,
        nodes=args.trace_nodes,
        ppn=args.trace_ppn,
        elements=args.trace_elements,
        detail=args.trace_detail,
        sockets=args.sockets,
        socket_mode=args.placement,
        transport=args.transport,
    )
    if not args.quiet:
        node_desc = (
            f"{args.sockets}-socket ({args.transport}, {args.placement})"
            if args.sockets > 1 else "flat"
        )
        print(
            f"traced {args.trace_variant} allgather: "
            f"{args.trace_nodes} nodes x {args.trace_ppn} ranks, "
            f"{args.trace_elements} elements/rank, {node_desc} nodes, "
            f"detail={args.trace_detail}, "
            f"{len(result.trace)} trace records"
        )
    if args.trace_out:
        save_chrome_trace(result.trace, args.trace_out)
        if not args.quiet:
            print(f"wrote Chrome trace to {args.trace_out} "
                  "(open in https://ui.perfetto.dev)")
    if args.metrics_out:
        save_metrics(collect_metrics(result), args.metrics_out)
        if not args.quiet:
            print(f"wrote metrics to {args.metrics_out}")
    print(render_critical_path(result))
    return 0


def _selection_env(policy: str | None, algos: list[str]) -> dict[str, str]:
    """Translate --policy/--algo into REPRO_COLL_* environment variables.

    The figures' sweep points construct their
    :class:`~repro.mpi.runtime.MPIJob` internally, and a job built
    without an explicit policy resolves one from the environment — so
    the CLI simply stages the same variables a user would export by hand
    (and the sweep cache keys on the policy they select)."""
    env: dict[str, str] = {}
    if policy:
        env[_registry.ENV_POLICY] = policy
    for spec in algos:
        op, sep, name = spec.partition("=")
        op, name = op.strip().lower(), name.strip()
        if not sep or not op or not name:
            raise ValueError(
                f"--algo expects OP=NAME (e.g. allgather=ring), got {spec!r}"
            )
        _registry.get_algorithm(op, name)  # fail fast on typos
        env[_registry.ENV_OP_PREFIX + op.upper()] = name
    return env


def _print_algos() -> None:
    for op in sorted(_registry.ops()):
        names = ", ".join(
            f"{d.name}{'*' if d.kind != 'flat' else ''}"
            for d in _registry.algorithms_for(op)
        )
        print(f"{op:16s} {names}")
    print("\n(* = hierarchical/hybrid variant; force with --algo OP=NAME "
          f"or the {_registry.ENV_OP_PREFIX}<OP> environment variable)")


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "overlap":
        # Subcommand: the OSU-style overlap benchmark (docs/modeling.md).
        from repro.bench.overlap import main as overlap_main

        return overlap_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.list_algos:
        _print_algos()
        return 0
    if args.list:
        width = max(len(k) for k in FIGURES)
        for fid in sorted(FIGURES):
            fig = FIGURES[fid]
            print(f"{fid.ljust(width)}  {fig.title}")
        return 0
    if args.trace_out or args.metrics_out:
        return _run_traced(args)
    if not args.figure and not args.all:
        print("nothing to do: pass --figure <id>, --all, or --list",
              file=sys.stderr)
        return 2
    try:
        selection_env = _selection_env(args.policy, args.algo)
    except (ValueError, KeyError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if (args.reps is not None and args.reps < 1) or (
            args.warmup is not None and args.warmup < 0):
        print("--reps must be >= 1 and --warmup >= 0", file=sys.stderr)
        return 2
    ids = sorted(FIGURES) if args.all else [args.figure]
    outputs = []
    report_pairs = []
    saved = {k: os.environ.get(k) for k in selection_env}
    os.environ.update(selection_env)
    # The sweep points build their OSU programs internally, so
    # --reps/--warmup override the module defaults (and the cache keys)
    # for the duration of the runs (restored below).
    from repro.bench import osu as _osu

    saved_reps, saved_warmup = _osu.DEFAULT_REPS, _osu.DEFAULT_WARMUP
    if args.reps is not None:
        _osu.DEFAULT_REPS = args.reps
    if args.warmup is not None:
        _osu.DEFAULT_WARMUP = args.warmup
    try:
        try:
            # Validate the merged REPRO_COLL_* environment (including
            # variables the user exported) before any figure runs.
            _registry.resolve_policy(None)
        except (ValueError, KeyError) as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        for fid in ids:
            try:
                figure = get_figure(fid)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 2
            try:
                result = figure.run(mode=args.mode, progress=not args.quiet)
            except FigureError as exc:
                print(f"figure failed: {exc}", file=sys.stderr)
                return 1
            text = result.render()
            print(text)
            print(f"(wall time {result.wall_seconds:.1f}s)\n")
            outputs.append(text)
            report_pairs.append((result, figure.paper_claim))
    finally:
        _osu.DEFAULT_REPS, _osu.DEFAULT_WARMUP = saved_reps, saved_warmup
        for key, old in saved.items():
            if old is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = old
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            for text in outputs:
                fh.write(text + "\n\n")
    if args.report:
        from repro.bench.report import render_report

        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(render_report(report_pairs))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
