"""Tracked wall-clock performance harness (``repro-perf``).

Measures how fast the *simulator itself* runs — wall-clock seconds and
events/second — on the canonical Fig 7/9/10 allgather configurations,
and writes one ``BENCH_<label>.json`` per figure.  The committed BENCH
files at the repository root carry the before/after numbers of the
replay-cache work (see docs/performance.md); CI re-runs the quick sweep
and gates on events/second against them.

Virtual-time results (latencies, event counts) are independent of the
payload mode — the equivalence tests assert that — so the harness
measures the cheap configuration (``payload="cost-only"``) by default
and the numbers still describe the same simulation the figures run.

Usage::

    repro-perf                      # full sweep, BENCH_*.json in cwd
    repro-perf --quick              # reduced sweep (CI smoke)
    repro-perf --label fig10        # one figure only
    repro-perf --quick --gate .     # compare against committed BENCH files
    repro-perf --replay             # replay-off vs replay-on comparison
    repro-perf --profile            # cProfile table (PROFILE_<label>.txt)

``--replay`` runs every point twice — once with the collective replay
cache disabled, once cold-cache enabled — asserts the virtual-time
latency is bit-identical, and writes a single ``BENCH_replay.json``
with per-point wall/event columns for both legs.  ``--replay-gate X``
fails the run when the aggregate warm-repetition speedup drops below
``X`` (CI uses 5).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Any

from repro.bench import sweep as sweeplib

__all__ = ["PERF_LABELS", "perf_points", "measure_point", "run_perf",
           "run_replay_compare", "profile_perf", "write_bench",
           "check_gate", "main"]

PERF_LABELS = ("fig7", "fig9", "fig10")

#: Pre-replay reference numbers (wall seconds / events processed),
#: measured with ``payload="cost-only"`` and replay disabled at
#: ``DEFAULT_REPS=50`` — i.e. the off leg of ``repro-perf --replay``.
#: Keyed like the harness output so "before" columns and speedups can
#: be reported.  Event counts are the replay-off totals; a fresh run
#: (replay on by default) processes far fewer, and the ratio is the work
#: the replay cache skipped.
BASELINE: dict[str, dict[str, dict[str, float]]] = {
    "fig7": {
        "n1x24/1el/hybrid": {"wall_s": 0.0675, "events": 2526},
        "n1x24/1el/pure": {"wall_s": 0.2585, "events": 112632},
        "n1x24/1024el/hybrid": {"wall_s": 0.037, "events": 2526},
        "n1x24/1024el/pure": {"wall_s": 0.2512, "events": 93048},
        "n1x24/16384el/hybrid": {"wall_s": 0.0377, "events": 2526},
        "n1x24/16384el/pure": {"wall_s": 1.1086, "events": 396600},
    },
    "fig9-quick": {
        "n4x3/512el/hybrid": {"wall_s": 0.0546, "events": 10881},
        "n4x3/512el/pure": {"wall_s": 0.1077, "events": 39180},
        "n4x12/512el/hybrid": {"wall_s": 0.1411, "events": 16425},
        "n4x12/512el/pure": {"wall_s": 1.0725, "events": 455988},
        "n4x24/512el/hybrid": {"wall_s": 0.282, "events": 27897},
        "n4x24/512el/pure": {"wall_s": 4.6844, "events": 1735524},
    },
    "fig9-full": {
        "n16x3/512el/hybrid": {"wall_s": 0.3772, "events": 76005},
        "n16x3/512el/pure": {"wall_s": 0.6134, "events": 189360},
        "n16x12/512el/hybrid": {"wall_s": 1.2895, "events": 277701},
        "n16x12/512el/pure": {"wall_s": 6.4207, "events": 2036112},
        "n16x24/512el/hybrid": {"wall_s": 1.9874, "events": 307269},
        "n16x24/512el/pure": {"wall_s": 19.1185, "events": 7137936},
    },
    "fig10-quick": {
        "r160/1el/hybrid": {"wall_s": 0.5131, "events": 45406},
        "r160/1el/pure": {"wall_s": 1.0707, "events": 309934},
        "r160/1024el/hybrid": {"wall_s": 0.5595, "events": 68968},
        "r160/1024el/pure": {"wall_s": 9.9456, "events": 2838208},
        "r160/16384el/hybrid": {"wall_s": 0.6851, "events": 68968},
        "r160/16384el/pure": {"wall_s": 9.6221, "events": 2821888},
    },
    "fig10-full": {
        "r1024/1el/hybrid": {"wall_s": 4.0347, "events": 403408},
        "r1024/1el/pure": {"wall_s": 11.6811, "events": 2099980},
        "r1024/1024el/hybrid": {"wall_s": 8.9145, "events": 2008684},
        "r1024/1024el/pure": {"wall_s": 68.8288, "events": 20132050},
        "r1024/16384el/hybrid": {"wall_s": 7.9382, "events": 2008684},
        "r1024/16384el/pure": {"wall_s": 70.4192, "events": 20027602},
    },
}


def _baseline_key(label: str, quick: bool) -> str:
    # fig7 is a single-node config with no quick/full distinction.
    if label == "fig7":
        return "fig7"
    return f"{label}-{'quick' if quick else 'full'}"


def perf_points(label: str,
                quick: bool = False) -> list[tuple[str, Any]]:
    """``(name, SweepPoint)`` for every measured point of *label* —
    a thin alias of :func:`repro.bench.sweep.figure_points`, the single
    source of truth for the canonical figure grids."""
    return sweeplib.figure_points(label, quick)


def measure_point(point, payload: str = "cost-only") -> dict[str, Any]:
    """Run one :class:`~repro.bench.sweep.SweepPoint` fresh and return
    its wall/event/latency record (BENCH field subset)."""
    point = replace(point, payload=payload)
    rec = sweeplib.run_point(point)
    return {k: rec[k] for k in
            ("wall_s", "events", "latency_us", "events_per_s")}


def run_perf(label: str, quick: bool = False, payload: str = "cost-only",
             progress: bool = True,
             cache: "sweeplib.ResultCache | None" = None) -> dict[str, Any]:
    """Measure every point of *label*; returns the BENCH document.

    The harness *always computes* — it exists to wall-clock the
    simulator, and a cached wall-clock would be a lie — but with
    *cache* set it stores every fresh result into the shared sweep
    cache, so a ``repro-perf`` run doubles as a cache warmer for
    ``repro-sweep``/the query service.
    """
    baseline = BASELINE.get(_baseline_key(label, quick), {})
    points: dict[str, Any] = {}
    total_wall = 0.0
    total_events = 0
    for name, point in perf_points(label, quick):
        sweep_point = replace(point, payload=payload)
        full = sweeplib.run_point(sweep_point)
        if cache is not None:
            sweeplib.store_record(cache, sweep_point, full)
        rec = {k: full[k] for k in
               ("wall_s", "events", "latency_us", "events_per_s")}
        before = baseline.get(name)
        if before:
            rec["before_wall_s"] = before["wall_s"]
            rec["before_events"] = int(before["events"])
            if rec["wall_s"] > 0:
                rec["speedup"] = round(before["wall_s"] / rec["wall_s"], 2)
        points[name] = rec
        total_wall += rec["wall_s"]
        total_events += rec["events"]
        if progress:
            extra = (f" (was {before['wall_s']}s)" if before else "")
            print(f"  {name}: {rec['wall_s']}s, {rec['events']} events"
                  f"{extra}", flush=True)
    doc: dict[str, Any] = {
        "label": label,
        "mode": "quick" if quick else "full",
        "payload": payload,
        "points": points,
        "total_wall_s": round(total_wall, 3),
        "total_events": total_events,
        "events_per_s": round(total_events / total_wall, 1)
        if total_wall > 0 else 0.0,
    }
    if baseline:
        before_total = round(
            sum(b["wall_s"] for b in baseline.values()), 3
        )
        doc["before_total_wall_s"] = before_total
        if total_wall > 0:
            doc["speedup"] = round(before_total / total_wall, 2)
    return doc


def run_replay_compare(labels, quick: bool = False,
                       payload: str = "cost-only",
                       progress: bool = True) -> dict[str, Any]:
    """Measure the replay cache's warm-repetition speedup.

    Every latency point of *labels* runs twice: replay off, then replay
    on from a cold cache (so the on-leg pays its own pocket-recording
    cost).  Virtual time must be bit-identical between the legs — a
    mismatched ``latency_us`` or ``events``-independent field raises —
    and the document records both legs' wall seconds and event counts,
    plus the aggregate ``speedup`` the CI gate checks.
    """
    from repro.mpi.collectives import replay as replaylib

    points: dict[str, Any] = {}
    total_off = total_on = 0.0
    saved = sweeplib.REPLAY_MODE
    try:
        for label in labels:
            for name, point in perf_points(label, quick):
                sweep_point = replace(point, payload=payload)
                sweeplib.REPLAY_MODE = False
                off = sweeplib.run_point(sweep_point)
                sweeplib.REPLAY_MODE = "loop"
                replaylib.clear_cache()
                on = sweeplib.run_point(sweep_point)
                if on["latency_us"] != off["latency_us"]:
                    raise RuntimeError(
                        f"{label}/{name}: replay changed virtual time "
                        f"({on['latency_us']} != {off['latency_us']} us)"
                    )
                rec = {
                    "latency_us": off["latency_us"],
                    "wall_off_s": off["wall_s"],
                    "wall_on_s": on["wall_s"],
                    "events_off": off["events"],
                    "events_on": on["events"],
                }
                if on["wall_s"] > 0:
                    rec["speedup"] = round(off["wall_s"] / on["wall_s"], 2)
                if "replay" in on:
                    rec["replay"] = on["replay"]
                points[f"{label}/{name}"] = rec
                total_off += off["wall_s"]
                total_on += on["wall_s"]
                if progress:
                    print(
                        f"  {label}/{name}: {off['wall_s']}s -> "
                        f"{on['wall_s']}s (x{rec.get('speedup', 0)})",
                        flush=True,
                    )
    finally:
        sweeplib.REPLAY_MODE = saved
    return {
        "label": "replay",
        "mode": "quick" if quick else "full",
        "payload": payload,
        "points": points,
        "total_wall_off_s": round(total_off, 3),
        "total_wall_on_s": round(total_on, 3),
        "speedup": round(total_off / total_on, 2) if total_on > 0 else 0.0,
    }


def profile_perf(labels, quick: bool = False, payload: str = "cost-only",
                 out_dir: str = ".",
                 top: int = 25) -> str:
    """cProfile the full measurement sweep of *labels* and write the
    top-*top* cumulative-time table to ``PROFILE_perf.txt`` in
    *out_dir* (CI uploads it as an artifact).  Returns the path."""
    import cProfile
    import io
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    for label in labels:
        run_perf(label, quick=quick, payload=payload, progress=False)
    prof.disable()
    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.sort_stats("cumulative").print_stats(top)
    path = os.path.join(out_dir, "PROFILE_perf.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    return path


def write_bench(doc: dict[str, Any], out_dir: str = ".") -> str:
    """Write *doc* as ``BENCH_<label>.json`` under *out_dir*."""
    path = os.path.join(out_dir, f"BENCH_{doc['label']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def check_gate(doc: dict[str, Any], committed_dir: str,
               factor: float = 2.0) -> str | None:
    """Compare a fresh measurement against a committed BENCH file.

    The gate is on aggregate *events per second* — wall-clock normalized
    by work — because the committed reference (full sweep) and the CI
    smoke run (quick sweep) use different problem sizes, and because CI
    runners differ from the machine that produced the reference.  Returns
    an error string if the fresh run is more than *factor* x slower, or
    ``None`` if it passes (or no reference exists).
    """
    path = os.path.join(committed_dir, f"BENCH_{doc['label']}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    ref_eps = ref.get("events_per_s", 0.0)
    eps = doc.get("events_per_s", 0.0)
    if ref_eps <= 0 or eps <= 0:
        return None
    if eps * factor < ref_eps:
        return (
            f"{doc['label']}: {eps:.0f} events/s is more than {factor:g}x "
            f"below the committed reference ({ref_eps:.0f} events/s in "
            f"{path})"
        )
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description=(
            "Wall-clock benchmark of the simulator on the canonical "
            "Fig 7/9/10 configurations; writes BENCH_<label>.json."
        ),
    )
    parser.add_argument(
        "--label", action="append", choices=PERF_LABELS,
        help="figure config to measure (repeatable; default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sweep (smaller node counts; used by CI)",
    )
    parser.add_argument(
        "--payload", choices=("cost-only", "model", "full"),
        default="cost-only",
        help="payload mode to benchmark (default: cost-only)",
    )
    parser.add_argument(
        "--out-dir", default=".",
        help="directory for BENCH_<label>.json (default: cwd)",
    )
    parser.add_argument(
        "--no-json", action="store_true", help="measure only, write nothing"
    )
    parser.add_argument(
        "--gate", metavar="DIR",
        help=(
            "compare against committed BENCH files in DIR and exit "
            "non-zero on regression (events/s, see --gate-factor)"
        ),
    )
    parser.add_argument(
        "--gate-factor", type=float, default=2.0, metavar="X",
        help="allowed events/s slowdown before --gate fails (default: 2)",
    )
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help=(
            "also store every fresh result into the content-addressed "
            "sweep cache in DIR (repro-sweep/service reads it back)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress"
    )
    parser.add_argument(
        "--replay", action="store_true",
        help=(
            "measure replay-off vs cold-cache replay-on for every point "
            "and write BENCH_replay.json (virtual time must match)"
        ),
    )
    parser.add_argument(
        "--replay-gate", type=float, default=None, metavar="X",
        help=(
            "with --replay: fail when the aggregate warm-repetition "
            "speedup is below X (CI uses 5)"
        ),
    )
    parser.add_argument(
        "--profile", action="store_true",
        help=(
            "cProfile the sweep and write the top-25 cumulative table "
            "to PROFILE_perf.txt (CI artifact)"
        ),
    )
    args = parser.parse_args(argv)
    labels = args.label or list(PERF_LABELS)
    cache = sweeplib.ResultCache(args.cache) if args.cache else None
    if args.replay:
        doc = run_replay_compare(
            labels, quick=args.quick, payload=args.payload,
            progress=not args.quiet,
        )
        print(
            f"replay: {doc['total_wall_off_s']}s off -> "
            f"{doc['total_wall_on_s']}s on (x{doc['speedup']} speedup)",
            flush=True,
        )
        if not args.no_json:
            path = write_bench(doc, args.out_dir)
            if not args.quiet:
                print(f"wrote {path}", flush=True)
        if args.replay_gate and doc["speedup"] < args.replay_gate:
            print(
                f"PERF REGRESSION: replay speedup x{doc['speedup']} is "
                f"below the x{args.replay_gate:g} gate", file=sys.stderr,
            )
            return 1
        return 0
    if args.profile:
        path = profile_perf(
            labels, quick=args.quick, payload=args.payload,
            out_dir=args.out_dir,
        )
        print(f"wrote {path}", flush=True)
        return 0
    failures = []
    for label in labels:
        if not args.quiet:
            print(f"{label} ({'quick' if args.quick else 'full'}):",
                  flush=True)
        doc = run_perf(
            label, quick=args.quick, payload=args.payload,
            progress=not args.quiet, cache=cache,
        )
        summary = f"{label}: {doc['total_wall_s']}s, {doc['events_per_s']:.0f} events/s"
        if "speedup" in doc:
            summary += (f" ({doc['before_total_wall_s']}s before, "
                        f"x{doc['speedup']} speedup)")
        print(summary, flush=True)
        if not args.no_json:
            path = write_bench(doc, args.out_dir)
            if not args.quiet:
                print(f"wrote {path}", flush=True)
        if args.gate:
            err = check_gate(doc, args.gate, args.gate_factor)
            if err:
                failures.append(err)
    for err in failures:
        print(f"PERF REGRESSION: {err}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
