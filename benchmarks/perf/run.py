#!/usr/bin/env python3
"""The repo's performance benchmark (see README.md beside this file).

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

prints one JSON object as the last line of stdout: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1``.  The line before it is an ``info`` object (raw
seconds, kernel statistics, inputs) that is reported and never
compared.  Host time is the measured quantity, virtual time the checked
one; the exit status is non-zero when a point failed its check.

Other modes: ``--smoke`` (tiny grids, both metric families, < 60 s),
``--regen-golden``, ``--aa N`` (N interleaved same-code run pairs per
workload, compared with compare.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calib  # noqa: E402  (stdlib only; safe before the program loads)
import tracing  # noqa: E402

#: Measured passes below which a run keeps going past ``--seconds``.
MIN_PASSES = 5
#: Fresh interpreter launches per ``setup_s`` (the first is discarded).
#: Each costs ~0.7 s of the ~37 s a run may take (92 runs in 3420 s).
SETUP_LAUNCHES = 8
#: The environment every measuring process runs in: hash order changes
#: dict layout and with it host time; BLAS worker threads would compete
#: for the box's two cores.
ENVIRONMENT = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class HarnessError(RuntimeError):
    """The harness cannot produce a trustworthy result; names the cause."""


def bootstrap() -> None:
    """Put this checkout's ``src/`` first on the path and refuse any
    other ``repro``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        raise HarnessError(
            f"cannot import repro from {SRC}: {exc} — the benchmark only "
            "measures the checkout it lives in") from exc
    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise HarnessError(
            f"repro was imported from {origin}, outside this checkout's "
            f"{SRC}; refusing to measure it")


def load_contract() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise HarnessError(f"cannot read {path}: {exc}") from exc


def finish_metrics(values: dict, listed: list[dict], family: str) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the *listed* metrics;
    a missing or unlisted name is an error, never a partial result."""
    missing = [spec["name"] for spec in listed if spec["name"] not in values]
    extra = sorted(set(values) - {spec["name"] for spec in listed})
    if missing or extra:
        raise HarnessError(
            f"{family} metrics do not match BENCHMARK.json: "
            f"not produced {missing}, not listed {extra}")
    return {spec["name"]: {"value": values[spec["name"]],
                           "unit": spec["unit"]} for spec in listed}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    raw: list[float] = field(default_factory=list)  # per item, seconds
    cal: list[float] = field(default_factory=list)  # ... calibrated
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    observed: dict[str, dict] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


OFF = tracing.Recorder(enabled=False)


def run_pass(wl, clock, rec=OFF, sampler=None, pass_id: int = 0,
             probe: bool = False) -> PassResult:
    """One pass over *wl*'s items: each item timed between two kernel
    samples, its points checked right after, off the clock."""
    import workloads

    out = PassResult()
    gc.collect()
    workloads.clear_replay_cache()
    wl.prepare()
    try:
        rec.pass_id = pass_id
        with rec.span(f"pass:{wl.name}"):
            for item in wl.items:
                held = []

                def body():
                    if sampler is not None:
                        sampler.active = True
                    try:
                        with rec.span(f"item:{item.name}"):
                            for point in item.points:
                                try:
                                    held.append((point, point.run(rec), None))
                                except Exception as exc:  # a failed point
                                    held.append((point, None, exc))
                    finally:
                        if sampler is not None:
                            sampler.active = False

                raw, cal, _ = clock.time(body)
                out.raw.append(raw)
                out.cal.append(cal)
                # Checked (and dropped) now, off the clock: results kept
                # to the end of the pass would grow the heap the later
                # items' collections have to walk.
                for point, result, exc in held:
                    _check(out, point, result, exc, probe)
    finally:
        wl.cleanup()
    return out


def _check(out: PassResult, point, result, exc, probe: bool) -> None:
    out.attempted += 1
    if exc is None:
        try:
            observed, counts = point.digest(result)
            if probe and point.probe is not None:
                counts = point.probe()
        except Exception as err:
            exc = err
    if exc is not None:
        out.failures.append(
            f"{point.name}: raised {type(exc).__name__}: {exc}")
        return
    out.observed[point.name] = observed
    for key, value in counts.items():
        out.counts[key] = out.counts.get(key, 0) + value
    if point.expect is not None and observed != point.expect:
        out.failures.append(
            f"{point.name}: observed {observed} != expected {point.expect}")


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def setup_child(args) -> int:
    """Fresh-interpreter side of ``setup_s``: time four stages, each
    between two kernel samples, and print them."""
    stages = []
    before = calib.sample()

    def stage(name, fn):
        nonlocal before
        t0 = time.perf_counter()
        value = fn()
        raw = time.perf_counter() - t0
        after = calib.sample()
        stages.append({"name": name, "raw_s": raw, "before_s": before,
                       "after_s": after})
        before = after
        return value

    def import_scipy():
        import networkx  # noqa: F401
        import scipy.sparse  # noqa: F401

    def import_repro():
        bootstrap()
        import layers  # noqa: F401  (pulls every repro module measured)
        import workloads
        return workloads

    stage("numpy", lambda: __import__("numpy"))
    stage("scipy+networkx", import_scipy)
    workloads = stage("repro", import_repro)
    stage("build", lambda: workloads.build(
        args.workload, args.seed, smoke=args.smoke, golden=None,
        references=False))
    print(json.dumps({"stages": stages}))
    return 0


def measure_setup(workload: str, seed: int, smoke: bool,
                  launches: int) -> tuple[float, dict]:
    """Median calibrated seconds from first import to "first item
    runnable" over fresh interpreters (first launch discarded)."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-child",
               "--workload", workload, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    totals, per_stage, raws = [], {}, []
    for launch in range(launches):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise HarnessError(
                f"set-up child failed ({done.returncode}): "
                f"{done.stderr.strip()[-400:]}")
        if launch == 0:
            continue
        stages = json.loads(done.stdout.splitlines()[-1])["stages"]
        cal = {s["name"]: calib.calibrated(s["raw_s"], s["before_s"],
                                           s["after_s"]) for s in stages}
        totals.append(sum(cal.values()))
        raws.append(sum(s["raw_s"] for s in stages))
        for name, value in cal.items():
            per_stage.setdefault(name, []).append(value)
    return statistics.median(totals), {
        "launches": len(totals),
        "raw_s": raws,
        "stage_cal_s": {name: statistics.median(values)
                        for name, values in per_stage.items()},
    }


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def steal_ticks() -> int:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return -1


def env_info(clock, steal0: int) -> dict:
    samples = clock.samples
    spread = calib.spread(samples)
    return {
        "python": sys.version.split()[0],
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "cpus": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()),
        "steal_ticks": steal_ticks() - steal0,
        "calib_samples": len(samples),
        "calib_ms": {"median": statistics.median(samples) * 1e3,
                     "min": min(samples) * 1e3, "max": max(samples) * 1e3},
        "calib_spread": spread,
        "noise_flag": spread > calib.NOISE_LIMIT,
        "cal_nominal_s": calib.CAL_NOMINAL_S,
    }


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def run_end_to_end(wl, clock, seconds: float, setup_launches: int,
                   smoke: bool, min_passes: int = MIN_PASSES):
    setup_s, setup_info = measure_setup(wl.name, wl.inputs["seed"], smoke,
                                        setup_launches)
    warm = run_pass(wl, clock)
    passes = [warm]  # kept for the checks; never timed into pass_s
    measured: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    overran = False
    while True:
        now = time.perf_counter()
        longest = max((sum(p.raw) for p in measured), default=sum(warm.raw))
        if len(measured) >= min_passes and now + longest > deadline:
            break
        if now > deadline:
            overran = True
        measured.append(run_pass(wl, clock, pass_id=len(measured) + 1))
    passes += measured
    values = {
        "pass_s": calib.pass_seconds([p.cal for p in measured]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "passes": len(measured),
        "overran_seconds": overran,
        "pass_raw_s": [sum(p.raw) for p in measured],
        "pass_cal_s": [sum(p.cal) for p in measured],
        "items": [item.name for item in wl.items],
        "item_cal_s": [statistics.median(col)
                       for col in zip(*(p.cal for p in measured))],
        "setup": setup_info,
    }
    return values, info, passes


def run_traced(wl, clock, smoke: bool, out_path: str | None):
    import layers

    # The layer suite has run every module: no separate warm-up pass.
    values, bases = layers.run_layers(clock, smoke=smoke)
    plain = run_pass(wl, clock, pass_id=1)
    rec = tracing.Recorder(enabled=True)
    with tracing.Sampler() as sampler:
        traced = run_pass(wl, clock, rec, sampler, pass_id=2, probe=True)
    counts = traced.counts
    events = counts.get("events", 0)
    hits, misses = counts.get("replay_hits", 0), counts.get("replay_misses", 0)
    values.update({
        "engine.events_per_pass": events,
        "engine.us_per_event": (sum(plain.cal) / events * 1e6
                                if events else 0.0),
        "replay.hits": hits,
        "replay.misses": misses,
        "replay.events_saved": counts.get("replay_events_saved", 0),
        "replay.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "trace.spans_per_pass": counts.get("spans", 0),
        "bench.trace_overhead": sum(traced.cal) / sum(plain.cal),
        "bench.calib_ms_median": statistics.median(clock.samples) * 1e3,
        "bench.calib_spread": calib.spread(clock.samples),
        "bench.passes": 2,
    })
    for name, share in sampler.shares().items():
        values[f"host_share.{name}"] = share
    item_spans = sum(span["end"] - span["start"] for span in rec.spans
                     if span["name"].startswith("item:"))
    info = {
        "bases": dict(bases, **{
            "bench.trace_overhead.base_untraced_pass_s": sum(plain.cal)}),
        # The pass is its items: their spans must add up to its raw time.
        "traced_pass_raw_s": sum(traced.raw),
        "item_span_sum_s": item_spans,
        "samples": sum(sampler.counts.values()),
        "spans": len(rec.spans),
        "counts": counts,
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracing.to_chrome(rec.spans), fh)
    return values, info, [plain, traced]


def summarize(passes: list[PassResult]) -> tuple[int, list[str], str]:
    import workloads

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    digests = {workloads.doc_digest(p.observed) for p in passes}
    if len(digests) != 1:
        failures.append("virtual results differ between passes of one run")
    return attempted, failures, sorted(digests)[0]


def emit(result: dict, info: dict, json_path: str | None) -> None:
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(dict(result, info=info), fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)


def measure(args) -> int:
    import workloads

    contract = load_contract()
    steal0 = steal_ticks()
    clock = calib.Clock()
    golden = workloads.load_golden()
    wl = workloads.build(args.workload, args.seed, smoke=args.smoke,
                         golden=golden)
    if args.corrupt_golden:
        workloads.with_corrupted_expectation(wl)
    metrics: dict = {}
    info: dict = {"workload": wl.name, "trace": args.trace or 0,
                  "inputs": wl.inputs}
    passes: list[PassResult] = []
    both = args.smoke and args.trace is None
    if both or not args.trace:
        values, run_info, done = run_end_to_end(
            wl, clock, args.seconds,
            3 if args.smoke else SETUP_LAUNCHES, args.smoke,
            min_passes=2 if args.smoke else MIN_PASSES)
        metrics.update(finish_metrics(values, contract["end_to_end"],
                                      "end-to-end"))
        info["end_to_end"] = run_info
        passes += done
    if both or args.trace:
        values, run_info, done = run_traced(wl, clock, args.smoke, args.out)
        metrics.update(finish_metrics(values, contract["per_layer"],
                                      "per-layer"))
        info["per_layer"] = run_info
        passes += done
    attempted, failures, digest = summarize(passes)
    info["virtual_digest"] = digest
    info["failures"] = failures[:20]
    info["env"] = env_info(clock, steal0)
    emit({"correct": not failures, "attempted": attempted,
          "failed": len(failures), "metrics": metrics}, info, args.json)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failures else 0


def regen_golden() -> int:
    """Rewrite golden.json from this checkout: the observed value of
    every point the committed BENCH files and set-up references do not
    cover, for the full and the smoke grids."""
    import workloads

    clock = calib.Clock()
    doc: dict = {"comment": "written by run.py --regen-golden; "
                            "virtual-time results, bit for bit"}
    digests = {}
    for section, smoke in (("full", False), ("smoke", True)):
        doc[section] = {}
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, 0, smoke=smoke, golden=None)
            first, second = run_pass(wl, clock), run_pass(wl, clock)
            if first.failures or first.observed != second.observed:
                raise HarnessError(
                    f"{name}: results not reproducible, golden not written: "
                    f"{first.failures[:3]}")
            pins = doc[section][name] = {}
            for point in (p for item in wl.items for p in item.points):
                if point.expect is not None:
                    continue
                seen = first.observed[point.name]
                if pins.setdefault(point.pin or point.name, seen) != seen:
                    raise HarnessError(
                        f"{name}: {point.name} disagrees with "
                        f"{point.pin}, which it must equal: {seen}")
            digests[f"{section}/{name}"] = workloads.doc_digest(
                first.observed)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"virtual_digest": digests}, indent=1))
    return 0


def run_aa(args) -> int:
    """N interleaved pairs of runs of this checkout per workload; the
    comparison must find no gap beyond a bound."""
    import compare
    import workloads

    contract = load_contract()
    out_dir = args.aa_dir or os.path.join(workloads.TMP_ROOT, "aa")
    os.makedirs(out_dir, exist_ok=True)
    sets: dict[str, list[dict]] = {"A": [], "B": []}
    for name in workloads.WORKLOADS:
        for i in range(args.aa):
            for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
                path = os.path.join(out_dir, f"{name}.{side}{i}.json")
                done = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", name, "--seed", str(2 * i + (side == "B")),
                     "--seconds", str(args.seconds), "--trace", "0",
                     "--json", path],
                    capture_output=True, text=True, timeout=600)
                if done.returncode != 0:
                    raise HarnessError(
                        f"{name} {side}{i} failed: {done.stderr[-400:]}")
                with open(path, encoding="utf-8") as fh:
                    sets[side].append(json.load(fh))
                print(f"{name} {side}{i} done", file=sys.stderr, flush=True)
    for side, docs in sets.items():
        with open(os.path.join(out_dir, f"{side}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(docs, fh)
    rows = compare.compare(sets["A"], sets["B"], contract)
    print(compare.render(rows))
    return 1 if any(abs(r["gap"]) > r["bound"] for r in rows) else 0


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="osu_replay")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics (default); 1: per-layer "
                             "metrics; --smoke without it: both")
    parser.add_argument("--out", default=None,
                        help="--trace 1: write the Chrome trace here")
    parser.add_argument("--json", default=None,
                        help="also write result + info to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, both metric families")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--aa", type=int, default=0, metavar="N")
    parser.add_argument("--aa-dir", default=None)
    parser.add_argument("--corrupt-golden", action="store_true",
                        help="damage one expected value (harness self-test)")
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if args.setup_child:
        return setup_child(args)
    if any(os.environ.get(k) != v for k, v in ENVIRONMENT.items()):
        os.environ.update(ENVIRONMENT)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__),
                                  *(sys.argv[1:] if argv is None else argv)])
    if hasattr(os, "sched_setaffinity"):
        # One CPU for everything: the closed-loop client and the server
        # thread never run at once, and waking a thread on the other
        # vCPU costs more, and varies more, than a switch on this one.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        bootstrap()
        if args.seconds is None:
            args.seconds = 2.0 if args.smoke else float(
                load_contract()["run_seconds"])
        if args.regen_golden:
            return regen_golden()
        if args.aa:
            return run_aa(args)
        return measure(args)
    except (HarnessError, LookupError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        _remove_empty_tmp()


def _remove_empty_tmp() -> None:
    tmp = os.path.join(HERE, ".tmp")
    try:
        os.rmdir(tmp)
    except OSError:
        pass  # absent, or an --aa directory the user wants to keep


if __name__ == "__main__":
    sys.exit(main())
