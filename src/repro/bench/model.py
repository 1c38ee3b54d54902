"""Analytic-model bench CLI (``repro-model``).

Three subjects, all priced entirely by :mod:`repro.analysis.model` —
no simulation runs, which is what makes 10k–1M-rank sweeps take
milliseconds:

* ``sweep`` — Fig-7/9/10-style hybrid-vs-pure allgather crossover maps
  at rank counts the DES cannot reach (default 10k/65k/1M ranks),
  printing per-size latencies, the crossover message sizes, and the
  wall-clock the sweep itself took; each side is the cheapest of
  :func:`candidates`, the registered algorithms applicable to the
  configuration's shape (the same list ``/best`` prices);
* ``report`` — divergence of the model against the committed
  ``BENCH_<label>.json`` latencies at the repository root, each point
  priced with the algorithm the registry's decision table
  (``CostModel.table_algo``) dispatched when it was measured, written as a
  JSON artifact for CI;
* ``transports`` — the socket-tier crossover map: two- vs three-level
  Hy_Allgather on the 2-socket preset under every registered on-node
  transport (the model-side companion of the DES-measured
  ``BENCH_transport_crossover.json``).

Usage::

    repro-model sweep                   # 10k/65k/1M-rank crossover maps
    repro-model sweep --ranks 4096
    repro-model report --out model_divergence.json
    repro-model transports --out transport_crossover.json
    repro-model                         # sweep + report + transports
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Any

from repro.analysis.model import CostModel, crossover_points
from repro.bench import sweep as sweeplib
from repro.machine.presets import hazel_hen, hazel_hen_2s, vulcan
from repro.machine.transport import TRANSPORTS
from repro.mpi.collectives.registry import CollRequest, applicable_algorithms
from repro.mpi.collectives.tuning import tuning_for_machine

__all__ = ["model_best", "candidates", "sweep_config", "run_sweep",
           "run_report", "run_transports", "main"]

#: Message sizes swept (bytes per rank), eager through pipeline regime.
SWEEP_SIZES = tuple(8 * (1 << k) for k in range(0, 15))  # 8 B .. 128 KiB

#: Fig-10-style irregular populations at simulator-unreachable scale.
SWEEP_RANKS = (10_000, 65_536, 1_000_000)


def _fig10_counts(nranks: int, ppn: int = 24) -> list[int]:
    """Fig 10's irregular population at *nranks*: full nodes of *ppn*
    ranks plus one straggler node holding the remainder."""
    full, rem = divmod(nranks, ppn)
    return [ppn] * full + ([rem] if rem else [])


def _priced(model: CostModel, op: str, algo: str, nbytes: int,
            cache: "sweeplib.ResultCache | None", **config) -> float:
    """One candidate's model latency (seconds) — straight from the
    model when *cache* is ``None``, else through the sweep cache as a
    content-addressed ``engine="model"`` point (so re-running a sweep
    against the same cache answers every candidate without pricing).
    *config* holds the :class:`~repro.bench.sweep.SweepPoint` fields
    naming *model*'s configuration (machine, counts, variant, ...); a
    miss is priced by the sweep layer's shared model for it."""
    if cache is None:
        return model.predict(op, algo, nbytes)
    point = sweeplib.SweepPoint(nbytes=int(nbytes), engine="model", op=op,
                                algo=algo, **config)
    record, _source = sweeplib.evaluate(point, cache)
    return record["latency_s"]


def model_best(model: CostModel, op: str, nbytes: float,
               candidates: list[str],
               cache: "sweeplib.ResultCache | None" = None,
               **point_kwargs) -> tuple[str, float]:
    """(algo, seconds) minimizing the model over *candidates*.

    With *cache* set, every candidate is priced through the sweep
    cache; *point_kwargs* (machine, counts, variant, ...) identify the
    configuration for the cache key.
    """
    best = None
    for name in candidates:
        t = _priced(model, op, name, nbytes, cache, **point_kwargs)
        if best is None or t < best[1]:
            best = (name, t)
    assert best is not None
    return best


def candidates(model: CostModel, op: str, nbytes: float) -> list[str]:
    """Every registered algorithm of the allgather-family *op*
    structurally applicable to *model*'s communicator shape, in
    registration order."""
    req = CollRequest(op, nbytes, nbytes * model.p)
    return [d.name for d in applicable_algorithms(op, model.shape, req)]


def sweep_config(nranks: int, machine: str = "hazel_hen"):
    """The Fig-10-style (spec, counts) pair at *nranks* total ranks."""
    counts = _fig10_counts(nranks)
    factory = {"hazel_hen": hazel_hen, "vulcan": vulcan}[machine]
    return factory(len(counts)), counts


def run_sweep(ranks=SWEEP_RANKS, sizes=SWEEP_SIZES,
              machine: str = "hazel_hen",
              cache: "sweeplib.ResultCache | None" = None
              ) -> dict[str, Any]:
    """Crossover maps: per rank count, hybrid-vs-pure latency per size
    and the message sizes where the curves cross.  With *cache* set,
    every candidate latency goes through the content-addressed sweep
    cache (``engine="model"`` points)."""
    t0 = time.perf_counter()
    out: dict[str, Any] = {"machine": machine, "maps": {}}
    for nranks in ranks:
        spec, counts = sweep_config(nranks, machine)
        model = CostModel(spec, counts,
                          tuning=tuning_for_machine(spec.name))
        irregular = len(model.classes) > 1
        op = "allgatherv" if irregular else "allgather"
        rows = []
        pure_lat, hy_lat = [], []
        for nbytes in sizes:
            pure = model_best(model, op, nbytes,
                              candidates(model, op, nbytes),
                              cache=cache, machine=machine,
                              counts=counts, variant="pure")
            hy = model_best(model, "hy_allgather", nbytes,
                            candidates(model, "hy_allgather", nbytes),
                            cache=cache, machine=machine,
                            counts=counts, variant="hybrid")
            pure_lat.append(pure[1])
            hy_lat.append(hy[1])
            rows.append({
                "nbytes": nbytes,
                "pure_algo": pure[0], "pure_s": pure[1],
                "hybrid_algo": hy[0], "hybrid_s": hy[1],
                "speedup": pure[1] / hy[1],
            })
        out["maps"][str(nranks)] = {
            "nodes": len(counts),
            "op": op,
            "rows": rows,
            "crossover_nbytes": crossover_points(
                [float(s) for s in sizes], hy_lat, pure_lat),
        }
    out["wall_s"] = round(time.perf_counter() - t0, 4)
    return out


def _figure_point(label: str, key: str) -> "sweeplib.SweepPoint":
    """The sweep point a committed BENCH key names, looked up in the
    grid that named it: the full figure grid, then the quick one."""
    for quick in (False, True):
        for name, point in sweeplib.figure_points(label, quick):
            if name == key:
                return point
    raise ValueError(f"unrecognized {label} point key {key!r}")


def run_report(bench_dir: str = ".",
               labels=("fig7", "fig9", "fig10")) -> dict[str, Any]:
    """Model-vs-BENCH divergence for every committed point."""
    report: dict[str, Any] = {"points": {}, "missing": []}
    divs = []
    for label in labels:
        path = os.path.join(bench_dir, f"BENCH_{label}.json")
        if not os.path.exists(path):
            report["missing"].append(label)
            continue
        with open(path) as fh:
            bench = json.load(fh)
        for key, rec in bench.get("points", {}).items():
            point = _figure_point(label, key)
            spec = point.spec()
            model = CostModel(spec, list(point.counts),
                              tuning=tuning_for_machine(spec.name))
            # The algorithm the default (table) policy dispatched when
            # the committed latency was measured.
            op = point.resolved_op
            algo = model.table_algo(op, point.nbytes)
            model_s = model.predict(op, algo, point.nbytes)
            bench_s = rec["latency_us"] / 1e6
            div = (abs(model_s - bench_s) / bench_s
                   if bench_s > 0 else math.inf)
            divs.append(div)
            report["points"][f"{label}/{key}"] = {
                "bench_us": round(bench_s * 1e6, 3),
                "model_us": round(model_s * 1e6, 3),
                "divergence": round(div, 4),
            }
    if divs:
        divs.sort()
        report["median_divergence"] = round(divs[len(divs) // 2], 4)
        report["worst_divergence"] = round(divs[-1], 4)
    return report


def run_transports(sizes=SWEEP_SIZES, nodes: int = 4, ppn: int = 24,
                   socket_mode: str = "compact",
                   cache: "sweeplib.ResultCache | None" = None
                   ) -> dict[str, Any]:
    """Two- vs three-level Hy_Allgather crossover on the 2-socket
    preset, per registered on-node transport, priced by the model.

    For each transport the three-level exchange (per-socket parallel
    bridges) is compared against the two-level one and against the flat
    single-pool node model; ``crossover_nbytes`` locates the message
    sizes where three-level starts winning.
    """
    t0 = time.perf_counter()
    counts = [ppn] * nodes
    flat_model = CostModel(hazel_hen(nodes), counts)
    out: dict[str, Any] = {
        "nodes": nodes, "ppn": ppn, "socket_mode": socket_mode,
        "machine": "hazel_hen_2s", "transports": {},
    }
    for transport in sorted(TRANSPORTS):
        spec = hazel_hen_2s(nodes, transport=transport)
        model = CostModel(spec, counts, socket_mode=socket_mode)
        rows = []
        t2, t3 = [], []
        kwargs = dict(machine="hazel_hen_2s", counts=counts,
                      variant="hybrid", socket_mode=socket_mode,
                      transport=transport)
        for nbytes in sizes:
            two = _priced(model, "hy_allgather", "shared_window",
                          nbytes, cache, **kwargs)
            three = _priced(model, "hy_allgather", "shared_window_3l",
                            nbytes, cache, **kwargs)
            t2.append(two)
            t3.append(three)
            rows.append({
                "nbytes": nbytes,
                "flat_s": _priced(
                    flat_model, "hy_allgather", "shared_window", nbytes,
                    cache, machine="hazel_hen", counts=counts,
                    variant="hybrid"),
                "two_level_s": two,
                "three_level_s": three,
                "speedup": two / three,
            })
        out["transports"][transport] = {
            "rows": rows,
            "crossover_nbytes": crossover_points(
                [float(s) for s in sizes], t3, t2),
        }
    out["wall_s"] = round(time.perf_counter() - t0, 4)
    return out


def _print_sweep(sweep: dict[str, Any]) -> None:
    for nranks, m in sweep["maps"].items():
        print(f"\n== {int(nranks):,} ranks on {m['nodes']:,} nodes "
              f"({sweep['machine']}, {m['op']}) ==")
        print(f"{'bytes/rank':>10}  {'pure':>12}  {'hybrid':>12}"
              f"  {'speedup':>8}  algos")
        for row in m["rows"]:
            print(f"{row['nbytes']:>10}  {row['pure_s']*1e6:>10.1f}us"
                  f"  {row['hybrid_s']*1e6:>10.1f}us"
                  f"  {row['speedup']:>7.2f}x"
                  f"  {row['pure_algo']} vs {row['hybrid_algo']}")
        xs = m["crossover_nbytes"]
        if xs:
            pretty = ", ".join(f"{x:,.0f} B" for x in xs)
            print(f"crossover (hybrid vs pure) at: {pretty}")
        else:
            print("no crossover in the swept size range")
    print(f"\nswept {sum(len(m['rows']) for m in sweep['maps'].values())}"
          f" points in {sweep['wall_s']:.3f}s wall-clock")


def _print_transports(doc: dict[str, Any]) -> None:
    print(f"\n== 2- vs 3-level Hy_Allgather on {doc['machine']} "
          f"({doc['nodes']}x{doc['ppn']} ranks, "
          f"{doc['socket_mode']} mapping) ==")
    for transport, m in doc["transports"].items():
        print(f"\n-- transport: {transport} --")
        print(f"{'bytes/rank':>10}  {'2-level':>12}  {'3-level':>12}"
              f"  {'speedup':>8}")
        for row in m["rows"]:
            print(f"{row['nbytes']:>10}  {row['two_level_s']*1e6:>10.1f}us"
                  f"  {row['three_level_s']*1e6:>10.1f}us"
                  f"  {row['speedup']:>7.2f}x")
        xs = m["crossover_nbytes"]
        if xs:
            pretty = ", ".join(f"{x:,.0f} B" for x in xs)
            print(f"3-level overtakes 2-level at: {pretty}")
        else:
            print("no crossover in the swept size range")


def _print_report(report: dict[str, Any]) -> None:
    if report["points"]:
        print(f"\n== model vs committed BENCH latencies ==")
        for key, row in report["points"].items():
            print(f"{key:32s} bench {row['bench_us']:>10.2f}us  "
                  f"model {row['model_us']:>10.2f}us  "
                  f"div {row['divergence']:>7.1%}")
        print(f"median divergence {report['median_divergence']:.1%}, "
              f"worst {report['worst_divergence']:.1%}")
    for label in report["missing"]:
        print(f"BENCH_{label}.json not found — skipped")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-model", description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("command", nargs="?", default="all",
                        choices=("sweep", "report", "transports", "all"))
    parser.add_argument("--ranks", type=int, nargs="*", default=None,
                        help="rank counts to sweep (default 10k/65k/1M)")
    parser.add_argument("--machine", default="hazel_hen",
                        choices=("hazel_hen", "vulcan"))
    parser.add_argument("--bench-dir", default=".",
                        help="directory holding BENCH_<label>.json")
    parser.add_argument("--out", default=None,
                        help="write the combined JSON document here")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="answer candidate latencies through the "
                             "content-addressed sweep cache in DIR")
    args = parser.parse_args(argv)
    if args.ranks and min(args.ranks) < 1:
        print("--ranks must be >= 1", file=sys.stderr)
        return 2

    cache = sweeplib.ResultCache(args.cache) if args.cache else None
    doc: dict[str, Any] = {}
    if args.command in ("sweep", "all"):
        ranks = tuple(args.ranks) if args.ranks else SWEEP_RANKS
        doc["sweep"] = run_sweep(ranks=ranks, machine=args.machine,
                                 cache=cache)
        _print_sweep(doc["sweep"])
    if args.command in ("report", "all"):
        doc["report"] = run_report(bench_dir=args.bench_dir)
        _print_report(doc["report"])
    if args.command in ("transports", "all"):
        doc["transports"] = run_transports(cache=cache)
        _print_transports(doc["transports"])
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
