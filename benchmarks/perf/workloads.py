"""The four workloads: seeded inputs, items, and their checks.

A workload is an ordered list of *items*; an item is one point or a
small group of tiny points (sized to run >= ~50 ms so the calibration
bracket around it means something).  A point calls the program through
its public functions only, via ``rec.call`` so a traced pass records a
span per call.  Every point returns a raw result that is turned into an
*observed* dict after the clock stopped, and compared for equality with
an *expected* dict from the committed ``BENCH_fig*.json``,
``golden.json``, or a reference computed untimed at set-up.

Why these four (see README.md for the long form):

``osu_replay``     the shipped path; replay + per-job fixed cost decide it.
``osu_live``       same protocol with replay off; the engine, resources,
                   p2p and the collective algorithms decide it.
``apps_observe``   whole programs, non-blocking requests, real payloads
                   and the tracer with its consumers.
``model_service``  no simulation at all: model, sweep cache, HTTP service.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import tempfile
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.analysis.critical_path import critical_path_report
from repro.apps.bpmf import BPMFConfig, bpmf_program
from repro.apps.stencil2d import Stencil2DConfig, stencil2d_program
from repro.apps.summa import SummaConfig, summa_program, verify_summa
from repro.bench import model as modelbench
from repro.bench import observe, osu, overlap, service
from repro.bench import sweep as sweeplib
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.metrics import collect_metrics, to_prometheus
from repro.mpi import run_program
from repro.mpi.collectives import replay as replaylib
from repro.trace import Tracer, to_chrome_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
#: Scratch space for cache directories; inside the checkout, gitignored.
TMP_ROOT = os.path.join(HERE, ".tmp")

WORKLOADS = ("osu_replay", "osu_live", "apps_observe", "model_service")


@dataclass
class Point:
    """One checked call into the program."""

    name: str
    run: Callable[[Any], Any]
    #: raw result -> (observed, counts); runs after the clock stopped.
    digest: Callable[[Any], tuple[dict, dict]]
    expect: dict | None = None
    #: Recomputes ``counts`` through ``run_program`` when the timed call
    #: only returns a latency (used by the traced run, untimed).
    probe: Callable[[], dict] | None = None
    #: Name of the golden.json entry holding ``expect`` (default: name).
    #: Two points sharing one entry must observe the same thing.
    pin: str | None = None


@dataclass
class Item:
    name: str
    points: list[Point]


@dataclass
class Workload:
    name: str
    items: list[Item]
    inputs: dict
    #: Untimed, before / after every pass.
    prepare: Callable[[], None] = lambda: None
    cleanup: Callable[[], None] = lambda: None
    state: dict = field(default_factory=dict)
    #: False: the seed permutes the items within a pass.
    fixed_order: bool = False


# ---------------------------------------------------------------------------
# Expected values
# ---------------------------------------------------------------------------

def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def bench_expectations() -> dict[str, dict]:
    """``{point name: {"latency_us", "events"}}`` from the committed
    ``BENCH_fig7/9/10.json`` (replay on, ``DEFAULT_REPS``)."""
    out: dict[str, dict] = {}
    for label in ("fig7", "fig9", "fig10"):
        path = os.path.join(ROOT, f"BENCH_{label}.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for name, rec in doc["points"].items():
            out[name] = {"latency_us": repr(rec["latency_us"]),
                         "events": rec["events"]}
    return out


def span_digest(records: list[dict]) -> str:
    """SHA-256 of the span stream with the ``replayed`` tag dropped, so
    a replayed run and a live run of one program hash alike."""
    h = hashlib.sha256()
    for rec in records:
        doc = {k: v for k, v in rec.items() if k != "replayed"}
        h.update(json.dumps(doc, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def doc_digest(doc: Any) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _job_counts(result) -> dict:
    return {"events": result.events_processed,
            "replay_hits": result.replay_hits,
            "replay_misses": result.replay_misses,
            "replay_events_saved": result.replay_events_saved,
            "spans": len(result.trace or ())}


# ---------------------------------------------------------------------------
# OSU points
# ---------------------------------------------------------------------------

def _seeded_elements(rng: random.Random) -> list[int]:
    """Two element counts no canonical grid uses."""
    taken = {1, 512, 1024, 16384}
    return sorted(rng.sample([e for e in range(2, 2049) if e not in taken], 2))


def _seeded_sweep_points(elements: list[int]) -> list[tuple[str, Any]]:
    out = []
    for el in elements:
        for variant in ("hybrid", "pure"):
            out.append((f"seeded/n4x3/{el}el/{variant}", sweeplib.SweepPoint(
                machine="hazel_hen", counts=(3,) * 4, nbytes=el * 8,
                variant=variant)))
    return out


def osu_options(sp) -> dict:
    """Extra program options ``sweep.run_point`` passes for *sp*."""
    return ({"irregular": True}
            if sp.variant == "pure" and sp.is_irregular else {})


def _replay_point(name: str, sp, seeded: bool = False) -> Point:
    def run(rec):
        return rec.call(f"run_point:{name}", sweeplib.run_point, sp)

    def digest(record):
        rp = record.get("replay", {})
        observed = {"latency_us": repr(record["latency_us"])}
        if not seeded:  # a seeded point's event count is not pinned
            observed["events"] = record["events"]
        return (
            observed,
            {"events": record["events"],
             "replay_hits": rp.get("hits", 0),
             "replay_misses": rp.get("misses", 0),
             "replay_events_saved": rp.get("events_saved", 0),
             "spans": 0},
        )

    return Point(name, run, digest)


LIVE_REPS = 10


def _live_point(name: str, sp, seeded: bool = False) -> Point:
    del seeded
    spec, placement, options = sp.spec(), sp.placement(), osu_options(sp)

    def run(rec):
        return rec.call(
            f"osu_allgather_latency:{name}", osu.osu_allgather_latency,
            spec, placement, sp.nbytes, sp.variant, reps=LIVE_REPS,
            replay=False, **options)

    def digest(latency):
        return {"latency_us": repr(latency * 1e6)}, {}

    def probe():
        # The job ``osu_allgather_latency(..., replay=False)`` builds.
        program = (osu.hybrid_allgather_program if sp.variant == "hybrid"
                   else osu.pure_allgather_program)
        return _job_counts(run_program(
            spec, None, program, placement=placement, payload="cost-only",
            replay=False, program_kwargs={
                "nbytes_per_rank": sp.nbytes, "reps": LIVE_REPS,
                "warmup": None, **options}))

    return Point(name, run, digest, probe=probe)


def _live_latency(sp) -> dict:
    """Replay-off latency of *sp* at ``DEFAULT_REPS``."""
    latency = osu.osu_allgather_latency(
        sp.spec(), sp.placement(), sp.nbytes, sp.variant, replay=False,
        **osu_options(sp))
    return {"latency_us": repr(latency * 1e6)}


def _replayed_latency(sp) -> dict:
    return {"latency_us": repr(sweeplib.run_point(sp)["latency_us"])}


def _osu_workload(name: str, rng: random.Random, smoke: bool,
                  layout: dict[str, list[str]], make, reference) -> Workload:
    """Items per *layout* (item name -> canonical point names) plus one
    item of seeded points, which must equal *reference* — the same
    latency obtained the other way (live for replayed, replayed for
    live), computed untimed at set-up."""
    canonical = dict(sweeplib.figure_points("fig7")
                     + sweeplib.figure_points("fig9", quick=True)
                     + sweeplib.figure_points("fig10", quick=True))
    if smoke:
        layout = {"fig7": ["n1x24/1el/hybrid", "n1x24/1el/pure"]}
    elements = _seeded_elements(rng)
    items = [Item(item, [make(n, canonical[n]) for n in names])
             for item, names in layout.items()]
    items.append(Item("seeded", [
        replace(make(n, sp, seeded=True),
                expect=reference(sp) if reference else None)
        for n, sp in _seeded_sweep_points(elements[:1] if smoke
                                          else elements)]))
    return Workload(name, items, {"seeded_elements": elements})


def build_osu_replay(rng: random.Random, smoke: bool,
                     references: bool) -> Workload:
    fig7 = [n for n, _ in sweeplib.figure_points("fig7")]
    return _osu_workload("osu_replay", rng, smoke, {
        "fig7": fig7,
        "fig9q-small": ["n4x3/512el/hybrid", "n4x3/512el/pure",
                        "n4x12/512el/hybrid", "n4x12/512el/pure"],
        **{n: [n] for n in (
            "n4x24/512el/hybrid", "n4x24/512el/pure", "r160/1el/hybrid",
            "r160/1el/pure", "r160/1024el/hybrid", "r160/1024el/pure")},
    }, _replay_point, _live_latency if references else None)


def build_osu_live(rng: random.Random, smoke: bool,
                   references: bool) -> Workload:
    return _osu_workload("osu_live", rng, smoke, {
        "fig7-small": ["n1x24/1el/hybrid", "n1x24/1024el/hybrid",
                       "n1x24/16384el/hybrid", "n1x24/1el/pure",
                       "n1x24/1024el/pure"],
        "fig9q-small": ["n4x3/512el/hybrid", "n4x3/512el/pure",
                        "n4x12/512el/hybrid", "n4x24/512el/hybrid"],
        **{n: [n] for n in (
            "n1x24/16384el/pure", "n4x12/512el/pure", "r160/1el/hybrid",
            "r160/1el/pure")},
    }, _live_point, _replayed_latency if references else None)


# ---------------------------------------------------------------------------
# apps_observe
# ---------------------------------------------------------------------------

def _cores_placement(cores: int):
    full, rem = divmod(cores, 24)
    placement = Placement.irregular([24] * full + ([rem] if rem else []))
    return hazel_hen(max(placement.num_nodes, 1)), placement


def app_point(name: str, program, cores: int, config, payload="cost-only",
              extra=None) -> Point:
    spec, placement = _cores_placement(cores)

    def run(rec):
        return rec.call(f"run_program:{name}", run_program, spec, None,
                        program, placement=placement, payload=payload,
                        program_kwargs={"config": config})

    def digest(result):
        observed = {
            "total": repr(max(r["total"] for r in result.returns)),
            "events": result.events_processed,
        }
        if extra is not None:
            observed.update(extra(result))
        return observed, _job_counts(result)

    return Point(name, run, digest)


#: The traced allgather: the ``observe.run_traced_allgather`` program at
#: 4x12 ranks, 5 repetitions (4x24 x 20 costs 5.7 s a pass here).
TRACED = dict(nodes=4, ppn=12, elements=512, reps=5, warmup=1)


def _consume(rec, tag: str, result) -> dict:
    """The trace consumers, as ``repro-bench --trace-out/--metrics-out``
    runs them."""
    report = rec.call(f"critical_path_report:{tag}", critical_path_report,
                      result.trace, total_time=result.elapsed)
    chrome = rec.call(f"to_chrome_trace:{tag}", to_chrome_trace,
                      result.trace)
    metrics = rec.call(f"collect_metrics:{tag}", collect_metrics, result)
    text = rec.call(f"to_prometheus:{tag}", to_prometheus, metrics)
    return {"critical_rank": report.rank, "chrome_events":
            len(chrome["traceEvents"]), "prometheus_lines":
            text.count("\n")}


def _traced_digest(raw):
    result, consumed = raw
    observed = {"elapsed": repr(result.elapsed),
                "latency": repr(max(result.returns)),
                "spans": len(result.trace),
                "span_digest": span_digest(result.trace), **consumed}
    return observed, _job_counts(result)


def _observe_point(detail: str, variant: str) -> Point:
    name = f"observe/{detail}/{variant}"

    def run(rec):
        result, _tracer = rec.call(
            f"run_traced_allgather:{name}", observe.run_traced_allgather,
            variant=variant, detail=detail, **TRACED)
        return result, _consume(rec, name, result)

    return Point(name, run, _traced_digest)


def _replayed_point(detail: str, variant: str) -> Point:
    name = f"replayed/{detail}/{variant}"
    program = (osu.hybrid_allgather_program if variant == "hybrid"
               else osu.pure_allgather_program)
    spec = hazel_hen(TRACED["nodes"])
    placement = Placement.block(TRACED["nodes"], TRACED["ppn"])
    kwargs = {"nbytes_per_rank": TRACED["elements"] * 8,
              "reps": TRACED["reps"], "warmup": TRACED["warmup"]}

    def run(rec):
        result = rec.call(
            f"run_program:{name}", run_program, spec, None, program,
            placement=placement, payload="cost-only",
            trace=Tracer(detail=detail), replay="loop",
            program_kwargs=kwargs)
        return result, _consume(rec, name, result)

    # Pinned to the live run's entry: replay must not change the spans.
    return Point(name, run, _traced_digest,
                 pin=f"observe/{detail}/{variant}")


def stencil_reference(tile: int, iterations: int, dims: tuple[int, int]
                      ) -> list[float]:
    """Per-rank tile sums of a serial NumPy Jacobi on the global grid
    ``stencil2d_program`` decomposes (zero boundary, row-major ranks)."""
    rows, cols = dims
    grid = np.zeros((rows * tile, cols * tile))
    for rank in range(rows * cols):
        r, c = divmod(rank, cols)
        grid[r * tile:(r + 1) * tile, c * tile:(c + 1) * tile] = np.sin(
            np.arange(tile * tile, dtype=np.float64) * 0.37 + rank
        ).reshape(tile, tile)
    for _ in range(iterations):
        padded = np.pad(grid, 1)
        grid = 0.25 * (padded[:-2, 1:-1] + padded[2:, 1:-1]
                       + padded[1:-1, :-2] + padded[1:-1, 2:])
    return [float(grid[(rank // cols) * tile:(rank // cols + 1) * tile,
                       (rank % cols) * tile:(rank % cols + 1) * tile].sum())
            for rank in range(rows * cols)]


STENCIL = Stencil2DConfig(tile=32, iterations=4, variant="hybrid",
                          overlap=True)


def _stencil_point(references: bool) -> Point:
    spec, placement = hazel_hen(2), Placement.block(2, 8)
    reference = (stencil_reference(STENCIL.tile, STENCIL.iterations, (4, 4))
                 if references else None)

    def run(rec):
        return rec.call("run_program:stencil2d/data", run_program, spec,
                        None, stencil2d_program, placement=placement,
                        payload="full", program_kwargs={"config": STENCIL})

    def digest(result):
        sums = [r["checksum"] for r in result.returns]
        return ({"total": repr(max(r["total"] for r in result.returns)),
                 "events": result.events_processed,
                 "matches_numpy": bool(np.allclose(sums, reference,
                                                   rtol=1e-12, atol=0.0))},
                _job_counts(result))

    return Point("stencil2d/data/hybrid+overlap", run, digest,
                 expect=None)


def _overlap_point(smoke: bool) -> Point:
    def run(rec):
        return rec.call("run_overlap_suite", overlap.run_overlap_suite,
                        quick=True, nodes=2 if smoke else 4,
                        ppn=2 if smoke else 4)

    def digest(suite):
        return {"digest": doc_digest(suite)}, {}

    return Point("overlap/suite-quick", run, digest)


def data_summa_shape(smoke: bool) -> tuple[int, int]:
    """(cores, block) of the data-mode SUMMA point."""
    return (16, 16) if smoke else (64, 32)


def build_apps_observe(rng: random.Random, smoke: bool,
                       references: bool) -> Workload:
    del rng  # the seed only permutes the item order of this workload
    summa: dict[int, list[Point]] = {}
    for block in (8,) if smoke else (8, 64):
        for cores in (16,) if smoke else (16, 64):
            for variant in ("ori", "hybrid"):
                summa.setdefault(block, []).append(app_point(
                    f"summa/b{block}/c{cores}/{variant}", summa_program,
                    cores, SummaConfig(block=block, variant=variant)))
    items = [Item(f"summa-b{b}", pts) for b, pts in summa.items()]
    # Fig 12 quick, with 2 and 1 Gibbs iterations in place of 3: the
    # 120-core pure run alone would be a quarter of the pass.
    bpmf = {
        (cores, variant): app_point(
            f"bpmf/c{cores}/{variant}", bpmf_program, cores,
            BPMFConfig(iterations=iterations, variant=variant))
        for cores, iterations in (((24, 2),) if smoke
                                  else ((24, 2), (120, 1)))
        for variant in ("ori", "hybrid")
    }
    items.append(Item("bpmf-c24", [bpmf[24, "ori"], bpmf[24, "hybrid"]]))
    if not smoke:
        items.append(Item("bpmf-c120-ori", [bpmf[120, "ori"]]))
        items.append(Item("bpmf-c120-hybrid", [bpmf[120, "hybrid"]]))
    data_cores, data_block = data_summa_shape(smoke)
    q = int(round(data_cores ** 0.5))
    summa_data = app_point(
        f"summa/data/b{data_block}/c{data_cores}/hybrid", summa_program,
        data_cores, SummaConfig(block=data_block, variant="hybrid",
                                verify=True),
        payload="full",
        extra=lambda result: {"matches_numpy": verify_summa(
            result.returns, q, data_block)})
    items.append(Item("overlap+data", [_overlap_point(smoke), summa_data,
                                       _stencil_point(references)]))
    for detail in ("phase",) if smoke else ("dispatch", "phase", "p2p"):
        items.append(Item(f"observe-{detail}", [
            _observe_point(detail, "hybrid"), _observe_point(detail, "pure")]))
        items.append(Item(f"replayed-{detail}", [
            _replayed_point(detail, "hybrid"),
            _replayed_point(detail, "pure")]))
    return Workload("apps_observe", items, {"traced": TRACED})


# ---------------------------------------------------------------------------
# model_service
# ---------------------------------------------------------------------------

#: The uncached map is ``repro-model sweep`` as shipped: 10k / 65k / 1M
#: ranks x 15 sizes (8 B .. 128 KiB).
MAP_RANKS = modelbench.SWEEP_RANKS
MAP_SIZES = modelbench.SWEEP_SIZES
#: The map that goes through the result cache.  One small rank count,
#: every other size, and few distinct HTTP requests below: a file
#: creation costs 0.5-1.3 ms on this box's ext4 depending on journal
#: state, which the calibration kernel cannot follow — so a pass creates
#: ~120 files (under a tenth of its time), not the ~800 the full maps
#: would.
CACHED_RANKS = (1536,)
CACHED_SIZES = MAP_SIZES[::2]
SPEC = {"machine": "hazel_hen_2s", "nodes": 16,
        "ppn": [2, 3, 4, 6, 8, 12, 16, 24],
        "elements": [1 << k for k in range(0, 16, 2)], "variant": "hybrid",
        "engine": "model",
        "algo": ["shared_window", "shared_window_3l", "pipelined_ring"],
        "transport": ["shm_two_copy", "cma_single_copy", "pip_direct"],
        "socket_mode": ["compact", "scatter"]}
N_BEST, N_QUERY = 150, 50


def _request_mix(rng: random.Random, smoke: bool) -> list[tuple[str, dict]]:
    """The closed-loop client's requests.  The multiset is the same for
    every seed — each distinct ``/best`` and ``/query`` body repeated
    equally often, so the work and the split between cache puts (first
    occurrence) and gets (every repeat) do not depend on the seed; the
    seed decides the order they arrive in."""
    n_best, n_query = (10, 5) if smoke else (N_BEST, N_QUERY)
    # 10 distinct /best bodies and 6 distinct /query bodies.
    best_set = [
        {"machine": machine, "nodes": nodes, "ppn": ppn, "elements": 512}
        for machine in ("hazel_hen", "vulcan")
        for nodes, ppn in ((2, 24), (4, 12), (8, 6), (16, 24), (6, 12))
    ][:n_best // 2]
    query_set = [
        {"machine": "hazel_hen", "counts": [24] * nodes, "nbytes": nbytes,
         "variant": "hybrid", "engine": "model", "algo": "shared_window"}
        for nodes in (2, 6)
        for nbytes in (8, 4096, 65536)
    ][:n_query // 2]
    mix = [("/best", best_set[i % len(best_set)]) for i in range(n_best)] \
        + [("/query", query_set[i % len(query_set)]) for i in range(n_query)]
    rng.shuffle(mix)
    return mix


def _strip_best(doc: dict) -> dict:
    """A ``/best`` answer without where each candidate came from."""
    out = dict(doc)
    out["candidates"] = [
        {k: v for k, v in row.items() if k != "source"}
        for row in doc["candidates"]
    ]
    return out


def _strip_query(doc: dict) -> dict:
    return {"name": doc["name"], "key": doc["key"],
            "latency_us": doc["result"]["latency_us"]}


class SpanCache(sweeplib.ResultCache):
    """A ``ResultCache`` whose lookups and stores are recorded as spans
    (a subclass handed to the program, not a patch of it)."""

    def __init__(self, root: str, rec):
        super().__init__(root)
        self._rec = rec

    def get(self, key):
        return self._rec.call("ResultCache.get", super().get, key)

    def put(self, key, doc):
        return self._rec.call("ResultCache.put", super().put, key, doc)


def build_model_service(rng: random.Random, smoke: bool,
                        references: bool) -> Workload:
    ranks = CACHED_RANKS if smoke else MAP_RANKS
    sizes = MAP_SIZES[:3] if smoke else MAP_SIZES
    spec = dict(SPEC, nodes=2, ppn=[3, 6]) if smoke else SPEC
    mix = _request_mix(rng, smoke)
    direct = service.SweepService(None)
    answers = [
        _strip_best(direct.best(body)) if path == "/best"
        else _strip_query(direct.query(body))
        for path, body in (mix if references else ())
    ]
    # Items keep this order under every seed: ``map-cached`` and
    # ``http`` both create files, and whichever of the two comes first
    # in a pass finds a quieter ext4 journal and runs 20-40 % cheaper —
    # permuting them made pass_s spread 8 % across seeds.
    wl = Workload("model_service", [], {
        "requests": len(mix),
        "request_digest": doc_digest(mix),
        "distinct_requests": len({doc_digest(r) for r in mix}),
    }, fixed_order=True)
    state = wl.state

    def prepare():
        os.makedirs(TMP_ROOT, exist_ok=True)
        state["dir"] = tempfile.mkdtemp(prefix="pass-", dir=TMP_ROOT)
        state["map_cache"] = os.path.join(state["dir"], "maps")
        state["server"], state["thread"] = start_server(
            os.path.join(state["dir"], "service"))

    def cleanup():
        if "server" in state:
            stop_server(state.pop("server"), state.pop("thread"))
        path = state.pop("dir", None)
        if path is not None:
            shutil.rmtree(path, ignore_errors=True)

    wl.prepare, wl.cleanup = prepare, cleanup

    def map_digest(out):
        return {"maps": doc_digest(out["maps"])}, {}

    def run_nocache(rec):
        return rec.call("model.run_sweep:nocache", modelbench.run_sweep,
                        ranks=ranks, sizes=sizes)

    def run_cached(tag):
        def run(rec):
            cache = SpanCache(state["map_cache"], rec)
            out = rec.call(f"model.run_sweep:{tag}", modelbench.run_sweep,
                           ranks=CACHED_RANKS,
                           sizes=CACHED_SIZES[:len(sizes)], cache=cache)
            return out, cache
        return run

    def cached_digest(raw):
        out, cache = raw
        return ({"maps": doc_digest(out["maps"])},
                {"cache_hits": cache.hits, "cache_misses": cache.misses,
                 "cache_puts": cache.puts})

    def run_spec(rec):
        points = rec.call("sweep.expand_spec", sweeplib.expand_spec, spec)
        return rec.call("sweep.run_sweep", sweeplib.run_sweep, points)

    def spec_digest(report):
        return ({"points": len(report["points"]),
                 "failures": len(report["failures"]),
                 "latencies": doc_digest(
                     {n: r["latency_us"]
                      for n, r in report["points"].items()})}, {})

    def run_http(rec):
        conn = http.client.HTTPConnection(
            "127.0.0.1", state["server"].server_address[1], timeout=30)
        out = []
        try:
            for path, body in mix:
                out.append(rec.call(f"http:{path}", http_post, conn, path,
                                    body))
        finally:
            conn.close()
        return out

    def http_digest(responses):
        ok = all(status == 200 for status, _ in responses)
        docs = [
            _strip_best(doc) if path == "/best" else _strip_query(doc)
            for (path, _), (status, doc) in zip(mix, responses)
            if status == 200
        ]
        svc = state["server"].RequestHandlerClass.service
        return ({"all_200": ok, "equal_direct": docs == answers},
                {"service_errors": svc.errors,
                 "cache_hits": svc.cache.hits,
                 "cache_misses": svc.cache.misses,
                 "cache_puts": svc.cache.puts})

    http_point = Point("http/closed-loop", run_http, http_digest,
                       expect={"all_200": True, "equal_direct": True})
    wl.items = [
        Item("map-nocache", [Point("map/nocache", run_nocache, map_digest)]),
        # One item, in this order: warm reads what cold wrote.
        Item("map-cached", [
            Point("map/cold", run_cached("cold"), cached_digest),
            Point("map/warm", run_cached("warm"), cached_digest)]),
        Item("spec-sweep", [Point("sweep/spec-serial", run_spec,
                                  spec_digest)]),
        Item("http", [http_point]),
    ]
    return wl


def start_server(cache_dir: str | None):
    """``service.make_server`` serving on a daemon thread."""
    server = service.make_server(cache_dir)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return server, thread


def stop_server(server, thread) -> None:
    server.shutdown()
    thread.join()
    server.server_close()


def http_post(conn, path: str, body: dict) -> tuple[int, dict]:
    conn.request("POST", path, body=json.dumps(body),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

_BUILDERS = {
    "osu_replay": build_osu_replay,
    "osu_live": build_osu_live,
    "apps_observe": build_apps_observe,
    "model_service": build_model_service,
}

def build(name: str, seed: int, smoke: bool = False,
          golden: dict | None = None, references: bool = True) -> Workload:
    """The workload *name* for *seed*: seeded inputs, expectations
    attached, items in the seed's order.  With ``golden=None`` points
    not covered elsewhere are left without an expectation (used by
    ``--regen-golden``); ``references=False`` also skips the reference
    computations (``setup_s`` times the build without them)."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; known: "
                         f"{', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    wl = _BUILDERS[name](rng, smoke, references)
    if not wl.fixed_order:
        rng.shuffle(wl.items)
    wl.inputs["seed"] = seed
    wl.inputs["order"] = [item.name for item in wl.items]
    bench = bench_expectations()
    section = "smoke" if smoke else "full"
    pinned = (golden or {}).get(section, {}).get(name, {})
    for item in wl.items:
        for point in item.points:
            if point.expect is not None:
                continue
            if name == "osu_replay" and point.name in bench:
                point.expect = bench[point.name]
            elif name == "osu_live" and point.name in bench:
                point.expect = {"latency_us":
                                bench[point.name]["latency_us"]}
            elif (point.pin or point.name) in pinned:
                point.expect = pinned[point.pin or point.name]
            elif golden is not None:
                raise LookupError(
                    f"{name}: no expected value for point "
                    f"{point.name!r} in BENCH_fig*.json or golden.json "
                    f"[{section}]; run run.py --regen-golden")
    return wl


def clear_replay_cache() -> None:
    """Every pass starts with the process-global replay cache empty —
    what a fresh ``repro-perf``/``repro-sweep`` process pays."""
    replaylib.clear_cache()


def with_corrupted_expectation(wl: Workload) -> Workload:
    """*wl* with one expected value damaged (for the harness's own
    test: a wrong golden value must fail the run)."""
    point = wl.items[0].points[0]
    key = sorted(point.expect)[0]
    point.expect = dict(point.expect, **{key: "corrupted"})
    return wl


__all__ = ["WORKLOADS", "Point", "Item", "Workload", "build",
           "load_golden", "bench_expectations", "span_digest",
           "doc_digest", "osu_options", "app_point", "http_post",
           "start_server", "stop_server",
           "data_summa_shape",
           "clear_replay_cache", "with_corrupted_expectation",
           "TMP_ROOT", "ROOT", "HERE"]
