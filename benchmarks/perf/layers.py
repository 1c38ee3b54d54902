"""Per-layer microbenchmarks: one number per tier of the program.

Each function calls one layer through its public functions, is timed
like a workload item (calibrated seconds, median of ``repeats`` calls)
and returns plain numbers.  Rates are work per calibrated second.
Where a job's fixed cost would drown the layer, the same job without
the layer's work is measured too and subtracted.

The layer -> end-to-end map (which ``pass_s`` a number should move) is
in README.md; nothing here is compared against a bound.
"""

from __future__ import annotations

import http.client
import os
import shutil
import statistics
import tempfile
import time

from repro.analysis.critical_path import critical_path_report, overlap_report
from repro.analysis.model import CostModel
from repro.apps.summa import SummaConfig, summa_program
from repro.bench import model as modelbench
from repro.bench import osu, service
from repro.bench import sweep as sweeplib
from repro.core import HybridContext
from repro.machine.model import Machine
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.metrics import collect_metrics, to_prometheus
from repro.mpi import run_program
from repro.mpi.collectives import replay as replaylib
from repro.mpi.collectives.registry import CollRequest, policy_of
from repro.mpi.collectives.tuning import tuning_for_machine
from repro.mpi.constants import ANY_SOURCE
from repro.mpi.datatypes import Bytes
from repro.simulator import BandwidthChannel, Engine, Resource
from repro.trace import Tracer, to_chrome_trace

import workloads
from tracing import Recorder

__all__ = ["run_layers", "LIVE_OPS"]

OFF = Recorder(enabled=False)

LIVE_OPS = ("allgather", "allgatherv", "hy_allgather", "bcast", "hy_bcast",
            "allreduce", "hy_allreduce", "barrier", "alltoall",
            "reduce_scatter")


# -- simulator.engine / simulator.resources ---------------------------------

def _engine_storm(nprocs: int, steps: int, timed: bool) -> int:
    eng = Engine()

    def proc(i):
        for s in range(steps):
            yield eng.timeout(1e-6 * (1 + (i * 7 + s) % 13) if timed else 0)

    for i in range(nprocs):
        eng.spawn(proc(i))
    eng.run()
    return eng.event_count


def _spawn_storm(n: int) -> int:
    eng = Engine()

    def proc():
        return None
        yield

    for _ in range(n):
        eng.spawn(proc())
    eng.run()
    return n


def _channel_storm(nprocs: int, steps: int) -> int:
    eng = Engine()
    channel = BandwidthChannel(eng, 1e9, streams=4)

    def proc():
        for _ in range(steps):
            yield channel.transfer(4096)

    for _ in range(nprocs):
        eng.spawn(proc())
    eng.run()
    return nprocs * steps


def _resource_storm(nprocs: int, steps: int) -> int:
    eng = Engine()
    res = Resource(eng, 4)

    def proc():
        for _ in range(steps):
            yield res.acquire()
            yield eng.timeout(1e-6)
            res.release()

    for _ in range(nprocs):
        eng.spawn(proc())
    eng.run()
    return nprocs * steps


# -- rank programs -----------------------------------------------------------

def _empty(mpi):
    return None
    yield


def _pingpong(mpi, n, nbytes):
    comm, payload = mpi.world, Bytes(nbytes)
    for _ in range(n):
        if comm.rank == 0:
            yield from comm.send(payload, 1)
            yield from comm.recv(source=1)
        else:
            yield from comm.recv(source=0)
            yield from comm.send(payload, 0)


def _fanin(mpi, n, nbytes):
    comm, payload = mpi.world, Bytes(nbytes)
    if comm.rank == 0:
        for _ in range(n * (comm.size - 1)):
            yield from comm.recv(source=ANY_SOURCE)
    else:
        for _ in range(n):
            yield from comm.send(payload, 0)


def _splits(mpi, n):
    comm = mpi.world
    for _ in range(n):
        yield from comm.split(color=comm.rank % 4, key=comm.rank)


def _aligns(mpi, n):
    for _ in range(n):
        yield from mpi.world.align()


def _hybrid_setup(mpi, nbytes, op=None):
    """HybridContext + buffers, then optionally one hybrid collective."""
    ctx = yield from HybridContext.create(mpi.world)
    agbuf = yield from ctx.allgather_buffer(nbytes)
    bcbuf = yield from ctx.bcast_buffer(nbytes)
    if op == "hy_allgather":
        yield from ctx.allgather(agbuf)
    elif op == "hy_bcast":
        yield from ctx.bcast(bcbuf, root=0)
    elif op == "hy_allreduce":
        yield from ctx.allreduce(Bytes(nbytes), nbytes)


def _flat_collective(mpi, op, nbytes):
    comm, payload = mpi.world, Bytes(nbytes)
    if op == "barrier":
        yield from comm.barrier()
    elif op == "alltoall":
        yield from comm.alltoall([payload] * comm.size)
    elif op == "bcast":
        yield from comm.bcast(payload, root=0)
    else:
        yield from getattr(comm, op)(payload)


def _selections(mpi, n):
    """Host seconds rank 0 spends on *n* algorithm selections."""
    comm = mpi.world
    if comm.rank != 0:
        return 0.0
    policy = policy_of(comm)
    requests = [CollRequest(op, 4096, 4096 * (comm.size if "gather" in op
                                              else 1), root)
                for op, root in (("allgather", None), ("bcast", 0),
                                 ("allreduce", None), ("barrier", None))]
    t0 = time.perf_counter()
    for i in range(n):
        policy.select(comm, requests[i & 3])
    return time.perf_counter() - t0
    yield


def _allgathers(mpi, n, nbytes, immediate):
    comm, payload = mpi.world, Bytes(nbytes)
    for _ in range(n):
        if immediate:
            request = comm.iallgather(payload)
            yield from request.wait()
        else:
            yield from comm.allgather(payload)


def _job(spec, placement, program, **kwargs):
    options = {k: kwargs.pop(k) for k in ("trace", "replay", "payload")
               if k in kwargs}
    options.setdefault("payload", "cost-only")
    return run_program(spec, None, program, placement=placement,
                       program_kwargs=kwargs, **options)


# -- the suite ---------------------------------------------------------------

def run_layers(clock, smoke: bool = False) -> tuple[dict, dict]:
    """Run every microbenchmark; returns ``(metrics, info)`` where
    *metrics* maps the static per-layer names to values and *info*
    carries the bases of the ratios."""
    reps = 1 if smoke else 5
    heavy = 1 if smoke else 2  # for the calls that take a second each
    k = 0.1 if smoke else 1.0  # size factor

    def n(count: int) -> int:
        return max(int(count * k), 2)

    def med(fn, repeats=reps):
        return clock.median(fn, repeats)

    m: dict[str, float] = {}
    info: dict[str, float] = {}

    # simulator.engine / simulator.resources
    events = _engine_storm(n(200), 40, False)
    m["engine.same_time_events_per_s"] = events / med(
        lambda: _engine_storm(n(200), 40, False))
    events = _engine_storm(n(200), 40, True)
    m["engine.timed_events_per_s"] = events / med(
        lambda: _engine_storm(n(200), 40, True))
    m["engine.spawn_us"] = med(lambda: _spawn_storm(n(4000))) / n(4000) * 1e6
    m["resources.channel_transfers_per_s"] = n(64) * 50 / med(
        lambda: _channel_storm(n(64), 50))
    m["resources.acquire_release_per_s"] = n(64) * 50 / med(
        lambda: _resource_storm(n(64), 50))

    # machine
    big = hazel_hen(n(64))
    big_place = Placement.block(n(64), 24)

    def build():
        machine = Machine(Engine(), big)
        machine.bind_placement(big_place)
        return machine

    m["machine.build_ms"] = med(build) * 1e3
    m["machine.fingerprint_us"] = med(
        lambda: [big.fingerprint() for _ in range(n(100))]) / n(100) * 1e6
    network = build().network
    routes = [(a, (a * 7 + 3) % big.num_nodes)
              for a in range(big.num_nodes)] * n(40)
    m["machine.route_us"] = med(
        lambda: [network.latency(a, b) for a, b in routes]
    ) / len(routes) * 1e6

    # mpi.p2p
    one, two = hazel_hen(1), hazel_hen(2)
    for name, spec, place, program, nbytes, count in (
        ("eager_intra", one, Placement.block(1, 2), _pingpong, 64, n(800)),
        ("eager_inter", two, Placement.block(2, 1), _pingpong, 64, n(800)),
        ("rendezvous", two, Placement.block(2, 1), _pingpong, 65536, n(500)),
        ("fanin", one, Placement.block(1, 24), _fanin, 64, n(60)),
    ):
        sent = _job(spec, place, program, n=count, nbytes=nbytes).sent_messages
        m[f"p2p.{name}_msgs_per_s"] = sent / med(
            lambda: _job(spec, place, program, n=count, nbytes=nbytes))

    # mpi.runtime / mpi.comm / core
    r160 = sweeplib.figure_points("fig10", quick=True)[0][1]
    m["runtime.job_fixed_ms"] = med(
        lambda: _job(r160.spec(), r160.placement(), _empty)) * 1e3
    four = hazel_hen(4)
    p96, p48 = Placement.block(4, 24), Placement.block(4, 12)
    empty96 = med(lambda: _job(four, p96, _empty))
    m["comm.split_ms"] = (med(lambda: _job(four, p96, _splits, n=8))
                          - empty96) / 8 * 1e3
    m["comm.align_us"] = (med(lambda: _job(four, p96, _aligns, n=n(200)))
                          - empty96) / n(200) * 1e6
    m["core.hybrid_context_ms"] = (
        med(lambda: _job(four, p96, _hybrid_setup, nbytes=4096)) - empty96
    ) * 1e3

    # mpi.collectives: one live dispatch at 4x12, 4 KiB
    empty48 = med(lambda: _job(four, p48, _empty))
    hybrid48 = med(lambda: _job(four, p48, _hybrid_setup, nbytes=4096))
    for op in LIVE_OPS:
        if op.startswith("hy_"):
            t = med(lambda: _job(four, p48, _hybrid_setup, nbytes=4096,
                                 op=op)) - hybrid48
        else:
            t = med(lambda: _job(four, p48, _flat_collective, op=op,
                                 nbytes=4096)) - empty48
        m[f"collectives.live_ms.{op}"] = t * 1e3

    def select_s():
        raw, cal, result = clock.time(_job, four, p48, _selections,
                                      n=n(2000))
        return result.returns[0] * cal / raw

    m["collectives.select_us"] = statistics.median(
        select_s() for _ in range(reps)) / n(2000) * 1e6

    # mpi.collectives.replay
    quick1024 = dict(sweeplib.figure_points("fig10", quick=True))

    def osu_run(sp, reps_, replay, cold=False):
        if cold:
            replaylib.clear_cache()
        return osu.osu_allgather_latency(
            sp.spec(), sp.placement(), sp.nbytes, sp.variant, reps=reps_,
            replay=replay, **workloads.osu_options(sp))

    for variant in ("hybrid", "pure"):
        sp = sweeplib.SweepPoint(counts=(12,) * 4, nbytes=4096,
                                 variant=variant)
        before = replaylib.cache_stats()["misses"]
        osu_run(sp, 2, "loop", cold=True)
        misses = replaylib.cache_stats()["misses"] - before
        cold = med(lambda: osu_run(sp, 2, "loop", cold=True))
        warm = med(lambda: osu_run(sp, 2, "loop"))
        m[f"replay.record_ms.{variant}"] = (cold - warm) / misses * 1e3
        extra = n(200)
        m[f"replay.apply_us_per_rank.{variant}"] = (
            med(lambda: osu_run(sp, 10 + extra, "loop"))
            - med(lambda: osu_run(sp, 10, "loop"))
        ) / extra / sum(sp.counts) * 1e6
        # live / replayed on r160/1024el at 10 repetitions, cold cache
        big_sp = sp if smoke else quick1024[f"r160/1024el/{variant}"]
        live = med(lambda: osu_run(big_sp, 10, False), heavy)
        replayed = med(lambda: osu_run(big_sp, 10, "loop", cold=True), heavy)
        m[f"replay.speedup.{variant}"] = live / replayed
        info[f"replay.speedup.{variant}.base_live_s"] = live

    ranks = 160
    prefix = ("6.0", "f" * 64, ranks, "compact", tuple(range(ranks)),
              (0,) * ranks)
    zeros, order = (0,) * ranks, tuple(range(ranks))
    payload = Bytes(8192)

    def keys():
        for _ in range(n(100)):
            sigs = tuple(replaylib.payload_signature(payload)
                         for _ in range(ranks))
            hash(replaylib.replay_key(prefix, "allgather", sigs, zeros,
                                      order))

    m["replay.key_us"] = med(keys) / n(100) * 1e6

    # mpi.nonblocking
    p16 = Placement.block(4, 4)
    count = n(40)
    m["nonblocking.request_overhead_us"] = (
        med(lambda: _job(four, p16, _allgathers, n=count, nbytes=1024,
                         immediate=True))
        - med(lambda: _job(four, p16, _allgathers, n=count, nbytes=1024,
                           immediate=False))
    ) / count / 16 * 1e6

    # apps: the apps_observe item groups, untraced
    apps = workloads.build("apps_observe", 0, smoke=smoke)
    points = {p.name: p for item in apps.items for p in item.points}

    def group(prefix_):
        chosen = [p for name, p in points.items()
                  if name.startswith(prefix_)]
        return med(lambda: [p.run(OFF) for p in chosen], heavy)

    m["apps.summa_s"] = group("summa/b")
    m["apps.bpmf_s"] = group("bpmf/")
    m["apps.stencil_s"] = group("stencil2d/")
    m["apps.overlap_suite_s"] = group("overlap/")
    m["apps.summa_data_s"] = group("summa/data/")
    cores, block = workloads.data_summa_shape(smoke)
    cost_only = workloads.app_point(
        "summa/cost-only", summa_program, cores,
        SummaConfig(block=block, variant="hybrid"))
    m["apps.data_over_cost_only"] = (
        m["apps.summa_data_s"] / med(lambda: cost_only.run(OFF), heavy))

    # trace / metrics / analysis.critical_path
    program = osu.pure_allgather_program
    traced_kwargs = dict(nbytes_per_rank=4096, reps=3, warmup=1)

    def traced(detail, replay=False):
        replaylib.clear_cache()
        return _job(four, p48, program,
                    trace=Tracer(detail=detail) if detail else False,
                    replay=replay, **traced_kwargs)

    untraced = med(lambda: traced(None))
    live = {detail: med(lambda: traced(detail))
            for detail in ("dispatch", "phase", "p2p")}
    for detail, seconds in live.items():
        m[f"trace.overhead.{detail}"] = seconds / untraced
    info["trace.overhead.base_untraced_s"] = untraced
    m["trace.replayed_over_live"] = (
        med(lambda: traced("phase", "loop")) / live["phase"])
    result = traced("p2p")
    m["trace.chrome_export_ms"] = med(
        lambda: to_chrome_trace(result.trace)) * 1e3
    m["critical_path.report_ms"] = med(
        lambda: critical_path_report(result.trace,
                                     total_time=result.elapsed)) * 1e3
    overlapped = run_program(
        four, None, summa_program, placement=p16, payload="cost-only",
        trace="dispatch+compute",
        program_kwargs={"config": SummaConfig(block=64, variant="hybrid",
                                              overlap=True)})
    m["critical_path.overlap_report_ms"] = med(
        lambda: overlap_report(overlapped.trace,
                               total_time=overlapped.elapsed)) * 1e3
    m["metrics.collect_ms"] = med(lambda: collect_metrics(result)) * 1e3
    collected = collect_metrics(result)
    m["metrics.prometheus_ms"] = med(
        lambda: [to_prometheus(collected) for _ in range(20)]) / 20 * 1e3

    # analysis.model
    spec64, counts64 = hazel_hen(64), (24,) * 64
    m["model.predict_cold_us"] = med(
        lambda: [CostModel(spec64, counts64).predict("allgather", "ring",
                                                     4096)
                 for _ in range(n(20))]) / n(20) * 1e6
    model = CostModel(spec64, counts64)
    m["model.predict_memo_us"] = med(
        lambda: [model.predict("allgather", "ring", 4096)
                 for _ in range(n(20000))]) / n(20000) * 1e6
    spec1m, counts1m = modelbench.sweep_config(1_000_000)

    def predict_1m():
        return CostModel(
            spec1m, counts1m, tuning=tuning_for_machine(spec1m.name)
        ).predict("hy_allgather", "shared_window", 4096)

    m["model.predict_1m_us"] = med(predict_1m, heavy) * 1e6
    sizes_ = workloads.MAP_SIZES[:3] if smoke else workloads.MAP_SIZES
    m["model.map_ms"] = med(lambda: modelbench.run_sweep(
        ranks=workloads.MAP_RANKS[:2], sizes=sizes_)) * 1e3
    report = modelbench.run_report(bench_dir=workloads.ROOT)
    if report["missing"]:
        raise RuntimeError(f"BENCH files missing: {report['missing']}")
    m["model.err_pct_median"] = report["median_divergence"] * 100.0
    m["model.err_pct_max"] = report["worst_divergence"] * 100.0

    # bench.sweep
    spec = workloads.SPEC if not smoke else dict(workloads.SPEC, nodes=2,
                                                 ppn=[3, 6])
    points_ = sweeplib.expand_spec(spec)
    m["sweep.expand_us_per_point"] = med(
        lambda: sweeplib.expand_spec(spec)) / len(points_) * 1e6
    some = points_[:n(40)]
    m["sweep.cache_key_us"] = med(
        lambda: [sweeplib.cache_key(p) for p in some]) / len(some) * 1e6
    os.makedirs(workloads.TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="layers-", dir=workloads.TMP_ROOT)
    try:
        keys_ = [sweeplib.cache_key(p) for p in some]
        doc = {"result": sweeplib.run_point(some[0]), "name": "x"}
        cache = sweeplib.ResultCache(os.path.join(tmp, "kv"))
        m["sweep.cache_put_us"] = med(
            lambda: [cache.put(key, doc) for key in keys_]
        ) / len(keys_) * 1e6
        m["sweep.cache_get_us"] = med(
            lambda: [cache.get(key) for key in keys_]) / len(keys_) * 1e6
        maps = sweeplib.ResultCache(os.path.join(tmp, "maps"))
        cached = dict(ranks=workloads.CACHED_RANKS,
                      sizes=workloads.CACHED_SIZES[:len(sizes_)])
        for _ in ("cold", "warm"):
            modelbench.run_sweep(cache=maps, **cached)
        m["sweep.cache_hit_ratio"] = maps.hits / (maps.hits + maps.misses)
        base = med(lambda: modelbench.run_sweep(**cached))
        m["sweep.warm_over_nocache"] = med(
            lambda: modelbench.run_sweep(cache=maps, **cached)) / base
        info["sweep.warm_over_nocache.base_nocache_s"] = base
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    m["sweep.run_sweep_overhead_ms"] = (
        med(lambda: sweeplib.run_sweep(points_))
        - med(lambda: [sweeplib.run_point(p) for p in points_])) * 1e3

    # bench.service (no cache: the difference is HTTP plumbing alone)
    bodies = [{"machine": "hazel_hen", "nodes": 2 + i % 7, "ppn": 24,
               "elements": 1 << (i % 12)} for i in range(n(1100))]
    queries = [{"machine": "hazel_hen", "counts": [24] * (2 + i % 4),
                "nbytes": 8 << (i % 8), "engine": "model",
                "algo": "shared_window"} for i in range(n(200))]
    direct = service.SweepService(None)
    some_bodies = bodies[:n(100)]
    best_direct = med(
        lambda: [direct.best(b) for b in some_bodies]) / len(some_bodies)
    m["service.best_direct_us"] = best_direct * 1e6
    server, thread = workloads.start_server(None)
    try:
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=30)

        def batch(path, docs):
            times = []
            for doc in docs:
                t0 = time.perf_counter()
                status, _ = workloads.http_post(conn, path, doc)
                times.append(time.perf_counter() - t0)
                if status != 200:
                    raise RuntimeError(f"{path} answered {status}")
            return times

        raw, cal, times = clock.time(batch, "/best", bodies)
        scale = cal / raw * 1e3
        times.sort()
        m["service.http_best_p50_ms"] = statistics.median(times) * scale
        # >= 10 samples lie beyond the reported percentile.
        m["service.http_best_p99_ms"] = times[
            -max(len(times) // 100, 1) - 1] * scale
        raw, cal, times = clock.time(batch, "/query", queries)
        m["service.http_query_p50_ms"] = (
            statistics.median(times) * cal / raw * 1e3)
        m["service.http_overhead_us"] = (
            m["service.http_best_p50_ms"] * 1e3 - best_direct * 1e6)
        m["service.errors"] = server.RequestHandlerClass.service.errors
        conn.close()
    finally:
        workloads.stop_server(server, thread)
    return m, info
