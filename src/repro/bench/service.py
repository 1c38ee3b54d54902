"""JSON-over-HTTP front end of the sweep cache (``repro-sweep serve``).

A small stdlib-only service that answers "what is the latency of this
configuration?" and "which algorithm should this configuration use?"
from the content-addressed result cache — or, on a miss, by running the
point (simulator or analytic model) and caching the answer for the next
client.  Binds to localhost by default; there is no authentication, so
keep it there.

Endpoints (all responses are JSON; see docs/sweeps.md for curl
examples):

``GET /health``
    Liveness plus the engine/model versions the cache keys embed.
``GET /stats``
    Cache statistics (entries, bytes, session hits/misses), the
    in-process collective replay-cache counters (``replay``), and
    request counters, in the :func:`repro.metrics.sweep_metrics`
    counter style.
``POST /query``
    Body: a :class:`~repro.bench.sweep.SweepPoint` JSON document (any
    subset of its fields).  Answers the point from cache or by running
    its engine; the response carries the record, its cache key, and
    whether it was served from cache.
``POST /best``
    Body: a configuration (machine, nodes/ppn or counts, nbytes or
    elements, optional socket_mode/transport).  Prices every
    structurally-applicable pure-MPI and hybrid algorithm with the
    analytic model (each candidate a cacheable model point) and returns
    the ranked candidates plus the recommendation.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.analysis.model import MODEL_VERSION
from repro.bench import sweep as sweeplib
from repro.simulator import ENGINE_VERSION

__all__ = ["SweepService", "make_server", "serve"]


class _BadRequest(ValueError):
    """Client error; its message becomes the JSON ``error`` field."""


def _config_counts(doc: dict) -> tuple:
    if "counts" in doc:
        return tuple(int(c) for c in doc["counts"])
    return (int(doc.get("ppn", 24)),) * int(doc.get("nodes", 1))


def _config_nbytes(doc: dict) -> int:
    if "nbytes" in doc:
        return int(doc["nbytes"])
    return int(doc.get("elements", 1)) * 8


class SweepService:
    """The request logic, HTTP-free so tests can drive it directly."""

    def __init__(self, cache: sweeplib.ResultCache | None = None):
        self.cache = cache
        self.requests = 0
        self.errors = 0

    # -- endpoints -------------------------------------------------------
    def health(self) -> dict:
        return {
            "status": "ok",
            "engine_version": ENGINE_VERSION,
            "model_version": MODEL_VERSION,
            "cache": self.cache.root if self.cache else None,
        }

    def stats(self) -> dict:
        from repro.mpi.collectives import replay

        return {
            "cache": self.cache.stats() if self.cache else None,
            "replay": replay.cache_stats(),
            "requests": self.requests,
            "errors": self.errors,
        }

    def query(self, doc: dict) -> dict:
        """Answer one point (cache first, engine on a miss)."""
        try:
            point = sweeplib.SweepPoint.from_dict(doc)
        except (TypeError, ValueError) as exc:
            raise _BadRequest(str(exc)) from exc
        record, source = sweeplib.evaluate(point, self.cache)
        return {
            "name": sweeplib.point_name(point),
            "key": sweeplib.cache_key(point),
            "source": source,
            "result": record,
        }

    def best(self, doc: dict) -> dict:
        """Which algorithm (and variant) should this config use?

        Prices every structurally-applicable candidate with the
        analytic model; each candidate evaluation is itself a cacheable
        model point, so repeated questions are pure cache reads.
        """
        from repro.bench.model import hybrid_candidates, pure_candidates

        unknown = set(doc) - {"machine", "counts", "nodes", "ppn",
                              "nbytes", "elements", "socket_mode",
                              "transport"}
        if unknown:
            raise _BadRequest(
                f"unknown field(s): {', '.join(sorted(unknown))}"
            )
        machine = doc.get("machine", "hazel_hen")
        try:
            counts = _config_counts(doc)
            nbytes = _config_nbytes(doc)
            probe = sweeplib.SweepPoint(
                machine=machine, counts=counts, nbytes=nbytes,
                socket_mode=doc.get("socket_mode", "compact"),
                transport=doc.get("transport"),
            )
        except (TypeError, ValueError) as exc:
            raise _BadRequest(str(exc)) from exc
        model = sweeplib.model_for(probe)
        irregular = probe.is_irregular
        pure_op = "allgatherv" if irregular else "allgather"
        candidates = [
            ("pure", pure_op, algo)
            for algo in pure_candidates(model, irregular)
        ] + [
            ("hybrid", "hy_allgather", algo)
            for algo in hybrid_candidates(model)
        ]
        ranked = []
        for variant, op, algo in candidates:
            point = sweeplib.SweepPoint(
                machine=machine, counts=counts, nbytes=nbytes,
                variant=variant, engine="model", op=op, algo=algo,
                transport=probe.transport, socket_mode=probe.socket_mode,
            )
            record, source = sweeplib.evaluate(point, self.cache)
            ranked.append({
                "variant": variant, "op": op, "algo": algo,
                "latency_us": record["latency_us"], "source": source,
            })
        ranked.sort(key=lambda row: row["latency_us"])
        best = ranked[0]
        return {
            "machine": machine,
            "ranks": sum(counts),
            "nodes": len(counts),
            "nbytes": nbytes,
            "recommendation": {
                "variant": best["variant"], "op": best["op"],
                "algo": best["algo"], "latency_us": best["latency_us"],
            },
            "candidates": ranked,
        }

    # -- dispatch --------------------------------------------------------
    def handle(self, method: str, path: str, body: dict | None) -> \
            tuple[int, dict]:
        """(status, response document) for one request."""
        self.requests += 1
        try:
            if method == "GET" and path == "/health":
                return 200, self.health()
            if method == "GET" and path == "/stats":
                return 200, self.stats()
            if method == "POST" and path == "/query":
                return 200, self.query(body or {})
            if method == "POST" and path == "/best":
                return 200, self.best(body or {})
            self.errors += 1
            return 404, {"error": f"no such endpoint: {method} {path}"}
        except _BadRequest as exc:
            self.errors += 1
            return 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — report, don't die
            self.errors += 1
            return 500, {"error": f"{type(exc).__name__}: {exc}"}


class _Handler(BaseHTTPRequestHandler):
    service: SweepService  # set by make_server on the subclass

    def _respond(self, status: int, doc: dict) -> None:
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):  # noqa: N802 — BaseHTTPRequestHandler API
        status, doc = self.service.handle("GET", self.path, None)
        self._respond(status, doc)

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            self._respond(400, {"error": f"invalid JSON body: {exc}"})
            return
        if not isinstance(body, dict):
            self._respond(400, {"error": "body must be a JSON object"})
            return
        status, doc = self.service.handle("POST", self.path, body)
        self._respond(status, doc)

    def log_message(self, fmt, *args):  # noqa: A003 — quiet by default
        pass


def make_server(cache_dir: str | None = None, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server; ``port=0`` picks a
    free port (``server.server_address[1]`` has the real one).  The
    returned server's handler class carries the :class:`SweepService`
    as ``service``."""
    cache = sweeplib.ResultCache(cache_dir) if cache_dir else None
    service = SweepService(cache)
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    return server


def serve(cache_dir: str | None = None, host: str = "127.0.0.1",
          port: int = 8351) -> None:
    """Run the service until interrupted (``repro-sweep serve``)."""
    server = make_server(cache_dir, host, port)
    actual_host, actual_port = server.server_address[:2]
    print(f"repro-sweep service on http://{actual_host}:{actual_port} "
          f"(cache: {cache_dir or 'none — every query computes'})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
