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
    Cache statistics (entries, bytes, session hits/misses/corrupt and
    the lookups answered without opening a file), the in-process
    collective replay-cache counters (``replay``), and request and
    accepted-connection counters, in the
    :func:`repro.metrics.sweep_metrics` counter style.
``POST /query``
    Body: a :class:`~repro.bench.sweep.SweepPoint` JSON document (any
    subset of its fields).  Answers the point from cache or by running
    its engine; the response carries the record, its cache key, and
    whether it was served from cache.
``POST /best``
    Body: a configuration (machine, nodes/ppn or counts, nbytes or
    elements, optional socket_mode/transport).  Prices every
    registered pure-MPI and hybrid allgather algorithm applicable to
    the configuration's shape with the analytic model (each candidate a
    cacheable model point) and returns the ranked candidates plus the
    recommendation.

Connections are HTTP/1.1 persistent: a client that keeps its socket
(``http.client``, ``curl`` with several URLs) is served by one handler
thread until it closes, asks for ``Connection: close``, or stays idle
for :data:`IDLE_TIMEOUT_S`.  A POST must carry a ``Content-Length`` of
at most :data:`MAX_BODY_BYTES`.
"""

from __future__ import annotations

import json
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.analysis.model import MODEL_VERSION
from repro.bench import sweep as sweeplib
from repro.simulator import ENGINE_VERSION

__all__ = ["SweepService", "make_server", "serve"]

#: Largest request body the service reads; a longer one is refused
#: (413) unread.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may stay silent — between requests or in the
#: middle of one — before its handler thread closes it.
IDLE_TIMEOUT_S = 30.0


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
        #: Connections accepted by the HTTP front end; fewer than
        #: ``requests`` means clients are reusing them.
        self.connections = 0
        self._lock = threading.Lock()  # handler threads share the counters

    def count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

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
            "connections": self.connections,
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

        Prices every registered algorithm applicable to the
        configuration's shape with the analytic model; each candidate
        evaluation is itself a cacheable model point, so repeated
        questions are pure cache reads.
        """
        from repro.bench.model import candidates

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
        pure_op = "allgatherv" if probe.is_irregular else "allgather"
        ranked = []
        for variant, op in (("pure", pure_op), ("hybrid", "hy_allgather")):
            for algo in candidates(model, op, nbytes):
                point = sweeplib.SweepPoint(
                    machine=machine, counts=counts, nbytes=nbytes,
                    variant=variant, engine="model", op=op, algo=algo,
                    transport=probe.transport,
                    socket_mode=probe.socket_mode,
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
        self.count("requests")
        try:
            if method == "GET" and path == "/health":
                return 200, self.health()
            if method == "GET" and path == "/stats":
                return 200, self.stats()
            if method == "POST" and path == "/query":
                return 200, self.query(body or {})
            if method == "POST" and path == "/best":
                return 200, self.best(body or {})
            status, error = 404, f"no such endpoint: {method} {path}"
        except _BadRequest as exc:
            status, error = 400, str(exc)
        except Exception as exc:  # noqa: BLE001 — report, don't die
            status, error = 500, f"{type(exc).__name__}: {exc}"
        self.count("errors")
        return status, {"error": error}


class _Handler(BaseHTTPRequestHandler):
    service: SweepService  # set by make_server on the subclass

    protocol_version = "HTTP/1.1"  # connections persist between requests
    timeout = IDLE_TIMEOUT_S  # StreamRequestHandler: the socket timeout

    def setup(self):
        super().setup()
        self.service.count("connections")

    def _respond(self, status: int, doc: dict, close: bool = False) -> None:
        """Send *doc* in one write: on a persistent connection, headers
        and body in separate segments stall ~40 ms a request on Nagle's
        algorithm meeting the client's delayed ACK."""
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        if close:
            self.close_connection = True
        head = (
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            + ("Connection: close\r\n" if self.close_connection else "")
            + "\r\n"
        )
        self.log_request(status, len(payload))
        self.wfile.write(head.encode("latin-1") + payload)

    def do_GET(self):  # noqa: N802 — BaseHTTPRequestHandler API
        status, doc = self.service.handle("GET", self.path, None)
        self._respond(status, doc)

    def _refuse(self, status: int, error: str, close: bool = False) -> None:
        """Answer a request that never reached :meth:`SweepService.handle`."""
        self.service.count("requests")
        self.service.count("errors")
        self._respond(status, {"error": error}, close)

    def do_POST(self):  # noqa: N802
        # Without a trustworthy length the body's end — and so the next
        # request's start — is unknown: answer and close.
        declared = (self.headers.get("Content-Length") or "").strip()
        if not (declared.isascii() and declared.isdigit()):
            self._refuse(400, "POST needs a Content-Length header holding "
                              "a non-negative integer", close=True)
            return
        # Judged by digit count before int(), which itself refuses
        # very long strings.
        digits = declared.lstrip("0") or "0"
        if (len(digits) > len(str(MAX_BODY_BYTES))
                or (length := int(digits)) > MAX_BODY_BYTES):
            self._refuse(413, f"body of {digits} bytes exceeds the "
                              f"{MAX_BODY_BYTES}-byte cap", close=True)
            return
        raw = self.rfile.read(length)
        if len(raw) < length:  # the client hung up mid-body
            self.close_connection = True
            return
        try:
            body = json.loads(raw) if raw else {}
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8
            self._refuse(400, f"invalid JSON body: {exc}")
            return
        if not isinstance(body, dict):
            self._refuse(400, "body must be a JSON object")
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
