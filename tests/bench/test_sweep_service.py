"""JSON-over-HTTP sweep service (repro.bench.service).

Exercises the request logic directly (SweepService.handle) and once
through a real ThreadingHTTPServer on an ephemeral localhost port.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.bench.service import SweepService, make_server
from repro.bench.sweep import ResultCache


@pytest.fixture()
def service(tmp_path):
    return SweepService(ResultCache(str(tmp_path / "cache")))


def test_health(service):
    status, doc = service.handle("GET", "/health", None)
    assert status == 200
    assert doc["status"] == "ok"
    assert doc["engine_version"]
    assert doc["model_version"]


def test_query_miss_then_hit(service):
    body = {"machine": "testing", "counts": [2, 2], "nbytes": 64}
    status, first = service.handle("POST", "/query", body)
    assert status == 200
    assert first["source"] == "computed"
    assert first["result"]["latency_us"] > 0

    status, second = service.handle("POST", "/query", body)
    assert status == 200
    assert second["source"] == "cache"
    assert second["result"] == first["result"]
    assert second["key"] == first["key"]


def test_query_rejects_bad_point(service):
    status, doc = service.handle("POST", "/query",
                                 {"machine": "no_such_machine"})
    assert status == 400
    assert "no_such_machine" in doc["error"]

    status, doc = service.handle("POST", "/query", {"bogus_field": 1})
    assert status == 400
    assert "bogus_field" in doc["error"]

    # The scheduler has no mode switch; the old field is unknown too.
    status, doc = service.handle("POST", "/query", {"fast_path": True})
    assert status == 400
    assert "fast_path" in doc["error"]


def test_best_recommends_and_caches(service):
    body = {"machine": "hazel_hen", "nodes": 2, "ppn": 24,
            "elements": 1024}
    status, doc = service.handle("POST", "/best", body)
    assert status == 200
    rec = doc["recommendation"]
    assert rec["algo"]
    assert rec["variant"] in ("hybrid", "pure")
    # Ranked ascending by model latency; recommendation is the head.
    lats = [c["latency_us"] for c in doc["candidates"]]
    assert lats == sorted(lats)
    assert rec["latency_us"] == lats[0]
    variants = {c["variant"] for c in doc["candidates"]}
    assert variants == {"hybrid", "pure"}

    # Asking again answers every candidate from cache.
    _status, again = service.handle("POST", "/best", body)
    assert all(c["source"] == "cache" for c in again["candidates"])
    assert again["recommendation"] == rec


def test_best_irregular_uses_allgatherv(service):
    status, doc = service.handle("POST", "/best", {
        "machine": "hazel_hen", "counts": [24, 24, 16], "elements": 512,
    })
    assert status == 200
    assert {c["op"] for c in doc["candidates"]} == \
        {"allgatherv", "hy_allgather"}


def test_best_rejects_unknown_fields(service):
    status, doc = service.handle("POST", "/best", {"flavor": "spicy"})
    assert status == 400
    assert "flavor" in doc["error"]


@pytest.mark.parametrize("path", ["/best", "/query"])
@pytest.mark.parametrize("field,value,allowed", [
    ("socket_mode", "weird", "compact, scatter, balanced"),
    ("transport", "bogus", "cma_single_copy, pip_direct, shm_two_copy"),
])
def test_unknown_socket_mode_and_transport_are_400(service, path, field,
                                                   value, allowed):
    """Neither a plausible latency for a mapping that does not exist
    (``socket_mode``) nor a 500 (``transport``): a 400 naming the
    allowed values."""
    status, doc = service.handle(
        "POST", path, {"counts": [24, 24, 24], field: value})
    assert status == 400
    assert value in doc["error"] and allowed in doc["error"]


def test_unknown_endpoint_404(service):
    status, doc = service.handle("GET", "/nope", None)
    assert status == 404
    assert "no such endpoint" in doc["error"]


def test_stats_counts_requests(service):
    service.handle("GET", "/health", None)
    service.handle("GET", "/nope", None)
    status, doc = service.handle("GET", "/stats", None)
    assert status == 200
    assert doc["requests"] == 3
    assert doc["errors"] == 1
    assert doc["cache"]["entries"] == 0


def test_http_round_trip(tmp_path):
    server = make_server(cache_dir=str(tmp_path / "cache"),
                         host="127.0.0.1", port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{port}"
    try:
        with urllib.request.urlopen(f"{base}/health", timeout=10) as resp:
            assert resp.status == 200
            assert json.load(resp)["status"] == "ok"

        body = json.dumps({"machine": "testing", "counts": [2, 2],
                           "nbytes": 64}).encode()
        req = urllib.request.Request(
            f"{base}/query", data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            first = json.load(resp)
        assert first["source"] == "computed"
        with urllib.request.urlopen(
                urllib.request.Request(f"{base}/query", data=body),
                timeout=30) as resp:
            second = json.load(resp)
        assert second["source"] == "cache"
        assert second["result"] == first["result"]

        # Malformed JSON → 400, not a dead connection.
        bad = urllib.request.Request(f"{base}/query", data=b"{oops")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(bad, timeout=10)
        with err.value:  # the error is the response: close its socket
            assert err.value.code == 400

        with urllib.request.urlopen(f"{base}/stats", timeout=10) as resp:
            stats = json.load(resp)
        assert stats["cache"]["entries"] == 1
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


# ---------------------------------------------------------------------------
# Persistent connections, one write per response, request framing
# ---------------------------------------------------------------------------

import http.client  # noqa: E402
import socket  # noqa: E402

from repro.bench import service as servicelib  # noqa: E402


@pytest.fixture()
def live(tmp_path):
    """A served instance; ``live.service`` is its SweepService."""
    server = make_server(cache_dir=str(tmp_path / "cache"))
    server.service = server.RequestHandlerClass.service
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _count_writes(server, monkeypatch) -> list[bytes]:
    """Every ``wfile.write`` a handler of *server* makes, in order."""
    writes: list[bytes] = []
    handler = server.RequestHandlerClass
    plain_setup = handler.setup

    class Recording:
        def __init__(self, inner):
            self._inner = inner

        def write(self, data):
            writes.append(bytes(data))
            return self._inner.write(data)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    def setup(self):
        plain_setup(self)
        self.wfile = Recording(self.wfile)

    monkeypatch.setattr(handler, "setup", setup)
    return writes


def _request(conn, method, path, body=None):
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def test_one_connection_serves_many_requests_one_write_each(live,
                                                            monkeypatch):
    writes = _count_writes(live, monkeypatch)
    body = json.dumps({"machine": "hazel_hen", "nodes": 2, "ppn": 24,
                       "elements": 512})
    conn = http.client.HTTPConnection(*live.server_address[:2], timeout=30)
    try:
        statuses = [_request(conn, "POST", "/best", body)[0]
                    for _ in range(5)]
        # A client error in the middle does not end the connection.
        status, doc = _request(conn, "POST", "/query", "{oops")
        assert status == 400 and "invalid JSON" in doc["error"]
        status, doc = _request(conn, "POST", "/query", b"\xff\xfe")
        assert status == 400 and "invalid JSON" in doc["error"]
        status, doc = _request(conn, "POST", "/query", "[1, 2]")
        assert status == 400 and "JSON object" in doc["error"]
        status, doc = _request(conn, "GET", "/nope")
        assert status == 404
        statuses += [_request(conn, "POST", "/best", body)[0]
                     for _ in range(5)]
        assert statuses == [200] * 10
        status, stats = _request(conn, "GET", "/stats")
    finally:
        conn.close()
    assert status == 200
    assert stats["connections"] == 1
    assert stats["requests"] == 15
    assert stats["errors"] == 4
    # The first /best computed its candidates, the other nine read them
    # — and only the first of those opened the files.
    cache = stats["cache"]
    assert cache["puts"] == cache["misses"] > 0
    assert cache["hits"] == 9 * cache["puts"]
    assert cache["memo_hits"] == 8 * cache["puts"]
    assert cache["corrupt"] == 0
    assert len(writes) == 15
    assert all(w.startswith(b"HTTP/1.1 ") and b"\r\n\r\n" in w
               for w in writes)


def test_connection_close_clients_get_a_connection_each(live, monkeypatch):
    """``urllib`` sends ``Connection: close``: answered as before, told
    so, one accepted connection per request."""
    writes = _count_writes(live, monkeypatch)
    base = "http://%s:%d" % live.server_address[:2]
    for _ in range(3):
        with urllib.request.urlopen(f"{base}/health", timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Connection"] == "close"
            assert json.load(resp)["status"] == "ok"
    assert live.service.connections == 3
    assert len(writes) == 3


def _raw_exchange(server, data: bytes, timeout: float = 10.0) -> bytes:
    """Send *data*, then read until the server closes the connection
    (a server that keeps it open fails the test by timing out)."""
    with socket.create_connection(server.server_address[:2],
                                  timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _parse(raw: bytes) -> tuple[int, dict, dict]:
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, json.loads(payload)


@pytest.mark.parametrize("header,status", [
    (b"", 400),                                   # missing
    (b"Content-Length: twelve\r\n", 400),
    (b"Content-Length: 1.5\r\n", 400),
    (b"Content-Length: -5\r\n", 400),
    (b"Content-Length: 1_0\r\n", 400),
    (b"Content-Length: %d\r\n" % (servicelib.MAX_BODY_BYTES + 1), 413),
    (b"Content-Length: " + b"9" * 5000 + b"\r\n", 413),
])
def test_bad_content_length_is_answered_and_closed(live, capsys, header,
                                                   status):
    """No traceback in the handler thread, no body read, no thread left
    waiting for bytes that will not come."""
    raw = _raw_exchange(
        live, b"POST /query HTTP/1.1\r\nHost: x\r\n" + header + b"\r\n")
    got, headers, doc = _parse(raw)
    assert got == status
    assert headers["Connection"] == "close"
    assert "error" in doc
    assert live.service.errors == 1
    assert "Traceback" not in capsys.readouterr().err


def test_body_at_the_cap_is_read(live):
    body = b'{"machine": "testing", "counts": [2, 2], "nbytes": 64}'
    body += b" " * (servicelib.MAX_BODY_BYTES - len(body))
    raw = _raw_exchange(
        live, b"POST /query HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
              b"Content-Length: %d\r\n\r\n" % len(body) + body)
    status, _headers, doc = _parse(raw)
    assert status == 200 and doc["source"] == "computed"


@pytest.mark.parametrize("sent", [
    b"",                                              # nothing at all
    b"POST /query HTTP/1.1\r\nContent-Le",            # half a header block
    b"POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"mach",
])
def test_silent_connection_is_closed_by_the_idle_timeout(live, monkeypatch,
                                                         capsys, sent):
    monkeypatch.setattr(live.RequestHandlerClass, "timeout", 0.2)
    assert _raw_exchange(live, sent) == b""   # closed, nothing answered
    assert live.service.connections == 1
    assert live.service.requests == 0
    assert "Traceback" not in capsys.readouterr().err


def test_idle_timeout_is_fixed_and_keepalive_is_on():
    assert servicelib._Handler.timeout == servicelib.IDLE_TIMEOUT_S > 0
    assert servicelib._Handler.protocol_version == "HTTP/1.1"


def test_corrupt_entry_is_recomputed_not_a_500(service):
    body = {"machine": "testing", "counts": [2, 2], "nbytes": 64}
    _status, first = service.handle("POST", "/query", body)
    with open(service.cache._path(first["key"]), "w") as fh:
        fh.write("{}")
    status, again = service.handle("POST", "/query", body)
    assert status == 200 and again["source"] == "computed"
    assert again["result"]["latency_us"] == first["result"]["latency_us"]
    _status, stats = service.handle("GET", "/stats", None)
    assert stats["cache"]["corrupt"] == 1
    assert stats["connections"] == 0     # nothing came over HTTP
