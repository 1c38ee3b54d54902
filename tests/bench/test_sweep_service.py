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
        assert err.value.code == 400

        with urllib.request.urlopen(f"{base}/stats", timeout=10) as resp:
            stats = json.load(resp)
        assert stats["cache"]["entries"] == 1
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
