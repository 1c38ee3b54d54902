"""The two memos in front of the result cache (repro.bench.sweep).

``ResultCache.get`` reuses a parse only while the entry file's
``(st_ino, st_mtime_ns, st_size)`` is unchanged, and ``cache_key``
memoises the digest on everything it folds in.  Both are invisible
except in time: the disk stays the truth, the key stays a function of
every input — which is what these tests pin.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.bench import sweep as sweeplib
from repro.bench.sweep import (
    ResultCache,
    SweepPoint,
    cache_key,
    evaluate,
    run_sweep,
)

POINT = SweepPoint(machine="testing", counts=(2, 2), nbytes=64,
                   engine="model", algo="shared_window")


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


def _entry(key: str, latency_us: float = 1.0) -> dict:
    return {"key": key, "result": {"latency_us": latency_us}}


# ---------------------------------------------------------------------------
# The parse memo: disk is the truth
# ---------------------------------------------------------------------------

def test_repeated_get_does_not_open_the_file(cache, monkeypatch):
    record, _ = evaluate(POINT, cache)
    key = cache_key(POINT)
    first = cache.get(key)               # parses the file
    assert cache.memo_hits == 0

    def boom(*_args, **_kwargs):
        raise AssertionError("a repeated get must not open the entry")

    monkeypatch.setattr(sweeplib, "open", boom, raising=False)
    again = cache.get(key)
    assert again is first and again["result"] == record
    assert (cache.hits, cache.misses, cache.memo_hits) == (2, 1, 1)
    stats = cache.stats()
    assert stats["memo_hits"] == 1 and stats["corrupt"] == 0


def test_get_sees_every_change_made_behind_its_back(cache):
    key = cache_key(POINT)
    path = cache._path(key)
    other = ResultCache(cache.root)      # a second process, in effect

    cache.put(key, _entry(key, 1.0))
    assert cache.get(key)["result"]["latency_us"] == 1.0

    # Overwritten through another instance (new inode).
    other.put(key, _entry(key, 2.0))
    assert cache.get(key)["result"]["latency_us"] == 2.0

    # Overwritten by this instance.
    cache.put(key, _entry(key, 3.0))
    assert cache.get(key)["result"]["latency_us"] == 3.0
    assert cache.get(key)["result"]["latency_us"] == 3.0

    # Truncated in place (same inode).
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size // 2)
    assert cache.get(key) is None
    assert cache.corrupt == 1

    # Repaired by the other instance, then corrupted in place.
    other.put(key, _entry(key, 4.0))
    assert cache.get(key)["result"]["latency_us"] == 4.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{ not json")
    assert cache.get(key) is None
    assert cache.get(key) is None        # the verdict is memoised too
    assert cache.corrupt == 3

    # Deleted.
    other.put(key, _entry(key, 5.0))
    assert cache.get(key)["result"]["latency_us"] == 5.0
    os.remove(path)
    misses, corrupt = cache.misses, cache.corrupt
    assert cache.get(key) is None
    assert (cache.misses, cache.corrupt) == (misses + 1, corrupt)


def test_gc_then_get_is_a_miss(cache):
    points = [replace(POINT, nbytes=n) for n in (8, 16, 24)]
    for point in points:
        evaluate(point, cache)
        assert evaluate(point, cache)[1] == "cache"
    assert cache.gc(everything=True) == 3
    assert [evaluate(p, cache)[1] for p in points] == ["computed"] * 3
    assert cache.corrupt == 0


def test_memo_stays_under_its_bound(cache, monkeypatch):
    monkeypatch.setattr(ResultCache, "MEMO_ENTRIES", 4)
    keys = [cache_key(replace(POINT, nbytes=8 * n)) for n in range(1, 11)]
    for n, key in enumerate(keys):
        cache.put(key, _entry(key, float(n)))
    for _ in range(2):
        for n, key in enumerate(keys):
            assert cache.get(key)["result"]["latency_us"] == float(n)
            assert len(cache._memo) <= 4
    assert cache.hits == 20 and cache.corrupt == 0


def test_concurrent_readers_and_writers_share_one_cache(cache, monkeypatch):
    """Handler threads of the service share one instance: no lookup may
    raise, return another key's entry, or grow the memo past its bound —
    under writers racing one key."""
    monkeypatch.setattr(ResultCache, "MEMO_ENTRIES", 8)
    keys = [cache_key(replace(POINT, nbytes=8 * n)) for n in range(1, 17)]
    for key in keys:
        cache.put(key, _entry(key))
    deadline = time.monotonic() + 0.5
    problems: list[BaseException | str] = []

    def work(seed: int) -> None:
        try:
            n = seed
            while time.monotonic() < deadline:
                n += 1
                key = keys[(n * 7 + seed) % len(keys)]
                if n % 5 == 0:
                    cache.put(key, _entry(key, float(n)))
                doc = cache.get(key)
                if doc is None or doc["key"] != key:
                    problems.append(f"{key[:8]}: got {doc!r}")
                if len(cache._memo) > 8 + 1:   # one insert in flight
                    problems.append(f"memo grew to {len(cache._memo)}")
        except BaseException as exc:  # noqa: BLE001 — reported below
            problems.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    assert len(cache._memo) <= 8


# ---------------------------------------------------------------------------
# Corrupt entries that parse, or do not even decode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("damage", [
    b"\xff\xfe\x00 not utf-8",
    b"{}",
    b"[]",
    b"null",
    b'{"key": "KEY"}',                              # no result
    b'{"result": {"latency_us": 1.0}}',             # no key
    b'{"key": "someone-else", "result": {"latency_us": 1.0}}',
    b'{"key": "KEY", "result": 5}',
    b"[" * 200_000,                                 # deeper than the parser
], ids=["not-utf8", "empty-object", "list", "null", "no-result", "no-key",
        "other-key", "scalar-result", "too-deep"])
def test_damaged_entry_is_a_counted_miss_and_is_overwritten(cache, damage):
    record, _ = evaluate(POINT, cache)
    key = cache_key(POINT)
    with open(cache._path(key), "wb") as fh:
        fh.write(damage.replace(b"KEY", key.encode()))

    again, source = evaluate(POINT, cache)      # was KeyError/TypeError
    assert source == "computed"
    assert again["latency_us"] == record["latency_us"]
    assert cache.corrupt == 1

    assert evaluate(POINT, cache)[1] == "cache"  # the put repaired it
    assert cache.corrupt == 1


def test_run_sweep_survives_a_damaged_entry(cache):
    points = [replace(POINT, nbytes=n) for n in (8, 16)]
    cold = run_sweep(points, cache=cache)
    with open(cache._path(cache_key(points[0])), "w") as fh:
        fh.write("{}")
    warm = run_sweep(points, cache=cache)
    assert warm["failures"] == []
    assert warm["counters"]["hits"] == 1 and warm["counters"]["computed"] == 1
    assert {n: r["latency_us"] for n, r in warm["points"].items()} == \
        {n: r["latency_us"] for n, r in cold["points"].items()}
    assert warm["cache"]["corrupt"] == 1

    from repro.metrics import sweep_metrics, to_prometheus

    counters = sweep_metrics(warm)["counters"]
    assert counters["sweep_cache_corrupt"] == 1
    assert counters["sweep_cache_memo_hits"] == warm["cache"]["memo_hits"]
    assert "repro_sweep_cache_corrupt 1" in to_prometheus(sweep_metrics(warm))


# ---------------------------------------------------------------------------
# The key memo: still a function of every input
# ---------------------------------------------------------------------------

def test_equal_points_share_one_digest():
    sweeplib._key_digest.cache_clear()
    fields = dict(machine="testing", counts=(2, 2), nbytes=4096,
                  variant="pure", algo="ring")
    first = cache_key(SweepPoint(**fields))
    info = sweeplib._key_digest.cache_info()
    assert cache_key(SweepPoint(**fields)) == first
    assert cache_key(SweepPoint.from_dict(
        json.loads(json.dumps(SweepPoint(**fields).to_dict())))) == first
    after = sweeplib._key_digest.cache_info()
    assert (after.misses, after.hits) == (info.misses, info.hits + 2)
    assert after.maxsize is not None     # bounded


def test_points_that_compare_equal_serialize_equally():
    """8 == 8.0 == True in Python but not in JSON; the memo is keyed on
    the point, so the point normalises them."""
    plain = SweepPoint(machine="testing", counts=(2, 2), nbytes=8)
    loose = SweepPoint(machine="testing", counts=[2.0, 2], nbytes=8.0,
                       compute_grain=1, fast_path=1)
    assert loose == plain
    assert loose.to_dict() == plain.to_dict()
    assert json.dumps(loose.to_dict()) == json.dumps(plain.to_dict())
    assert cache_key(loose) == cache_key(plain)
    with pytest.raises(ValueError, match="integer"):
        SweepPoint(machine="testing", counts=(2,), nbytes=8.5)


def test_cache_key_follows_every_version_input(monkeypatch):
    from repro.bench import osu

    sim = SweepPoint(machine="testing", counts=(2, 2), nbytes=64)
    model = replace(sim, engine="model", algo="shared_window")
    seen = {cache_key(sim)}
    for target, name, value in [
        (sweeplib, "ENGINE_VERSION", "999.0-test"),
        (osu, "DEFAULT_REPS", 7),
        (osu, "DEFAULT_WARMUP", 3),
    ]:
        model_key = cache_key(model)
        monkeypatch.setattr(target, name, value)
        seen.add(cache_key(sim))
        assert cache_key(model) == model_key   # not a model input
    assert len(seen) == 4
    sim_key = cache_key(sim)
    monkeypatch.setattr(sweeplib, "MODEL_VERSION", "999.0-test")
    assert cache_key(model) != model_key
    assert cache_key(sim) == sim_key
    # Undone, the first key is back (and was never recomputed wrongly).
    monkeypatch.undo()
    assert cache_key(sim) in seen and cache_key(model) == model_key


def test_cache_key_follows_a_recalibrated_preset(monkeypatch):
    from repro.machine import presets

    point = SweepPoint(machine="testing", counts=(2, 2, 2), nbytes=64)
    before = cache_key(point)

    def recalibrated(nodes):
        return presets.testing_machine(nodes, alpha=2.0e-6)

    monkeypatch.setitem(sweeplib.MACHINES, "testing", recalibrated)
    # Presets are resolved once per process; a new process would see
    # the recalibration, so stand in for one.
    sweeplib._resolved_machine.cache_clear()
    try:
        assert cache_key(point) != before
    finally:
        monkeypatch.undo()
        sweeplib._resolved_machine.cache_clear()
    assert cache_key(point) == before
