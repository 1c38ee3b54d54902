"""Unit tests for contended resources."""

from __future__ import annotations

import pytest

from repro.simulator import BandwidthChannel, Engine, Resource, TokenBucket
from repro.simulator.engine import SimulationError


class TestResource:
    def test_grant_within_capacity_is_immediate(self, engine):
        res = Resource(engine, capacity=2)
        ev = res.acquire()
        assert ev.triggered
        assert res.in_use == 1

    def test_fifo_queue_order(self, engine):
        res = Resource(engine, capacity=1)
        order = []

        def worker(tag, hold):
            yield res.acquire()
            order.append((engine.now, tag))
            yield engine.timeout(hold)
            res.release()

        engine.spawn(worker("a", 2.0))
        engine.spawn(worker("b", 1.0))
        engine.spawn(worker("c", 1.0))
        engine.run()
        assert order == [(0.0, "a"), (2.0, "b"), (3.0, "c")]

    def test_multi_unit_acquire(self, engine):
        res = Resource(engine, capacity=3)
        times = []

        def big():
            yield res.acquire(3)
            times.append(("big", engine.now))
            yield engine.timeout(1.0)
            res.release(3)

        def small():
            yield engine.timeout(0.1)
            yield res.acquire(1)
            times.append(("small", engine.now))
            res.release(1)

        engine.spawn(big())
        engine.spawn(small())
        engine.run()
        assert times == [("big", 0.0), ("small", 1.0)]

    def test_invalid_amounts(self, engine):
        res = Resource(engine, capacity=2)
        with pytest.raises(ValueError):
            res.acquire(0)
        with pytest.raises(ValueError):
            res.acquire(3)
        with pytest.raises(SimulationError):
            res.release()  # nothing held

    def test_capacity_validation(self, engine):
        with pytest.raises(ValueError):
            Resource(engine, capacity=0)

    def test_queued_counter(self, engine):
        res = Resource(engine, capacity=1)
        res.acquire()
        res.acquire()
        res.acquire()
        assert res.queued == 2


class TestBandwidthChannel:
    def test_single_transfer_time(self, engine):
        ch = BandwidthChannel(engine, bandwidth=100.0, streams=1)
        done = []

        def mover():
            yield ch.transfer(50.0)
            done.append(engine.now)

        engine.spawn(mover())
        engine.run()
        assert done == [0.5]

    def test_streams_divide_bandwidth(self, engine):
        # 2 streams of 50 B/s each: two concurrent 100 B transfers both
        # take 2 s; a third queues and finishes at 4 s.
        ch = BandwidthChannel(engine, bandwidth=100.0, streams=2)
        done = []

        def mover(tag):
            yield ch.transfer(100.0)
            done.append((tag, engine.now))

        for t in "abc":
            engine.spawn(mover(t))
        engine.run()
        assert done == [("a", 2.0), ("b", 2.0), ("c", 4.0)]

    def test_zero_byte_transfer_is_free(self, engine):
        ch = BandwidthChannel(engine, bandwidth=10.0)
        done = []

        def mover():
            yield ch.transfer(0.0)
            done.append(engine.now)

        engine.spawn(mover())
        engine.run()
        assert done == [0.0]

    def test_negative_bytes_rejected(self, engine):
        ch = BandwidthChannel(engine, bandwidth=10.0)
        with pytest.raises(ValueError):
            ch.transfer(-1.0)

    def test_bandwidth_validation(self, engine):
        with pytest.raises(ValueError):
            BandwidthChannel(engine, bandwidth=0.0)


class TestTokenBucket:
    def test_burst_without_wait(self, engine):
        bucket = TokenBucket(engine, rate=1.0, capacity=5.0)
        done = []

        def taker():
            yield bucket.take(5.0)
            done.append(engine.now)

        engine.spawn(taker())
        engine.run()
        assert done == [0.0]

    def test_refill_wait(self, engine):
        bucket = TokenBucket(engine, rate=2.0, capacity=2.0)
        done = []

        def taker():
            yield bucket.take(2.0)     # drains the bucket
            yield bucket.take(2.0)     # must wait 1 s for refill
            done.append(engine.now)

        engine.spawn(taker())
        engine.run()
        assert done == [pytest.approx(1.0)]

    def test_invalid_take(self, engine):
        bucket = TokenBucket(engine, rate=1.0, capacity=1.0)
        with pytest.raises(ValueError):
            bucket.take(2.0)
        with pytest.raises(ValueError):
            bucket.take(0.0)

    def test_validation(self, engine):
        with pytest.raises(ValueError):
            TokenBucket(engine, rate=0.0, capacity=1.0)
