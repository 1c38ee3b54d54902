"""Additional engine edge-case coverage."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest

from repro.simulator import (
    AllOf,
    AnyOf,
    BandwidthChannel,
    Engine,
    Event,
    Interrupt,
    Resource,
)
from repro.simulator.engine import SimulationError


class TestNestedComposition:
    def test_allof_of_processes_and_timeouts(self, engine):
        def child():
            yield engine.timeout(1.0)
            return "c"

        got = []

        def parent():
            values = yield AllOf(
                [engine.spawn(child()), engine.timeout(2.0, value="t")]
            )
            got.append(values)

        engine.spawn(parent())
        engine.run()
        assert got == [["c", "t"]]

    def test_anyof_then_drain_losers(self, engine):
        def child(d):
            yield engine.timeout(d)
            return d

        def parent():
            a = engine.spawn(child(1.0))
            b = engine.spawn(child(2.0))
            idx, val = yield AnyOf([a, b])
            assert (idx, val) == (0, 1.0)
            leftover = yield b
            return leftover

        p = engine.spawn(parent())
        engine.run()
        assert p.value == 2.0

    def test_chained_processes_deep(self, engine):
        def level(n):
            if n == 0:
                yield engine.timeout(0.1)
                return 0
            value = yield engine.spawn(level(n - 1))
            return value + 1

        p = engine.spawn(level(30))
        engine.run()
        assert p.value == 30
        assert engine.now == pytest.approx(0.1)


class TestInterruptSemantics:
    def test_interrupt_while_holding_resource_releases_in_finally(self, engine):
        res = Resource(engine, capacity=1)
        order = []

        def holder():
            yield res.acquire()
            try:
                yield engine.timeout(100.0)
            except Interrupt:
                order.append("interrupted")
            finally:
                res.release()

        def contender():
            yield engine.timeout(1.0)
            yield res.acquire()
            order.append(("acquired", engine.now))
            res.release()

        h = engine.spawn(holder())

        def killer():
            yield engine.timeout(2.0)
            h.interrupt()

        engine.spawn(contender())
        engine.spawn(killer())
        engine.run()
        assert order == ["interrupted", ("acquired", 2.0)]

    def test_interrupt_dead_process_is_noop(self, engine):
        def quick():
            yield engine.timeout(0.1)

        p = engine.spawn(quick())
        engine.run()
        p.interrupt()  # must not raise
        engine.run()


class TestEventLifecycle:
    def test_value_before_trigger_raises(self, engine):
        ev = Event(engine)
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_ok_false_while_pending(self, engine):
        ev = Event(engine)
        assert not ev.ok

    def test_two_waiters_both_resume(self, engine):
        ev = engine.event()
        got = []

        def waiter(tag):
            value = yield ev
            got.append((tag, value))

        engine.spawn(waiter("a"))
        engine.spawn(waiter("b"))

        def trigger():
            yield engine.timeout(1.0)
            ev.succeed(42)

        engine.spawn(trigger())
        engine.run()
        assert sorted(got) == [("a", 42), ("b", 42)]


class TestBandwidthEdge:
    def test_many_queued_transfers_complete_in_order(self, engine):
        ch = BandwidthChannel(engine, bandwidth=100.0, streams=1)
        done = []

        def mover(i):
            yield ch.transfer(10.0)
            done.append(i)

        for i in range(20):
            engine.spawn(mover(i))
        engine.run()
        assert done == list(range(20))
        assert engine.now == pytest.approx(20 * 0.1)

    def test_interleaved_sizes_fifo(self, engine):
        ch = BandwidthChannel(engine, bandwidth=10.0, streams=1)
        done = []

        def mover(i, n):
            yield ch.transfer(n)
            done.append(i)

        engine.spawn(mover(0, 100.0))  # 10 s
        engine.spawn(mover(1, 1.0))    # queued despite being tiny
        engine.run()
        assert done == [0, 1]


class TestRunSemantics:
    def test_run_until_before_first_event(self, engine):
        def proc():
            yield engine.timeout(10.0)

        engine.spawn(proc())
        engine.run(until=0.5)
        assert engine.now == 0.5
        engine.run()  # completes the rest
        assert engine.now == 10.0

    def test_empty_engine_run_is_noop(self):
        eng = Engine()
        eng.run()
        assert eng.now == 0.0

    def test_run_until_exact_boundary(self, engine):
        fired = []

        def proc():
            yield engine.timeout(1.0)
            fired.append(True)

        engine.spawn(proc())
        engine.run(until=1.0)
        assert fired == [True]


@contextmanager
def _deadline(seconds: int):
    """Fail with TimeoutError instead of hanging past *seconds*."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSpinningAdvanceHook:
    """A hook that re-arms itself and schedules nothing would run again
    at the same time forever; the engine names it instead."""

    def _arm(self, engine):
        def spin():
            engine.on_time_advance(spin)

        engine.call_later(1.0, lambda: engine.on_time_advance(spin))
        engine.call_later(2.0, lambda: None)

    def test_run_raises(self, engine):
        self._arm(engine)
        with _deadline(10), pytest.raises(SimulationError, match="re-armed"):
            engine.run()
        assert engine.now == 1.0

    def test_step_raises(self, engine):
        self._arm(engine)
        engine.step()
        with _deadline(10), pytest.raises(SimulationError, match="re-armed"):
            engine.step()

    def test_a_hook_rearmed_behind_work_runs_again(self, engine):
        calls = []

        def hook():
            calls.append(engine.now)
            if len(calls) < 3:
                engine.call_later(0.0, lambda: None)
                engine.on_time_advance(hook)

        engine.call_later(1.0, lambda: engine.on_time_advance(hook))
        engine.call_later(2.0, lambda: None)
        with _deadline(10):
            engine.run()
        assert calls == [1.0, 1.0, 1.0]
        assert engine.now == 2.0

    def test_a_hook_rearmed_as_the_queue_drains_lets_run_return(self, engine):
        calls = []

        def hook():
            calls.append(engine.now)
            engine.on_time_advance(hook)

        engine.call_later(1.0, lambda: engine.on_time_advance(hook))
        with _deadline(10):
            engine.run()
            assert calls == [1.0]
            engine.run()
        assert calls == [1.0, 1.0]
