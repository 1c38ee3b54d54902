"""Timeout/cancel watchdog cycles must keep the event heap bounded.

The replay layer (and any watchdog pattern) schedules far-future
timeouts that are almost always cancelled before they fire.  Cancelled
entries are lazily deleted: the drain loop skips them without counting
them, and :meth:`Engine._note_cancelled` compacts the heap in place
once cancelled entries dominate — so a long-running job that arms and
disarms a watchdog per step runs in O(live events) memory, not
O(steps).
"""

from __future__ import annotations

from repro.simulator import Engine

CYCLES = 2000


def _watchdog_loop(engine: Engine, cycles: int = CYCLES):
    for _ in range(cycles):
        watchdog = engine.timeout(1e6, name="watchdog")
        yield engine.timeout(1e-6)
        watchdog.cancel()


def test_timeout_cancel_cycles_keep_heap_bounded():
    engine = Engine()
    engine.spawn(_watchdog_loop(engine), name="worker")
    engine.run()
    # 2000 cancelled watchdogs were pushed; lazy deletion + periodic
    # compaction must leave the heap near-empty, not linear in cycles.
    assert len(engine._heap) < 200


def test_cancelled_timeouts_are_not_processed_or_counted():
    engine = Engine()
    engine.spawn(_watchdog_loop(engine, 100), name="worker")
    engine.run()
    # Every cycle processes its short timeout (plus process bookkeeping)
    # but never a cancelled watchdog: the count stays well below the
    # 2-events-per-cycle a naive drain would report.  (Draining a
    # cancelled entry may still advance virtual time past it — only
    # processing, i.e. callbacks and counting, is suppressed.)
    assert engine.event_count < 150


def test_cancel_after_trigger_suppresses_processing():
    engine = Engine()
    fired = []
    ev = engine.timeout(0.5, name="late")
    ev.add_callback(lambda e: fired.append(e))

    def prog():
        yield engine.timeout(0.25)
        ev.cancel()  # already _TRIGGERED (queued), not yet processed

    engine.spawn(prog(), name="canceller")
    engine.run()
    assert fired == []
    assert not ev.processed


def test_heap_compaction_preserves_live_ordering():
    """Compaction (heapify of survivors) must not reorder live events."""
    engine = Engine()
    order = []

    def prog():
        # Arm enough cancelled entries to force at least one compaction
        # (threshold: >= 64 cancelled and more cancelled than live).
        for i in range(300):
            wd = engine.timeout(1e6)
            yield engine.timeout(1e-6)
            wd.cancel()
        for delay in (3e-3, 1e-3, 2e-3):
            ev = engine.timeout(delay, value=delay)
            ev.add_callback(lambda e: order.append(e.value))
        yield engine.timeout(5e-3)

    engine.spawn(prog(), name="worker")
    engine.run()
    assert order == [1e-3, 2e-3, 3e-3]


def test_repr_names_every_state():
    """``repr`` of a cancelled event used to raise ``KeyError: 3``,
    masking assertion output that printed one."""
    engine = Engine()
    pending = engine.event("gate")
    assert repr(pending) == "<Event 'gate' pending>"
    pending.cancel()  # cancelled while pending
    assert repr(pending) == "<Event 'gate' cancelled>"
    triggered = engine.timeout(1.0)
    assert repr(triggered) == "<Event 'timeout' triggered>"
    triggered.cancel()  # cancelled while queued
    assert repr(triggered) == "<Event 'timeout' cancelled>"
    done = engine.timeout(0.5, name="done")
    engine.run()
    assert repr(done) == "<Event 'done' done>"
