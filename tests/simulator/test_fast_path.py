"""Unit tests for the engine's same-time scheduling and its companions.

Covers AnyOf index reporting under duplicate/late events, interrupt
detaching its stale resume callback, pause-event pooling and the pending
events :meth:`Engine.pooled` draws from the same pool, and a small
ping-pong network pinned to literal ``(now, event_count)`` values.
"""

from __future__ import annotations

import pytest

from repro.simulator import AnyOf, Engine, Interrupt, SimulationError


def _collect(engine, waitable):
    out = {}

    def waiter():
        out["value"] = yield waitable

    engine.spawn(waiter(), name="waiter")
    engine.run()
    return out["value"]


class TestAnyOfIndices:
    def test_later_position_winner_reports_its_index(self):
        eng = Engine()
        a, b = eng.event("a"), eng.event("b")
        eng.timeout(2.0).add_callback(lambda _ev: a.succeed("slow"))
        eng.timeout(1.0).add_callback(lambda _ev: b.succeed("quick"))
        assert _collect(eng, AnyOf([a, b])) == (1, "quick")

    def test_duplicate_event_reports_first_occurrence(self):
        # The same event listed twice used to confuse the winning-index
        # scan; each position now has its own subscription.
        eng = Engine()
        a = eng.event("a")
        b = eng.event("b")
        eng.timeout(1.0).add_callback(lambda _ev: a.succeed("v"))
        assert _collect(eng, AnyOf([b, a, a])) == (1, "v")

    def test_already_triggered_duplicate(self):
        eng = Engine()
        a = eng.event("a")
        a.succeed(7)
        assert _collect(eng, AnyOf([a, a])) == (0, 7)


class TestInterruptDetach:
    def test_interrupt_removes_stale_callback(self):
        eng = Engine()
        gate = eng.event("gate")
        seen = []

        def sleeper():
            try:
                yield gate
            except Interrupt as exc:
                seen.append(exc)

        proc = eng.spawn(sleeper(), name="sleeper")

        def driver():
            yield eng.timeout(1.0)
            proc.interrupt("wake up")
            # The interrupted process must no longer be subscribed: a
            # stale entry here would grow unboundedly on long-lived
            # events and resurrect the process when the gate fires.
            assert not gate.callbacks
            yield eng.timeout(1.0)
            gate.succeed("late")

        eng.spawn(driver(), name="driver")
        eng.run()
        assert len(seen) == 1
        assert seen[0].cause == "wake up"

    def test_interrupted_process_not_resumed_by_old_target(self):
        eng = Engine()
        gate = eng.event("gate")
        resumed = []

        def sleeper():
            try:
                yield gate
            except Interrupt:
                yield eng.timeout(5.0)
                resumed.append(eng.now)

        proc = eng.spawn(sleeper(), name="sleeper")

        def driver():
            yield eng.timeout(1.0)
            proc.interrupt()
            gate.succeed("x")  # must not double-resume the sleeper
            yield proc

        eng.spawn(driver(), name="driver")
        eng.run()
        assert resumed == [6.0]


class TestPausePooling:
    def test_pause_events_are_recycled(self):
        eng = Engine()
        ids = []

        def ticker():
            for _ in range(50):
                ev = eng.pause(1.0)
                ids.append(id(ev))
                yield ev

        eng.spawn(ticker(), name="ticker")
        eng.run()
        assert eng.now == 50.0
        # The free list keeps at most a handful of live pause events for
        # a single sequential user; identity reuse proves pooling works.
        assert len(set(ids)) < len(ids)
        assert eng._pause_pool

    def test_pause_values_survive_recycling(self):
        eng = Engine()
        got = []

        def ticker():
            for k in range(5):
                got.append((yield eng.pause(1.0, value=k)))

        eng.spawn(ticker(), name="ticker")
        eng.run()
        assert got == [0, 1, 2, 3, 4]


class TestPooledEvents:
    """The contract of :meth:`Engine.pooled`, which the replay park and
    ``Comm.align``'s slots rely on."""

    def test_a_drawn_event_is_pending_and_holds_no_value(self):
        eng = Engine()

        def ticker():
            yield eng.pause(1.0, value="stale")

        eng.spawn(ticker(), name="ticker")
        eng.run()
        recycled = eng._pause_pool[-1]
        ev = eng.pooled()
        assert ev is recycled
        assert not ev.triggered and ev.callbacks is None
        assert ev._value is None and ev._exc is None
        with pytest.raises(SimulationError):
            ev.value
        fresh = eng.pooled()  # the pool is empty now: a new one
        assert fresh is not ev and not fresh.triggered

    def test_a_processed_event_is_back_in_the_pool(self):
        eng = Engine()
        ev = eng.pooled()
        got = []

        def waiter():
            got.append((yield ev))

        eng.spawn(waiter(), name="waiter")
        eng.step()
        assert ev.callbacks is not None and ev not in eng._pause_pool
        ev.succeed("v")
        eng.run()
        assert got == ["v"]
        assert eng._pause_pool == [ev]
        assert eng.pooled() is ev and not ev.triggered

    @pytest.mark.parametrize("by_step", [False, True],
                             ids=["run", "step"])
    def test_an_interrupted_waiter_detaches_and_the_event_recycles(
            self, by_step):
        eng = Engine()
        park = eng.pooled()
        log = []

        def rank():
            try:
                yield park
            except Interrupt as exc:
                log.append(("interrupted", eng.now, exc.cause))
            log.append(("woke", (yield eng.timeout(2.0, "later"))))

        proc = eng.spawn(rank(), name="rank")

        def driver():
            yield eng.timeout(1.0)
            proc.interrupt("stop")
            assert park.callbacks is None
            park.succeed("wake")  # nobody left to resume

        eng.spawn(driver(), name="driver")
        if by_step:
            while eng._deferred or eng._heap:
                eng.step()
        else:
            eng.run()
        assert log == [("interrupted", 1.0, "stop"), ("woke", "later")]
        assert park in eng._pause_pool


def _pingpong(eng, rounds):
    """A small two-process network exercising events, pauses, interrupts."""
    a_inbox = [eng.event(f"a{i}") for i in range(rounds)]
    b_inbox = [eng.event(f"b{i}") for i in range(rounds)]

    def player(my_inbox, peer_inbox, delay):
        for i in range(rounds):
            yield eng.pause(delay)
            peer_inbox[i].succeed(i)
            yield my_inbox[i]

    eng.spawn(player(a_inbox, b_inbox, 0.5), name="a")
    eng.spawn(player(b_inbox, a_inbox, 0.25), name="b")
    eng.run()
    return eng.now, eng.event_count


#: ``(now, event_count)`` per round count, captured while a retired
#: all-heap reference scheduler was still asserted equal to them.
PINGPONG_PINS = {1: (0.5, 9), 7: (3.5, 39), 31: (15.5, 159)}


@pytest.mark.parametrize("rounds", sorted(PINGPONG_PINS))
def test_pingpong_matches_pins(rounds):
    assert _pingpong(Engine(), rounds) == PINGPONG_PINS[rounds]
