"""Unit tests for the engine's same-time scheduling and its companions.

Covers AnyOf index reporting under duplicate/late events, interrupt
detaching its stale resume callback, pause-event pooling, and a small
ping-pong network pinned to literal ``(now, event_count)`` values.
"""

from __future__ import annotations

import pytest

from repro.simulator import AnyOf, Engine, Interrupt


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
