"""A lone waiting process sits in its event's ``callbacks`` slot.

Almost every event a process waits on has that process as its only
subscriber, so :class:`~repro.simulator.engine.Event` stores it there
directly (no list) and :meth:`Engine.run` resumes it in place.  A second
subscriber of any kind turns the slot into a list with the first process
in front, so callbacks still run in subscription order.
"""

from __future__ import annotations

import pytest

from repro.simulator import AllOf, Engine, Interrupt
from repro.simulator.engine import _Countdown


def _drive(eng: Engine, by_step: bool) -> None:
    if by_step:
        while eng._deferred or eng._heap:
            eng.step()
    else:
        eng.run()


def test_a_fresh_event_holds_its_waiter_in_the_slot():
    eng = Engine()
    ev = eng.event("gate")

    def waiter():
        return (yield ev)

    proc = eng.spawn(waiter(), name="waiter")
    eng.step()  # the first step subscribes
    assert ev.callbacks is proc
    ev.succeed("v")
    eng.run()
    assert proc.value == "v"
    assert ev.callbacks is None


@pytest.mark.parametrize("by_step", [False, True], ids=["run", "step"])
def test_later_subscribers_queue_behind_the_first_process(by_step):
    eng = Engine()
    ev = eng.event("gate")
    log = []

    def waiter(tag, waitable):
        value = yield waitable
        log.append((tag, value))

    first = eng.spawn(waiter("first", ev), name="first")
    second = eng.spawn(waiter("second", ev), name="second")
    eng.step()
    assert ev.callbacks is first
    eng.step()
    ev.add_callback(lambda e: log.append(("callback", e.value)))
    eng.spawn(waiter("allof", AllOf([ev])), name="allof")
    eng.step()
    cbs = ev.callbacks
    assert type(cbs) is list and len(cbs) == 4
    assert cbs[0] is first
    assert cbs[1] is second
    assert type(cbs[3]) is _Countdown
    ev.succeed("x")
    _drive(eng, by_step)
    # The AllOf waiter resumes from its gate, one entry later.
    assert log == [("first", "x"), ("second", "x"), ("callback", "x"),
                   ("allof", ["x"])]


@pytest.mark.parametrize("by_step", [False, True], ids=["run", "step"])
def test_an_interrupted_waiter_leaves_the_slot_empty(by_step):
    eng = Engine()
    ev = eng.event("gate")
    log = []

    def sleeper():
        try:
            yield ev
        except Interrupt as exc:
            log.append(("interrupted", eng.now, exc.cause))
        yield eng.timeout(5.0)
        log.append(("woke", eng.now))

    proc = eng.spawn(sleeper(), name="sleeper")

    def driver():
        yield eng.timeout(1.0)
        proc.interrupt("stop")
        assert ev.callbacks is None
        yield eng.timeout(1.0)
        ev.succeed("late")  # nobody left to resume

    eng.spawn(driver(), name="driver")
    _drive(eng, by_step)
    assert log == [("interrupted", 1.0, "stop"), ("woke", 6.0)]
    assert ev.processed


@pytest.mark.parametrize("by_step", [False, True], ids=["run", "step"])
def test_a_stale_waiter_in_the_slot_is_not_resumed(by_step):
    """Interrupted after its event triggered, a process stays in that
    event's slot (as a stale list entry did before); it has moved on to
    another event by the time the first one fires."""
    eng = Engine()
    log = []
    wake = eng.timeout(3.0, value="wake")

    def sleeper():
        try:
            yield wake
        except Interrupt:
            log.append(("interrupted", eng.now))
        value = yield eng.timeout(5.0, "later")
        log.append(("woke", eng.now, value))

    proc = eng.spawn(sleeper(), name="sleeper")
    eng.step()
    assert wake.callbacks is proc
    proc.interrupt()
    _drive(eng, by_step)
    assert wake.processed
    assert log == [("interrupted", 0.0), ("woke", 5.0, "later")]


def test_a_finished_stale_waiter_gives_way_to_the_next_subscriber():
    eng = Engine()
    log = []
    wake = eng.timeout(3.0, value="wake")

    def early():
        try:
            yield wake
        except Interrupt:
            log.append(("early", "interrupted"))

    def late():
        log.append(("late", (yield wake)))

    proc = eng.spawn(early(), name="early")
    eng.step()
    proc.interrupt()
    eng.step()  # the interrupt finishes the process
    assert not proc.is_alive and wake.callbacks is proc
    eng.spawn(late(), name="late")
    eng.run()
    assert log == [("early", "interrupted"), ("late", "wake")]


@pytest.mark.parametrize("by_step", [False, True], ids=["run", "step"])
@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_a_process_waits_on_a_child_process(by_step, fails):
    eng = Engine()
    got = []

    def child():
        yield eng.timeout(2.0)
        if fails:
            raise ValueError("child failed")
        return 42

    def parent():
        kid = eng.spawn(child(), name="child")
        try:
            got.append((yield kid))
        except ValueError as exc:
            got.append(str(exc))
        got.append(eng.now)

    par = eng.spawn(parent(), name="parent")
    eng.step()  # the parent spawns the child and waits on it
    kid = par._waiting_on
    assert kid.callbacks is par
    _drive(eng, by_step)
    assert got == ["child failed" if fails else 42, 2.0]
    assert par.ok
