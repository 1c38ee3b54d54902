"""``Engine.after_entry``: a hook between two entries, exact and free.

The replay layer reads a dispatch's event count right after the entry in
which its last rank exits, so the hook must run there and nowhere else,
see an exact ``event_count``, cost no entry, behave the same under
``step()`` as under ``run()``, and leave crash reporting as it was.
"""

from __future__ import annotations

import pytest

from repro.simulator import Engine
from repro.simulator.engine import SimulationError


def _program(eng: Engine, log: list, hook: bool):
    """Two processes that interleave at one timestep; the first arms a
    hook in its second entry and schedules same-time work there."""

    def first():
        yield eng.timeout(1.0)
        log.append(("first", eng.now))
        if hook:
            eng.after_entry(lambda: log.append(("hook", eng.event_count)))
        eng.call_later(0.0, lambda: log.append(("scheduled", eng.now)))
        yield eng.timeout(1.0)
        log.append(("first", eng.now))

    def second():
        yield eng.timeout(1.0)
        log.append(("second", eng.now))

    eng.spawn(first(), name="first")
    eng.spawn(second(), name="second")


def _drive(by_step: bool, hook: bool) -> tuple[list, int]:
    eng = Engine()
    log: list = []
    _program(eng, log, hook)
    if by_step:
        while eng._deferred or eng._heap:
            eng.step()
    else:
        eng.run()
    return log, eng.event_count


@pytest.mark.parametrize("by_step", [False, True], ids=["run", "step"])
def test_runs_right_after_the_current_entry_with_an_exact_count(by_step):
    log, events = _drive(by_step, hook=True)
    # Entries: the two first steps, then the first 1.0 timeout — the
    # third entry, which arms the hook — the second one, the same-time
    # callable, the second process's finish, the 2.0 timeout and the
    # first process's finish.
    assert log == [
        ("first", 1.0),
        ("hook", 3),
        ("second", 1.0),
        ("scheduled", 1.0),
        ("first", 2.0),
    ]
    assert events == 8


@pytest.mark.parametrize("by_step", [False, True], ids=["run", "step"])
def test_adds_no_entry(by_step):
    with_hook, events = _drive(by_step, hook=True)
    without, events_without = _drive(by_step, hook=False)
    assert events == events_without
    assert [e for e in with_hook if e[0] != "hook"] == without


def test_step_and_run_agree():
    assert _drive(True, hook=True) == _drive(False, hook=True)


def test_hooks_run_in_order_and_may_arm_more():
    eng = Engine()
    seen = []

    def arm():
        eng.after_entry(lambda: seen.append(("a", eng.event_count)))
        eng.after_entry(lambda: (
            seen.append(("b", eng.event_count)),
            eng.after_entry(lambda: seen.append(("c", eng.event_count))),
        ))

    eng.call_later(1.0, arm)
    eng.call_later(2.0, lambda: seen.append(("next", eng.event_count)))
    eng.run()
    # A hook armed by a hook still runs before the next entry.
    assert seen == [("a", 1), ("b", 1), ("c", 1), ("next", 1)]
    assert eng.event_count == 2


@pytest.mark.parametrize("by_step", [False, True], ids=["run", "step"])
def test_crash_reporting_is_unchanged(by_step):
    eng = Engine()

    def crasher():
        yield eng.timeout(1.0)
        raise ValueError("boom")

    eng.spawn(crasher(), name="crasher")
    with pytest.raises(SimulationError,
                       match="unhandled exception in process 'crasher'"
                       ) as info:
        if by_step:
            while True:
                eng.step()
        else:
            eng.run()
    assert isinstance(info.value.__cause__, ValueError)


def test_a_raising_hook_propagates_raw_from_run():
    eng = Engine()

    def fail():
        raise KeyError("hook")

    eng.call_later(1.0, lambda: eng.after_entry(fail))
    with pytest.raises(KeyError):
        eng.run()
    assert eng.event_count == 1
