"""The timed queue keeps ``(time, push order)``.

Future entries wait in one bucket per timestamp behind a heap of the
distinct timestamps; this property draws programs that schedule
``timeout``, ``pause`` and ``call_later`` entries — at the start and from
inside processed entries — and cancel timeouts, with delays from a few
grid multiples so that same-time collisions are the rule.  A plain
``(time, seq)`` heap replays each program as the reference: the engine
must process the same entries in the same order at the same times, and
``step()`` and ``run()`` must agree with it on order and
``event_count``.  Cancel storms push past the compaction threshold, so
buckets are filtered while live entries share their timestamps.
"""

from __future__ import annotations

import heapq

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulator import Engine

#: One delay step: a power of two, so ``k * UNIT`` sits exactly on the
#: tick grid and timestamps are exact sums of steps.
UNIT = 2.0 ** -20

#: Timeouts a storm arms and cancels at once (two storms compact).
STORM = 40

KINDS = ("timeout", "pause", "call_later", "cancel", "storm")

#: Each node: ``(kind, delay steps, parent, cancel target)``; a node
#: acts when its parent fires (parent -1: before the run), in node order.
nodes = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 3),
              st.integers(0, 63), st.integers(0, 63)),
    min_size=1, max_size=40,
)


def _normalise(raw):
    return [(kind, k, p % (i + 1) - 1, t % len(raw))
            for i, (kind, k, p, t) in enumerate(raw)]


def _children(program):
    children: dict[int, list[int]] = {}
    for i, (_kind, _k, parent, _t) in enumerate(program):
        children.setdefault(parent, []).append(i)
    return children


def _reference(program):
    """``(node, time in steps)`` per fired node, and the entry count, by
    a ``(time, seq)`` heap: a timeout or call_later is one entry; a pause
    is its process's first step, the pause, and the process's finish."""
    children = _children(program)
    heap: list = []
    seq = 0
    pending: dict[int, list] = {}  # timeout node -> its live heap entry
    fired, count = [], 0

    def push(time, what, node):
        nonlocal seq
        entry = [time, seq, what, node, False]
        seq += 1
        heapq.heappush(heap, entry)
        return entry

    def act(i, now):
        kind, k, _parent, target = program[i]
        if kind in ("timeout", "call_later"):
            entry = push(now + k, "fire", i)
            if kind == "timeout":
                pending[i] = entry
        elif kind == "pause":
            push(now, "first", i)
        elif kind == "cancel" and target in pending:
            pending.pop(target)[4] = True

    for i in children.get(-1, []):
        act(i, 0)
    while heap:
        now, _seq, what, node, cancelled = heapq.heappop(heap)
        if cancelled:
            continue
        count += 1
        if what == "first":
            push(now + program[node][1], "fire", node)
            continue
        if what == "finish":
            continue
        pending.pop(node, None)
        fired.append((node, now))
        for i in children.get(node, []):
            act(i, now)
        if program[node][0] == "pause":
            push(now, "finish", node)
    return fired, count


def _engine(program, fired):
    """The same program on an :class:`Engine`; fired nodes go to *fired*."""
    eng = Engine()
    children = _children(program)
    timeouts: dict = {}

    def fire(node):
        fired.append((node, round(eng.now / UNIT)))
        for i in children.get(node, []):
            act(i)

    def pauser(node):
        yield eng.pause(program[node][1] * UNIT)
        fire(node)

    def act(i):
        kind, k, _parent, target = program[i]
        if kind == "timeout":
            ev = timeouts[i] = eng.timeout(k * UNIT)
            ev.add_callback(lambda _ev, i=i: fire(i))
        elif kind == "call_later":
            eng.call_later(k * UNIT, lambda i=i: fire(i))
        elif kind == "pause":
            eng.spawn(pauser(i), name=f"pause{i}")
        elif kind == "cancel":
            if target in timeouts:
                timeouts[target].cancel()
        else:
            for ev in [eng.timeout(k * UNIT) for _ in range(STORM)]:
                ev.cancel()

    for i in children.get(-1, []):
        act(i)
    return eng


@given(raw=nodes)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_entries_run_in_time_then_push_order(raw):
    program = _normalise(raw)
    expected, count = _reference(program)
    by_run: list = []
    ran = _engine(program, by_run)
    ran.run()
    assert by_run == expected
    assert ran.event_count == count
    by_step: list = []
    stepped = _engine(program, by_step)
    while stepped.event_count < count:
        stepped.step()
    assert by_step == expected
    assert stepped.event_count == ran.event_count


@given(groups=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)),
                       min_size=1, max_size=8),
       before=st.lists(st.integers(0, 3), max_size=6))
@settings(max_examples=100, deadline=None)
def test_a_pushed_group_runs_as_its_items_pushed_one_by_one(groups, before):
    """``Engine._push_all`` (a replay hit's wakes of one tick) takes the
    places ``_push`` gives its items one by one: behind what the bucket
    holds already, or in the FIFO at the current time (0 steps)."""
    orders = []
    for grouped in (False, True):
        eng = Engine()
        seen: list = []

        def start(eng=eng, seen=seen, grouped=grouped):
            for j, k in enumerate(before):
                eng.call_later(k * UNIT, lambda j=j: seen.append(("b", j)))
            for g, (k, n) in enumerate(groups):
                items = [lambda g=g, i=i: seen.append((g, i))
                         for i in range(n)]
                time = eng.now + k * UNIT
                if grouped:
                    eng._push_all(time, items)
                else:
                    for item in items:
                        eng._push(time, item)

        eng.call_later(UNIT, start)
        eng.run()
        orders.append((seen, eng.event_count))
    assert orders[0] == orders[1]
