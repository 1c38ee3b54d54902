"""Core discrete-event engine: virtual clock, events, and processes.

The engine executes *processes* — plain Python generators — in virtual
time.  A process suspends by ``yield``-ing a waitable (an :class:`Event`,
another :class:`Process`, or a composite :class:`AllOf`/:class:`AnyOf`)
and is resumed when that waitable triggers.  The value the waitable
carries is sent back into the generator, so simulated blocking calls read
naturally::

    def worker(eng):
        yield eng.timeout(1.5)          # sleep in virtual time
        value = yield some_event        # wait for a signal
        ...

Design notes
------------
* **Determinism.**  Entries run in ``(time, push order)``: a FIFO holds
  everything due at the current time, and each future timestamp keeps
  its entries in a bucket, in push order, behind a binary heap of the
  distinct timestamps.  Simultaneous events therefore always fire in
  schedule order.  Re-running the same
  program yields the identical trace — every layer above relies on this,
  up to the observability span streams (:mod:`repro.trace`), which the
  tests require to be *bit-identical* across re-runs.
* **Tick grid / translation invariance.**  Every scheduled delay is
  snapped to an integer number of :data:`TICK`-second ticks (2**-50 s,
  ~0.9 femtoseconds) and added to the clock in the *tick domain*, where
  float arithmetic is exact for virtual times below eight seconds.  The
  virtual interval consumed by a deterministic program fragment is then
  independent of the absolute time at which it starts — the property the
  collective replay cache (:mod:`repro.mpi.collectives.replay`) relies on
  to re-emit recorded outcomes at a later clock value *bit-identically*.
* **Failure propagation.**  An event may *fail* with an exception; waiting
  processes get the exception thrown at the yield point, which makes
  simulated error paths testable.
* **Deadlock detection.**  :meth:`Engine.run` raises
  :class:`DeadlockError` if live processes remain but no event is
  scheduled — the classic symptom of a mismatched send/recv or a barrier
  that not everyone entered.
"""

from __future__ import annotations

import gc
from heapq import heapify, heappop, heappush
from math import ceil as _ceil
from collections import deque
from collections.abc import Generator, Iterable
from types import GeneratorType, MethodType
from typing import Any, Callable

__all__ = [
    "AllOf",
    "AnyOf",
    "DeadlockError",
    "ENGINE_VERSION",
    "Engine",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "TICK",
]

#: Version of the engine's *virtual-time semantics*.  Bump whenever a
#: change alters event ordering, event counts, or charged latencies —
#: the content-addressed result cache (:mod:`repro.bench.sweep`) folds
#: this into every cache key, so cached simulation results invalidate
#: automatically when the semantics move.  Pure wall-clock optimizations
#: that keep the event stream bit-identical (see docs/performance.md)
#: do NOT bump it.
ENGINE_VERSION = "6.0"

#: Virtual-time grid in seconds.  All scheduled times are integer
#: multiples of this tick; see the "Tick grid" design note above.  At
#: 2**-50 s the grid is ~12 orders of magnitude below a nanosecond, so
#: quantization is far inside the noise floor of any modeled latency,
#: while times up to eight virtual seconds stay exactly representable.
TICK = 2.0 ** -50
_INV_TICK = 2.0 ** 50


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation engine."""


class DeadlockError(SimulationError):
    """Raised when live processes remain but no event can ever fire.

    The message lists the stuck processes to aid debugging of mismatched
    communication patterns (e.g. a receive with no matching send).
    """

    def __init__(self, stuck: list["Process"]):
        self.stuck = stuck
        names = ", ".join(p.name for p in stuck[:8])
        more = "" if len(stuck) <= 8 else f" (+{len(stuck) - 8} more)"
        super().__init__(
            f"deadlock: {len(stuck)} process(es) blocked with empty event "
            f"queue: {names}{more}"
        )


class Interrupt(Exception):
    """Thrown into a process that is interrupted via :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event states
_PENDING = 0
_TRIGGERED = 1  # scheduled for callback processing
_PROCESSED = 2  # callbacks have run
_CANCELLED = 3  # cancelled before processing; drain loops skip it
_STATE_NAMES = {_PENDING: "pending", _TRIGGERED: "triggered",
                _PROCESSED: "done", _CANCELLED: "cancelled"}


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it, after which its callbacks run (at the current virtual
    time) and any process yielding on it resumes.  Events may be waited on
    after they have triggered — the waiter resumes immediately with the
    stored value.
    """

    __slots__ = (
        "engine", "callbacks", "_state", "_value", "_exc", "name", "_poolable",
    )

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        # The subscribers: None both before the first one and after
        # processing (``_state`` — not ``callbacks`` — distinguishes the
        # two); the waiting :class:`Process` itself while it is the only
        # one, which is what almost every waited-on event has; a list of
        # processes and callables from the second subscriber on.
        self.callbacks: Process | list | None = None
        self._state = _PENDING
        self._value: Any = None
        self._exc: BaseException | None = None
        self.name = name
        self._poolable = False

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The success value (raises if the event failed or is pending)."""
        if not self.triggered:
            raise SimulationError(f"event {self.name!r} has no value yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering *value* to waiters."""
        if self._state != _PENDING:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._state = _TRIGGERED
        self._value = value
        self.engine._defer(self)
        return self

    def cancel(self) -> None:
        """Cancel the event before its callbacks run.

        Intended for scheduled-but-unfired :meth:`Engine.timeout` events
        (e.g. a watchdog that did not trip).  The queue entry is left in
        place but flagged, the drain loops skip it without processing
        (it does not count toward :attr:`Engine.event_count`), and the
        engine compacts its timed queue once cancelled entries dominate, so
        repeated timeout/cancel cycles keep the queue bounded.  Waiters
        subscribed to a cancelled event are never resumed — cancel only
        events nobody (left) waits on.  No-op once processed.
        """
        state = self._state
        if state == _TRIGGERED:
            self._state = _CANCELLED
            self.engine._note_cancelled()
        elif state == _PENDING:
            self._state = _CANCELLED

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters get *exc* thrown at them."""
        if self._state != _PENDING:
            raise SimulationError(f"event {self.name!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = _TRIGGERED
        self._exc = exc
        self.engine._defer(self)
        return self

    # -- wiring ----------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run *fn(event)* when the event is processed.

        If the event has already been processed the callback is queued to
        run at the current virtual time (never synchronously), preserving
        run-to-completion semantics for the caller.
        """
        cbs = self.callbacks
        if cbs is None:
            if self._state != _PROCESSED:
                self.callbacks = [fn]
            else:  # already processed: run at current time, async
                self.engine._defer(lambda: fn(self))
        elif type(cbs) is list:
            cbs.append(fn)
        else:  # a lone waiting process: it keeps the first place
            self.callbacks = [cbs, fn]

    def _process(self) -> None:
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, None
        if type(callbacks) is list:
            for fn in callbacks:
                if type(fn) is Process:
                    fn._resume_from(self)
                else:
                    fn(self)
        elif callbacks is not None:
            callbacks._resume_from(self)

    def __repr__(self) -> str:
        return f"<Event {self.name!r} {_STATE_NAMES[self._state]}>"


class _Countdown:
    """:class:`AllOf`'s callback, subscribed to *left* child events: the
    first failure fails *gate*; once all succeeded, *gate* succeeds with
    their values in order (*events*).  Later calls do nothing."""

    __slots__ = ("gate", "left", "events")

    def __init__(self, gate: Event, left: int, events: list[Event]):
        self.gate, self.left, self.events = gate, left, events

    def __call__(self, ev: Event) -> None:
        gate = self.gate
        if gate._state != _PENDING:
            return
        if ev._exc is not None:
            gate.fail(ev._exc)
            return
        self.left -= 1
        if not self.left:
            gate.succeed([e._value for e in self.events])


class AllOf:
    """Composite waitable: resumes when *all* child events have triggered.

    The resume value is the list of child values in input order.  If any
    child fails, the waiter fails with that child's exception (first
    failure wins).
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)

    def _subscribe(self, engine: "Engine", done: Event) -> None:
        events = self.events
        if not events:
            done.succeed([])
            return
        count = _Countdown(done, len(events), events)
        for ev in events:
            ev.add_callback(count)


class AnyOf:
    """Composite waitable: resumes when the *first* child event triggers.

    The resume value is a ``(index, value)`` tuple identifying which child
    fired.  A failing first child propagates its exception.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")

    def _subscribe(self, engine: "Engine", done: Event) -> None:
        # The winning index is fixed per subscription (one closure per
        # position) rather than recovered via ``events.index(ev)``: the
        # scan was O(n) per wakeup and always reported the *first*
        # occurrence when the same event was listed twice.
        def subscribe_at(index: int, ev: Event) -> None:
            def on_child(ev: Event) -> None:
                if done.triggered:
                    return
                if not ev.ok:
                    done.fail(ev._exc)  # type: ignore[arg-type]
                    return
                done.succeed((index, ev._value))

            ev.add_callback(on_child)

        for index, ev in enumerate(self.events):
            subscribe_at(index, ev)


class Process(Event):
    """A generator-driven simulated process.

    A :class:`Process` is itself an :class:`Event` that triggers when the
    generator returns (success value = the generator's return value) or
    raises (failure).  This lets processes wait on each other::

        child = eng.spawn(worker())
        result = yield child
    """

    __slots__ = ("generator", "_waiting_on", "_alive", "finish_time")

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        # Slots are assigned inline (not via Event.__init__): processes are
        # created per message transfer in the hot paths.
        self.engine = engine
        self.callbacks = None
        self._state = _PENDING
        self._value = None
        self._exc = None
        self._poolable = False
        self.name = name or getattr(generator, "__name__", "process")
        self.generator = generator
        # The event this process is subscribed to; None while it runs and
        # once it has finished, so a subscription that outlived its wait
        # (an interrupt after the event triggered) resumes nothing.
        self._waiting_on: Event | None = None
        self._alive = True
        #: Virtual time at which the generator returned or raised.
        self.finish_time: float | None = None
        engine._live_processes.add(self)
        engine._defer(self._first_step)

    def _first_step(self) -> None:
        # One call per spawned process: the first generator.send and the
        # first wait subscription in one frame.
        try:
            target = self.generator.send(None)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into event
            self._finish_fail(exc)
            return
        if (type(target) is Event and target.callbacks is None
                and target._state != _PROCESSED):
            self._waiting_on = target
            target.callbacks = self
        else:
            self._wait_on(target)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if not self._alive:
            return
        target = self._waiting_on
        if target is not None and not target.triggered:
            # Detach from whatever we were waiting on; resume with Interrupt.
            # The subscription must come off the old target too, or every
            # interrupt would leave a dead entry behind for the rest of the
            # target's life (unbounded growth on long-lived events).
            self._waiting_on = None
            callbacks = target.callbacks
            if callbacks is self:
                target.callbacks = None
            elif callbacks is not None:
                try:
                    callbacks.remove(self)
                except ValueError:  # pragma: no cover - already detached
                    pass
        self.engine._defer(
            lambda: self._step(None, Interrupt(cause)) if self._alive else None
        )

    # -- driver ----------------------------------------------------------
    def _step(self, send_value: Any, throw_exc: BaseException | None) -> None:
        if not self._alive:
            return
        self._waiting_on = None
        try:
            if throw_exc is not None:
                target = self.generator.throw(throw_exc)
            else:
                target = self.generator.send(send_value)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into event
            self._finish_fail(exc)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        # Plain events (and processes) are the overwhelmingly common yield
        # target — test for them first.
        if isinstance(target, Event):
            self._join(target)
            return
        if isinstance(target, (AllOf, AnyOf)):
            gate = Event(self.engine, name="gate")
            target._subscribe(self.engine, gate)
            self._join(gate)
            return
        self._finish_fail(
            SimulationError(
                f"process {self.name!r} yielded non-waitable {target!r}"
            )
        )

    def _join(self, target: Event) -> None:
        # Subscribe to *target*: into its empty slot, behind the
        # callables already subscribed, or — when the slot holds a lone
        # waiting process — as the second entry of a new list.
        self._waiting_on = target
        cbs = target.callbacks
        if cbs is None:
            if target._state != _PROCESSED:
                target.callbacks = self
            else:  # already processed: resume at current time
                self.engine._defer(lambda: self._resume_from(target))
        elif type(cbs) is list:
            cbs.append(self)
        else:
            target.callbacks = [cbs, self]

    def _resume_from(self, ev: Event) -> None:
        # Resume with what *ev* carries and subscribe to the next target.
        # Engine.run() inlines this body for the processes waiting on a
        # plain event; this method serves step() and the general
        # _process paths.
        if self._waiting_on is not ev:
            return  # stale subscription (e.g. after interrupt)
        self._waiting_on = None
        try:
            if ev._exc is None:
                target = self.generator.send(ev._value)
            else:
                target = self.generator.throw(ev._exc)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into event
            self._finish_fail(exc)
            return
        if (type(target) is Event and target.callbacks is None
                and target._state != _PROCESSED):
            self._waiting_on = target
            target.callbacks = self
        else:
            self._wait_on(target)

    def _finish_ok(self, value: Any) -> None:
        self._alive = False
        engine = self.engine
        self.finish_time = engine.now
        engine._live_processes.discard(self)
        # Inlined succeed() — the already-triggered check cannot fire (a
        # process event triggers exactly once, here).
        self._state = _TRIGGERED
        self._value = value
        engine._defer(self)

    def _finish_fail(self, exc: BaseException) -> None:
        self._alive = False
        engine = self.engine
        self.finish_time = engine.now
        engine._live_processes.discard(self)
        self._state = _TRIGGERED
        self._exc = exc
        engine._defer(self)

    def _process(self) -> None:
        # A failing process with no waiters at processing time is a lost
        # crash — surface it.  (Waiters subscribing between the failure
        # and this tick still count.)
        if not self.callbacks and self._exc is not None:
            self.engine._unhandled.append((self, self._exc))
        Event._process(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} alive={self._alive}>"


class Engine:
    """The virtual-time event loop.

    Attributes
    ----------
    now:
        Current virtual time (seconds by convention throughout
    :mod:`repro`; the engine itself is unit-agnostic).

    The scheduler keeps a plain FIFO of everything scheduled *at the
    current time*.  An entry in the strict future joins the bucket of
    its timestamp — a list in push order — and a binary heap holds each
    distinct future timestamp once, as a plain float.  Deferred calls
    are stored as bare callables, so resuming a process or running a
    queued callback allocates no :class:`Event` at all.

    Virtual time advances only once the FIFO is empty: the heap yields
    the next timestamp and its whole bucket moves into the FIFO.  Every
    entry of that bucket was scheduled before anything its processing
    can enqueue, so FIFO order is push order, and entries run in global
    ``(time, push order)``.  The equivalence tests pin
    :attr:`event_count`, every virtual timestamp and the span streams of
    the paper-figure miniatures to literals.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Each distinct future timestamp once (a heap); empty exactly
        #: when nothing timed is scheduled.
        self._heap: list[float] = []
        #: Future entries by timestamp, in push order: Events or
        #: :meth:`call_later` callables.
        self._timed: dict[float, list[Any]] = {}
        #: Same-time FIFO: bare Events or callables.
        #: Invariant: every entry was scheduled at the *current* time, so
        #: the queue must drain before virtual time may advance.
        self._deferred: deque[Any] = deque()
        #: Bound-method cache for the hottest operation in the simulator
        #: (one deque append per scheduled entry).
        self._defer = self._deferred.append
        self._pause_pool: list[Event] = []
        self._live_processes: set[Process] = set()
        #: Crashed processes ``(process, exception)`` and
        #: :meth:`after_entry` hooks ``(None, fn)``, in arrival order.
        self._unhandled: list[tuple[Process | None, Any]] = []
        self._event_count = 0
        #: Cancelled-but-still-queued entries (lazy deletion).
        self._cancelled = 0
        #: One-shot callbacks to run just before virtual time next
        #: advances (or the queue drains).  Identity is stable: the run
        #: loop caches this list object.
        self._advance_hooks: list[Callable[[], None]] = []

    # -- construction helpers -------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name)

    def qtime(self, delay: float) -> float:
        """Grid-exact absolute time *delay* seconds from now.

        This is the arithmetic :meth:`timeout`/:meth:`pause` use: the
        delay is rounded *up* to whole ticks (a timeout never fires before
        its nominal delay) and the addition happens in the tick
        domain, so the resulting interval is a pure function of *delay*
        (never of the current absolute time).  Use it when storing an
        absolute deadline that later scheduling must hit exactly.
        """
        return (self.now * _INV_TICK + _ceil(delay * _INV_TICK)) * TICK

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Event:
        """An event that triggers *delay* virtual seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        ev = Event(self, name or "timeout")
        ev._state = _TRIGGERED
        ev._value = value
        self._push((self.now * _INV_TICK + _ceil(delay * _INV_TICK)) * TICK, ev)
        return ev

    def pause(self, delay: float, value: Any = None) -> Event:
        """A pooled :meth:`timeout` for internal hot loops.

        The pool contract, :meth:`pooled`'s too: the event MUST be yielded
        at once and never stored.  It is recycled into a free list the
        moment it is processed (an interrupted waiter detaches first), so
        a held reference would observe an unrelated later pause or park.
        Public code should keep using :meth:`timeout`, whose events are
        safe to retain (e.g. to read ``.value`` afterwards).
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        pool = self._pause_pool
        if pool:
            ev = pool.pop()
            # callbacks is already None (reset when the event processed)
            ev._state = _TRIGGERED
            ev._value = value
            ev._exc = None
        else:
            ev = Event(self, name="pause")
            ev._state = _TRIGGERED
            ev._value = value
            ev._poolable = True
        # _push inlined, here and in call_later(): one frame per entry.
        now = self.now
        time = (now * _INV_TICK + _ceil(delay * _INV_TICK)) * TICK
        if time <= now:
            self._defer(ev)
        else:
            bucket = self._timed.get(time)
            if bucket is None:
                self._timed[time] = [ev]
                heappush(self._heap, time)
            else:
                bucket.append(ev)
        return ev

    def pooled(self) -> Event:
        """A pending event with no value from :meth:`pause`'s free list,
        under its contract, and never failed: the replay park's and
        ``Comm.align``'s."""
        pool = self._pause_pool
        if pool:
            ev = pool.pop()
            ev._state = _PENDING
            ev._value = None
            return ev
        ev = Event(self, "pause")
        ev._poolable = True
        return ev

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` *delay* virtual seconds from now.

        Takes the queue slot a :meth:`pause` of *delay* takes — so the
        same ``(time, push order)`` place and one entry of
        :attr:`event_count` — but holds *fn* itself, with no event.

        >>> eng = Engine()
        >>> seen = []
        >>> eng.call_later(2.0, lambda: seen.append(eng.now))
        >>> eng.call_later(1.0, lambda: seen.append(eng.now))
        >>> eng.run()
        >>> seen, eng.event_count
        ([1.0, 2.0], 2)
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        now = self.now
        time = (now * _INV_TICK + _ceil(delay * _INV_TICK)) * TICK
        if time <= now:
            self._defer(fn)
        else:
            bucket = self._timed.get(time)
            if bucket is None:
                self._timed[time] = [fn]
                heappush(self._heap, time)
            else:
                bucket.append(fn)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process executing *generator*."""
        # Exact-type check first: the ABC isinstance goes through
        # __instancecheck__ and is measurably slower in the hot paths.
        if type(generator) is not GeneratorType and not isinstance(
            generator, Generator
        ):
            raise TypeError(
                "spawn() expects a generator (did you forget to call the "
                "generator function?)"
            )
        return Process(self, generator, name)

    # -- scheduling internals --------------------------------------------
    def _push(self, time: float, item: Any) -> None:
        """Schedule *item* (an Event or a callable) at absolute *time*:
        into the FIFO when that is now, else at the end of its
        timestamp's bucket.  The hot :meth:`pause` and :meth:`call_later`
        inline this body."""
        if time <= self.now:
            self._defer(item)
        else:
            bucket = self._timed.get(time)
            if bucket is None:
                self._timed[time] = [item]
                heappush(self._heap, time)
            else:
                bucket.append(item)

    def _push_all(self, time: float, items: list[Any]) -> None:
        """:meth:`_push` of each of *items* in order, in one step: the
        list itself becomes the bucket of a timestamp that has none."""
        if time <= self.now:
            self._deferred.extend(items)
        else:
            bucket = self._timed.get(time)
            if bucket is None:
                self._timed[time] = items
                heappush(self._heap, time)
            else:
                bucket.extend(items)

    def _note_cancelled(self) -> None:
        # Lazy deletion bookkeeping: once cancelled entries are at least
        # half of a non-trivial set of timed ones, filter the buckets,
        # drop the emptied ones and rebuild the time heap — all in place
        # (the run loop holds both objects in locals).  Only events can
        # be cancelled; :meth:`call_later` entries are kept.
        self._cancelled += 1
        timed = self._timed
        if (self._cancelled < 64
                or self._cancelled * 2 < sum(map(len, timed.values()))):
            return
        for time, bucket in list(timed.items()):
            live = [e for e in bucket if not (
                isinstance(e, Event) and e._state == _CANCELLED)]
            if live:
                timed[time] = live
            else:
                del timed[time]
        heap = self._heap
        heap[:] = timed
        heapify(heap)
        self._cancelled = 0

    def on_time_advance(self, fn: Callable[[], None]) -> None:
        """Run *fn* once, just before virtual time next advances.

        The hook fires when every entry scheduled at the current time has
        been processed — either because the next timed entry lies
        strictly in the future or because the queue drained.  It may schedule new
        work at the current time (processed before time moves) or in the
        future.  Hooks are one-shot and run in registration order.  A hook
        that re-registers itself while a later entry is pending, without
        scheduling work at the current time, raises
        :class:`SimulationError` (it would spin at the same timestamp);
        one re-registered as the queue drains waits for the next run.

        The collective replay layer uses this as its decision point: all
        ranks that entered a dispatch at the same timestamp have parked
        by the time the hook fires, so arrival offsets are known exactly.
        """
        self._advance_hooks.append(fn)

    def after_entry(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` once, right after the entry being processed.

        :attr:`event_count` is exact there (it includes that entry), and
        the call is not an entry itself — it runs between two entries,
        before anything the current one scheduled.  The replay layer
        reads a dispatch's event count this way at the entry in which
        its last rank exits.  The hook rides on the run loop's per-entry
        test for a crashed process, so scheduling stays free of it;
        called between runs, it fires after the next entry.

        >>> eng = Engine()
        >>> seen = []
        >>> eng.call_later(1.0, lambda: eng.after_entry(
        ...     lambda: seen.append(eng.event_count)))
        >>> eng.call_later(2.0, lambda: None)
        >>> eng.run()
        >>> seen, eng.event_count
        ([1], 2)
        """
        self._unhandled.append((None, fn))

    def _after_entry(self) -> None:
        # The run loop's per-entry ``unhandled`` test lands here: run the
        # after-entry hooks in order, or report a crashed process exactly
        # as before (the crash stays first in the list).
        unhandled = self._unhandled
        while unhandled:
            proc, what = unhandled[0]
            if proc is not None:
                raise SimulationError(
                    f"unhandled exception in process {proc.name!r}"
                ) from what
            del unhandled[0]
            what()

    def _run_advance_hooks(self) -> None:
        hooks = self._advance_hooks
        todo = list(hooks)
        del hooks[: len(todo)]
        for fn in todo:
            fn()

    # -- run loop ----------------------------------------------------------
    def step(self) -> None:
        """Process one scheduled event (or deferred call).

        Takes the globally next ``(time, push order)`` entry: the FIFO's
        head, or — once the FIFO is empty — the earliest timestamp's
        bucket, moved into the FIFO as ``now`` advances to it.  Cancelled
        entries are discarded unprocessed (and uncounted) on the way.
        """
        deferred = self._deferred
        while True:
            if not deferred:
                if self._advance_hooks:
                    self._run_advance_hooks()
                    if self._advance_hooks and not deferred:
                        raise SimulationError(
                            f"advance hook {self._advance_hooks[0]!r} "
                            f"re-armed with nothing to run at t={self.now!r}")
                    continue
                time = heappop(self._heap)
                if time < self.now:  # pragma: no cover - defensive
                    raise SimulationError("time went backwards")
                self.now = time
                deferred.extend(self._timed.pop(time))
            item = deferred.popleft()
            if isinstance(item, Event) and item._state == _CANCELLED:
                if self._cancelled:
                    self._cancelled -= 1
                continue
            break
        self._event_count += 1
        if isinstance(item, Event):
            item._process()
            if item._poolable:
                self._pause_pool.append(item)
        else:
            item()
        if self._unhandled:
            self._after_entry()

    def run(self, until: float | None = None) -> None:
        """Run until the event queue drains (or virtual time *until*).

        Raises
        ------
        DeadlockError
            If processes are still alive when the queue drains.
        SimulationError
            If a process with no waiter raises an exception.
        """
        # Fully fused event loop: the bodies of step(), Event._process and
        # — for the processes waiting on a plain event — Process._resume_from
        # are inlined, and ``now``/``event_count`` are carried in locals:
        # per-event attribute traffic and frames are what dominate at
        # paper scale.  step() remains the semantic reference for one
        # iteration.
        deferred = self._deferred
        heap = self._heap
        timed = self._timed
        pool = self._pause_pool
        unhandled = self._unhandled
        hooks = self._advance_hooks
        now = self.now
        count = 0
        # The run loop allocates heavily but produces almost no cyclic
        # garbage, so the collector only burns time rescanning live
        # objects.  Pause it for the duration (restored even on error).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                if deferred:
                    item = deferred.popleft()
                elif heap:
                    time = heap[0]
                    if time < now:  # pragma: no cover - defensive
                        raise SimulationError("time went backwards")
                    if hooks:
                        # Everything at the current time has been
                        # processed: give the advance hooks (e.g. replay
                        # decisions) a chance to add same-time work
                        # before the clock moves.  Flush the local event
                        # counter first so hooks observe an accurate
                        # ``event_count`` (the replay recorder reads it
                        # to price a dispatch).
                        self._event_count += count
                        count = 0
                        self._run_advance_hooks()
                        if hooks and not deferred:
                            # Time cannot advance past a re-armed hook:
                            # with nothing to run first, it would spin.
                            raise SimulationError(
                                f"advance hook {hooks[0]!r} re-armed with "
                                f"nothing to run at t={now!r}")
                        continue
                    if until is not None and time > until:
                        # Deferred entries are always at ``now`` <= until;
                        # only an advance can cross the boundary.
                        self.now = until
                        return
                    heappop(heap)
                    self.now = now = time
                    # The timestamp's whole bucket becomes the FIFO: its
                    # entries were all scheduled before anything their
                    # processing can enqueue (a push at <= now goes to the
                    # FIFO), so push order is kept.
                    deferred.extend(timed.pop(time))
                    item = deferred.popleft()
                else:
                    if hooks:
                        self._event_count += count
                        count = 0
                        self._run_advance_hooks()
                        if deferred or heap:
                            continue
                    break
                count += 1
                # Bound-method steps (timed and deferred message and
                # transfer steps, process first steps) are most of the
                # traffic: test for them first.
                if type(item) is MethodType:
                    item()
                elif type(item) is Event:
                    if item._state == _CANCELLED:
                        count -= 1
                        if self._cancelled:
                            self._cancelled -= 1
                        continue
                    item._state = _PROCESSED
                    # The slot's lone process, or each entry of its list
                    # in order: a waiting process is resumed in place
                    # (Process._resume_from without its frame), a
                    # callable called.
                    proc = item.callbacks
                    item.callbacks = None
                    rest = None
                    if type(proc) is list:
                        rest = iter(proc)
                        proc = next(rest, None)
                    while proc is not None:
                        if type(proc) is not Process:
                            proc(item)
                        elif proc._waiting_on is item:
                            proc._waiting_on = None
                            try:
                                if item._exc is None:
                                    target = proc.generator.send(item._value)
                                else:
                                    target = proc.generator.throw(item._exc)
                            except StopIteration as stop:
                                proc._finish_ok(stop.value)
                            except BaseException as exc:  # noqa: BLE001
                                proc._finish_fail(exc)
                            else:
                                if (type(target) is Event
                                        and target.callbacks is None
                                        and target._state != _PROCESSED):
                                    proc._waiting_on = target
                                    target.callbacks = proc
                                else:
                                    proc._wait_on(target)
                        proc = None if rest is None else next(rest, None)
                    if item._poolable:
                        pool.append(item)
                elif isinstance(item, Event):
                    item._process()
                else:
                    item()
                if unhandled:
                    # A crashed process, or an :meth:`after_entry` hook,
                    # which reads an exact ``event_count``.
                    self._event_count += count
                    count = 0
                    self._after_entry()
            if until is not None:
                self.now = until
        finally:
            self._event_count += count
            if gc_was_enabled:
                gc.enable()
        if self._live_processes:
            raise DeadlockError(sorted(self._live_processes, key=lambda p: p.name))

    @property
    def event_count(self) -> int:
        """Total number of events processed so far (a determinism probe)."""
        return self._event_count
