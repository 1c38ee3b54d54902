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
* **Determinism.**  The ready queue is a binary heap keyed on
  ``(time, seq)`` where ``seq`` is a global insertion counter, so
  simultaneous events always fire in schedule order.  Re-running the same
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
import heapq
from math import ceil as _ceil
from collections import deque
from collections.abc import Generator, Iterable
from types import GeneratorType
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
        # Lazily created: None both before the first subscriber (most
        # events never get more than one, many get none) and after
        # processing.  ``_state`` — not ``callbacks`` — distinguishes
        # the two.
        self.callbacks: list[Callable[[Event], None]] | None = None
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
        engine compacts the heap once cancelled entries dominate, so
        repeated timeout/cancel cycles keep the heap bounded.  Waiters
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
        else:
            cbs.append(fn)

    def _process(self) -> None:
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:
        return f"<Event {self.name!r} {_STATE_NAMES[self._state]}>"


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
        remaining = len(self.events)
        if remaining == 0:
            done.succeed([])
            return
        left = remaining
        failed = False

        def on_child(ev: Event) -> None:
            nonlocal left, failed
            if failed or done._state != _PENDING:
                return
            if ev._exc is not None:
                failed = True
                done.fail(ev._exc)
                return
            left -= 1
            if left == 0:
                done.succeed([e._value for e in self.events])

        for ev in self.events:
            cbs = ev.callbacks
            if cbs is None:
                if ev._state != _PROCESSED:
                    ev.callbacks = [on_child]
                else:  # already processed
                    ev.add_callback(on_child)
            else:
                cbs.append(on_child)


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

    __slots__ = ("generator", "_waiting_on", "_alive", "_resume_cb")

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
        self._waiting_on: Event | None = None
        self._alive = True
        # One bound method for the lifetime of the process: registered on
        # every waited-on event and removable by identity on interrupt.
        self._resume_cb = self._resume_from
        engine._live_processes.add(self)
        engine._defer(self._first_step)

    def _first_step(self) -> None:
        # Fused initial advance (same shape as _resume_from): one frame
        # for the first generator.send and the first wait subscription.
        # One call per spawned process — at paper scale that is one per
        # simulated message transfer.
        if not self._alive:
            return
        try:
            target = self.generator.send(None)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into event
            self._finish_fail(exc)
            return
        if type(target) is Event or isinstance(target, Event):
            self._waiting_on = target
            cbs = target.callbacks
            if cbs is None:
                if target._state != _PROCESSED:
                    target.callbacks = [self._resume_cb]
                else:  # already processed: resume at current time
                    cb = self._resume_cb
                    self.engine._defer(lambda: cb(target))
            else:
                cbs.append(self._resume_cb)
            return
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
            # The callback must come off the old target's list too, or every
            # interrupt would leave a dead entry behind for the rest of the
            # target's life (unbounded growth on long-lived events).
            self._waiting_on = None
            callbacks = target.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._resume_cb)
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
            self._waiting_on = target
            cbs = target.callbacks
            if cbs is None:
                if target._state != _PROCESSED:
                    target.callbacks = [self._resume_cb]
                else:  # already processed: resume at current time
                    cb = self._resume_cb
                    self.engine._defer(lambda: cb(target))
            else:
                cbs.append(self._resume_cb)
            return
        if isinstance(target, (AllOf, AnyOf)):
            gate = Event(self.engine, name="gate")
            target._subscribe(self.engine, gate)
            self._waiting_on = gate
            gate.add_callback(self._resume_cb)
            return
        self._finish_fail(
            SimulationError(
                f"process {self.name!r} yielded non-waitable {target!r}"
            )
        )

    def _resume_from(self, ev: Event) -> None:
        # Fused resume path: the bodies of _step/_wait_on/add_callback in
        # one frame.  One call per processed event with a waiter — the
        # hottest code in the simulator; the general versions above remain
        # for first steps, interrupts, and composite targets.
        if not self._alive or self._waiting_on is not ev:
            return  # stale callback (e.g. after interrupt)
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
        if type(target) is Event or isinstance(target, Event):
            self._waiting_on = target
            cbs = target.callbacks
            if cbs is None:
                if target._state != _PROCESSED:
                    target.callbacks = [self._resume_cb]
                else:  # already processed: resume at current time
                    cb = self._resume_cb
                    self.engine._defer(lambda: cb(target))
            else:
                cbs.append(self._resume_cb)
            return
        self._wait_on(target)

    def _finish_ok(self, value: Any) -> None:
        self._alive = False
        engine = self.engine
        engine._live_processes.discard(self)
        # Drop the cached bound method: it closes the Process->method->
        # Process reference cycle, letting refcounting (not the cyclic GC)
        # reclaim finished processes.
        self._resume_cb = None
        # Inlined succeed() — the already-triggered check cannot fire (a
        # process event triggers exactly once, here).
        self._state = _TRIGGERED
        self._value = value
        engine._defer(self)

    def _finish_fail(self, exc: BaseException) -> None:
        self._alive = False
        engine = self.engine
        engine._live_processes.discard(self)
        self._resume_cb = None
        self._state = _TRIGGERED
        self._exc = exc
        engine._defer(self)

    def _process(self) -> None:
        # A failing process with no waiters at processing time is a lost
        # crash — surface it.  (Waiters subscribing between the failure
        # and this tick still count.)  Inlines Event._process.
        self._state = _PROCESSED
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks:
            for fn in callbacks:
                fn(self)
        elif self._exc is not None:
            self.engine._unhandled.append((self, self._exc))

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
    current time* and uses the ``(time, seq)`` binary heap only for
    entries in the strict future.  Deferred calls are stored as bare
    callables, so resuming a process or running a queued callback
    allocates no :class:`Event` at all.

    FIFO entries need no sequence numbers: virtual time only advances
    (via the heap) once the FIFO is empty, so every heap entry that is
    due at the current time was necessarily scheduled *before* any entry
    currently in the FIFO and therefore always precedes it in ``(time,
    seq)`` order.  Heap entries keep the seq tiebreak among themselves.
    Entries are thus processed in global ``(time, seq)`` order; the
    equivalence tests pin :attr:`event_count`, every virtual timestamp
    and the span streams of the paper-figure miniatures to literals.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        #: Same-time FIFO: bare Events or callables.
        #: Invariant: every entry was scheduled at the *current* time, so
        #: the queue must drain before virtual time may advance.
        self._deferred: deque[Any] = deque()
        #: Bound-method cache for the hottest operation in the simulator
        #: (one deque append per scheduled entry).
        self._defer = self._deferred.append
        self._pause_pool: list[Event] = []
        self._seq = 0
        self._live_processes: set[Process] = set()
        self._unhandled: list[tuple[Process, BaseException]] = []
        self._event_count = 0
        #: Cancelled-but-still-heap-resident entries (lazy deletion).
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

        The returned event MUST be yielded immediately and never stored:
        it is recycled into a free list the moment it is processed, so a
        held reference would observe an unrelated later pause.  Public
        code should keep using :meth:`timeout`, whose events are safe to
        retain (e.g. to read ``.value`` afterwards).
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
        time = (self.now * _INV_TICK + _ceil(delay * _INV_TICK)) * TICK
        if time <= self.now:
            self._defer(ev)
        else:
            self._seq += 1
            heapq.heappush(self._heap, (time, self._seq, ev))
        return ev

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
    def _push(self, time: float, ev: Event) -> None:
        if time <= self.now:
            self._defer(ev)
        else:
            self._seq += 1
            heapq.heappush(self._heap, (time, self._seq, ev))

    def _note_cancelled(self) -> None:
        # Lazy deletion bookkeeping: once cancelled entries are the
        # majority of a non-trivial heap, rebuild it in place (the run
        # loop holds the list object in a local).
        self._cancelled += 1
        heap = self._heap
        if self._cancelled >= 64 and self._cancelled * 2 >= len(heap):
            heap[:] = [e for e in heap if e[2]._state != _CANCELLED]
            heapq.heapify(heap)
            self._cancelled = 0

    def on_time_advance(self, fn: Callable[[], None]) -> None:
        """Run *fn* once, just before virtual time next advances.

        The hook fires when every entry scheduled at the current time has
        been processed — either because the next heap entry lies strictly
        in the future or because the queue drained.  It may schedule new
        work at the current time (processed before time moves) or in the
        future.  Hooks are one-shot and run in registration order; a hook
        that re-registers itself without scheduling work is an error (the
        run loop would spin at the same timestamp).

        The collective replay layer uses this as its decision point: all
        ranks that entered a dispatch at the same timestamp have parked
        by the time the hook fires, so arrival offsets are known exactly.
        """
        self._advance_hooks.append(fn)

    def _run_advance_hooks(self) -> None:
        hooks = self._advance_hooks
        todo = list(hooks)
        del hooks[: len(todo)]
        for fn in todo:
            fn()

    # -- run loop ----------------------------------------------------------
    def step(self) -> None:
        """Process one scheduled event (or deferred call).

        Pops the globally next ``(time, seq)`` entry, advancing ``now``.
        Deferred entries are all at the current time; a heap entry due
        now was scheduled before any of them (time could not have
        advanced otherwise) and therefore precedes them.  Cancelled
        entries are discarded unprocessed (and uncounted) on the way.
        """
        while True:
            deferred = self._deferred
            if deferred:
                heap = self._heap
                if heap and heap[0][0] <= self.now:
                    entry = heapq.heappop(heap)
                    self.now = entry[0]
                    item = entry[2]
                else:
                    item = deferred.popleft()
            else:
                heap = self._heap
                if (
                    self._advance_hooks
                    and (not heap or heap[0][0] > self.now)
                ):
                    self._run_advance_hooks()
                    continue
                time, _seq, item = heapq.heappop(heap)
                if time < self.now:  # pragma: no cover - defensive
                    raise SimulationError("time went backwards")
                self.now = time
            if isinstance(item, Event) and item._state == _CANCELLED:
                if self._cancelled:
                    self._cancelled -= 1
                continue
            break
        self._event_count += 1
        # Plain events are processed inline (the _process body), sparing a
        # call per event; Process overrides _process, so subclasses take
        # the virtual dispatch.
        if type(item) is Event:
            item._state = _PROCESSED
            callbacks = item.callbacks
            item.callbacks = None
            if callbacks:
                for fn in callbacks:
                    fn(item)
            if item._poolable:
                self._pause_pool.append(item)
        elif isinstance(item, Event):
            item._process()
        else:
            item()
        if self._unhandled:
            proc, exc = self._unhandled[0]
            raise SimulationError(
                f"unhandled exception in process {proc.name!r}"
            ) from exc

    def run(self, until: float | None = None) -> None:
        """Run until the event queue drains (or virtual time *until*).

        Raises
        ------
        DeadlockError
            If processes are still alive when the queue drains.
        SimulationError
            If a process with no waiter raises an exception.
        """
        # Fully fused event loop: the bodies of step() and Event._process
        # are inlined and ``now``/``event_count`` are carried in locals —
        # per-event attribute traffic is what dominates at paper scale.
        # step() remains the semantic reference for one iteration.
        deferred = self._deferred
        heap = self._heap
        pool = self._pause_pool
        unhandled = self._unhandled
        heappop = heapq.heappop
        hooks = self._advance_hooks
        now = self.now
        count = 0
        # The run loop allocates heavily but — with the Process reference
        # cycle broken at finish — produces almost no cyclic garbage, so
        # the collector only burns time rescanning live objects.  Pause it
        # for the duration (restored even on error).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                if deferred:
                    item = deferred.popleft()
                elif heap:
                    time = heap[0][0]
                    if time < now:  # pragma: no cover - defensive
                        raise SimulationError("time went backwards")
                    if time > now and hooks:
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
                        continue
                    if until is not None and time > until:
                        # Deferred entries are always at ``now`` <= until;
                        # only a heap advance can cross the boundary.
                        self.now = until
                        return
                    item = heappop(heap)[2]
                    self.now = now = time
                    # Drain every other entry due at this same time into
                    # the FIFO up front.  They were all scheduled before
                    # anything the processing below can enqueue — a push
                    # at <= now always goes to the FIFO, so no new
                    # same-time heap entry can appear.  This keeps
                    # deferred pops free of any heap check.
                    while heap and heap[0][0] == time:
                        deferred.append(heappop(heap)[2])
                else:
                    if hooks:
                        self._event_count += count
                        count = 0
                        self._run_advance_hooks()
                        if deferred or heap:
                            continue
                    break
                count += 1
                if type(item) is Event:
                    state = item._state
                    if state == _CANCELLED:
                        count -= 1
                        if self._cancelled:
                            self._cancelled -= 1
                        continue
                    item._state = _PROCESSED
                    callbacks = item.callbacks
                    item.callbacks = None
                    if callbacks:
                        for fn in callbacks:
                            fn(item)
                    if item._poolable:
                        pool.append(item)
                elif type(item) is Process:
                    # Inlined Process._process.
                    item._state = _PROCESSED
                    callbacks = item.callbacks
                    item.callbacks = None
                    if callbacks:
                        for fn in callbacks:
                            fn(item)
                    elif item._exc is not None:
                        unhandled.append((item, item._exc))
                elif isinstance(item, Event):
                    item._process()
                else:
                    item()
                if unhandled:
                    proc, exc = unhandled[0]
                    raise SimulationError(
                        f"unhandled exception in process {proc.name!r}"
                    ) from exc
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
