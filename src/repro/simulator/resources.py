"""Contended resources for the simulation engine.

Three primitives cover everything the machine model needs:

* :class:`Resource` — a counting semaphore with FIFO queuing.  Used for
  NIC injection slots and memory-stream slots.
* :class:`BandwidthChannel` — a pipe with finite aggregate bandwidth and a
  bounded number of concurrent streams.  A transfer of ``n`` bytes holds a
  stream slot for ``n / stream_bw`` seconds; when all slots are busy,
  transfers queue FIFO.  This is a deterministic approximation of
  processor-sharing that still produces the right qualitative behaviour:
  throughput degrades once concurrency exceeds the sustainable stream
  count (e.g. on-node memory contention growing with ranks-per-node,
  which is the effect the ICPP'19 paper exploits).
* :class:`TokenBucket` — a rate limiter used by injection-rate models.
"""

from __future__ import annotations

from collections import deque

from repro.simulator.engine import (
    _TRIGGERED,
    Engine,
    Event,
    Process,
    SimulationError,
)

__all__ = ["Resource", "BandwidthChannel", "TokenBucket"]


class Resource:
    """Counting semaphore with strict FIFO grant order.

    Usage from a process::

        grant = yield res.acquire()
        try:
            ...
        finally:
            res.release()
    """

    def __init__(self, engine: Engine, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._acquire_name = name + ".acquire"
        self._in_use = 0
        self._waiters: deque[tuple[Event, int]] = deque()

    @property
    def in_use(self) -> int:
        """Units currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of acquire requests waiting."""
        return len(self._waiters)

    def acquire(self, amount: int = 1) -> Event:
        """Request *amount* units; the returned event fires on grant."""
        if amount < 1 or amount > self.capacity:
            raise ValueError(
                f"acquire({amount}) invalid for capacity {self.capacity}"
            )
        engine = self.engine
        ev = Event(engine, name=self._acquire_name)
        if not self._waiters and self._in_use + amount <= self.capacity:
            self._in_use += amount
            # Inlined Event.succeed (the event is fresh, so the
            # already-triggered check cannot fire) — one grant per
            # simulated transfer makes this a hot path.
            ev._state = _TRIGGERED
            ev._value = amount
            engine._defer(ev)
        else:
            self._waiters.append((ev, amount))
        return ev

    def release(self, amount: int = 1) -> None:
        """Return *amount* units and grant queued requests FIFO."""
        if amount < 1 or amount > self._in_use:
            raise SimulationError(
                f"release({amount}) with only {self._in_use} in use"
            )
        self._in_use -= amount
        waiters = self._waiters
        while waiters:
            ev, want = waiters[0]
            if self._in_use + want > self.capacity:
                break
            waiters.popleft()
            self._in_use += want
            ev._state = _TRIGGERED
            ev._value = want
            self.engine._defer(ev)


class BandwidthChannel:
    """A shared pipe: aggregate bandwidth split into fixed stream slots.

    Parameters
    ----------
    bandwidth:
        Aggregate bytes/second the channel sustains.
    streams:
        Number of transfers that can proceed concurrently at full
        per-stream rate (``bandwidth / streams``).  Additional transfers
        queue.  ``streams=1`` gives a fully serialized link (a NIC);
        larger values model multi-channel memory systems.
    """

    def __init__(
        self,
        engine: Engine,
        bandwidth: float,
        streams: int = 1,
        name: str = "channel",
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.engine = engine
        self.bandwidth = float(bandwidth)
        self.streams = int(streams)
        self.name = name
        self._slots = Resource(engine, self.streams, name=f"{name}.slots")
        self._xfer_name = name + ".xfer"
        self._stream_bw = self.bandwidth / self.streams
        self.bytes_moved = 0.0
        self.busy_time = 0.0

    @property
    def stream_bandwidth(self) -> float:
        """Bytes/second available to a single transfer."""
        return self._stream_bw

    def transfer_time(self, nbytes: float) -> float:
        """Uncontended duration of a transfer of *nbytes*."""
        return nbytes / self._stream_bw

    def transfer(self, nbytes: float) -> "Event":
        """Move *nbytes* through the channel; returns a completion event.

        Hand-rolled state machine (``yield channel.transfer(n)`` from the
        caller's side, as before).  The queue entries it creates — start
        call, grant event, optional pause, completion event — are exactly
        those the equivalent generator process used to create, in the
        same order, so ``event_count`` and all timings are unchanged;
        only the per-transfer :class:`Process`/generator-frame overhead
        is gone (one transfer per simulated message copy makes this one
        of the hottest allocation sites in the simulator).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        engine = self.engine
        done = Event(engine, self._xfer_name)

        def finished(_ev: Event) -> None:
            self._slots.release()
            done.succeed(nbytes)

        def granted(ev: Event) -> None:
            duration = nbytes / self._stream_bw
            self.bytes_moved += nbytes
            self.busy_time += duration
            if duration > 0:
                # Fresh (or pooled-and-reset) pause events have no
                # callback list yet — install ours directly.
                engine.pause(duration).callbacks = [finished]
            else:
                finished(ev)

        def start() -> None:
            # The grant event was created by acquire() a moment ago: it
            # is pending or just-triggered, never processed, and has no
            # subscribers yet.
            self._slots.acquire().callbacks = [granted]

        engine._defer(start)
        return done

    @property
    def queued(self) -> int:
        """Transfers waiting for a slot."""
        return self._slots.queued

    @property
    def active(self) -> int:
        """Transfers currently in flight."""
        return self._slots.in_use


class TokenBucket:
    """Deterministic token-bucket rate limiter.

    Grants *tokens* at a fixed ``rate`` with burst capacity ``capacity``.
    Used for modelling NIC injection-rate limits on small messages.
    """

    def __init__(
        self,
        engine: Engine,
        rate: float,
        capacity: float,
        name: str = "bucket",
    ):
        if rate <= 0 or capacity <= 0:
            raise ValueError("rate and capacity must be positive")
        self.engine = engine
        self.rate = float(rate)
        self.capacity = float(capacity)
        self.name = name
        self._take_name = name + ".take"
        self._tokens = float(capacity)
        self._last = 0.0
        self._queue_release_time = 0.0

    def _refill(self) -> None:
        now = self.engine.now
        self._tokens = min(
            self.capacity, self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    def take(self, amount: float = 1.0) -> Event:
        """Consume *amount* tokens, waiting for refill if necessary."""
        if amount <= 0 or amount > self.capacity:
            raise ValueError(f"take({amount}) invalid for capacity {self.capacity}")

        def _take():
            self._refill()
            if self._tokens >= amount:
                self._tokens -= amount
                return 0.0
            deficit = amount - self._tokens
            self._tokens = 0.0
            wait = deficit / self.rate
            # Serialize queued takers deterministically.
            start = max(self.engine.now, self._queue_release_time)
            release = start + wait
            self._queue_release_time = release
            yield self.engine.pause(release - self.engine.now)
            self._last = self.engine.now
            return wait

        return Process(self.engine, _take(), self._take_name)
