"""Calibrated seconds: host time divided by a fixed kernel's time.

The box this benchmark runs on changes speed under it: identical work
swings ±20 % between consecutive seconds, in steps that last from
milliseconds to minutes, and CPU time swings with it.  No order
statistic of raw seconds survives that.  What does repeat is the
*ratio* of an item's time to a fixed piece of interpreter work run
immediately before and after it — the calibration :func:`kernel`.

    item_cal_s = item_raw_s * CAL_NOMINAL_S / mean(calib_before, calib_after)

so a value reads as "seconds at nominal machine speed".  The kernel is
frozen: it must never import the program under test, or an optimisation
would cancel out of its own measurement.

Limits: the ratio only repeats to the extent the kernel slows down the
way the measured code does.  The kernel has the simulator's instruction
mix (heap of tuples, slotted objects, generator resumes, dict updates);
a cache-missing table walk was tried as a third phase and made every
simulation workload repeat worse.  File-system and import time follow
the kernel less well, which is why ``setup_s`` is bracketed stage by
stage and ``model_service`` keeps its file creations few.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

__all__ = ["CAL_NOMINAL_S", "NOISE_LIMIT", "Clock", "kernel", "sample",
           "calibrated", "pass_seconds", "spread"]

#: The kernel's time on the class of machine the committed numbers were
#: taken on (median of the quiet state of the 2-core VM).  A constant,
#: so calibrated values stay comparable across runs and commits.
CAL_NOMINAL_S = 0.030

#: Interquartile range / median of a run's kernel samples above which
#: the run is flagged ``noise_flag`` (reported, never a failure).
NOISE_LIMIT = 0.35

class _Node:
    __slots__ = ("t", "k", "nxt")

    def __init__(self, t, k, nxt):
        self.t = t
        self.k = k
        self.nxt = nxt


class _Ev:
    __slots__ = ("state", "value", "callbacks")

    def __init__(self):
        self.state = 0
        self.value = None
        self.callbacks = None


def _accumulate(n):
    acc = 0
    for i in range(n):
        acc += (yield i)
    return acc


def _rank(rank, nranks, steps, traffic, done):
    now = 0.0
    for s in range(steps):
        key = (rank, (rank + (1 << (s % 7))) % nranks)
        traffic[key] = traffic.get(key, 0) + 64 * s
        ev = _Ev()
        ev.callbacks = [done]
        now = yield (0.25 + ((rank * 31 + s * 17) % 13) * 0.125, ev)
    return now


def _heap_phase(n=12000):
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    counts: dict = {}
    gen = _accumulate(n)
    next(gen)
    node = None
    for i in range(n):
        push(heap, ((i * 7919) % 1013 * 0.5, i, i))
        node = _Node(i, i, node if i & 7 else None)
        if i & 1:
            _t, s, v = pop(heap)
            counts[v & 255] = counts.get(v & 255, 0) + s
        try:
            gen.send(i)
        except StopIteration:
            break
    while heap:
        pop(heap)
    return len(counts)


def _des_phase(nranks=192, steps=60):
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    traffic: dict = {}
    fired: list = []
    done = fired.append
    seq = 0
    for r in range(nranks):
        gen = _rank(r, nranks, steps, traffic, done)
        delay, ev = next(gen)
        seq += 1
        push(heap, (delay, seq, ev, gen))
    while heap:
        t, _s, ev, gen = pop(heap)
        ev.state = 2
        callbacks, ev.callbacks = ev.callbacks, None
        for fn in callbacks:
            fn(ev)
        try:
            delay, nxt = gen.send(t)
        except StopIteration:
            continue
        seq += 1
        push(heap, (t + delay, seq, nxt, gen))
    return len(fired)


def kernel() -> int:
    """One run of the fixed calibration work (~30 ms)."""
    return _heap_phase() + _des_phase()


def sample() -> float:
    """Seconds one kernel run took, now.

    The collector is paused for the sample: the kernel allocates, and a
    full collection landing inside it would charge the sample for the
    whole heap of whatever ran before — up to +50 % on a 28 ms sample,
    depending on item order.  (The program's own GC policy is not
    touched; the previous state is restored.)
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def calibrated(raw_s: float, before_s: float, after_s: float) -> float:
    """*raw_s* in seconds at nominal machine speed, given the kernel
    samples taken immediately before and after it."""
    return raw_s * CAL_NOMINAL_S * 2.0 / (before_s + after_s)


def pass_seconds(passes: list[list[float]]) -> float:
    """A typical pass: for every item position, the median over the
    passes of its calibrated seconds; summed.  (A per-item median
    rejects a disturbed item without discarding the rest of its pass.)
    """
    return sum(statistics.median(col) for col in zip(*passes))


def spread(samples: list[float]) -> float:
    """Interquartile range of *samples* as a share of their median."""
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


class Clock:
    """Times callables in calibrated seconds.

    The kernel sample taken after one measurement doubles as the one
    before the next, unless something untimed ran in between for longer
    than a few milliseconds — then the bracket is refreshed.  Every
    sample is kept for the run's ``info`` block.
    """

    #: Longest gap (seconds) across which a kernel sample is reused.
    MAX_GAP = 0.005

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0
        self._last_end = float("-inf")

    def _sample(self) -> float:
        self._last = sample()
        self._last_end = time.perf_counter()
        self.samples.append(self._last)
        return self._last

    def time(self, fn, *args, **kwargs):
        """``(raw_s, calibrated_s, fn's result)``."""
        before = self._last
        if time.perf_counter() - self._last_end > self.MAX_GAP:
            before = self._sample()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        return raw, calibrated(raw, before, self._sample()), result

    def median(self, fn, repeats: int = 5) -> float:
        """Median calibrated seconds of *repeats* calls of *fn*."""
        return statistics.median(self.time(fn)[1] for _ in range(repeats))
