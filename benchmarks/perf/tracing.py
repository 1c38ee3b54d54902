"""The benchmark's own tracing: spans around calls into the program,
and a sampling profiler that bins the running frame by layer.

Both live entirely in the benchmark — nothing in ``repro`` is patched.
Spans are recorded at the call sites in ``workloads.py`` (every public
call an item makes goes through :meth:`Recorder.call`), kept in memory,
and exported as a Chrome trace when the run ends.  Spans *inside* the
program are a later change.

End-to-end numbers never come from a traced pass: ``--trace 0`` runs
with a disabled recorder, whose ``call`` is a plain function call.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from contextlib import contextmanager

__all__ = ["Recorder", "Sampler", "BINS", "bin_of", "self_times",
           "to_chrome"]


class Recorder:
    """In-memory span log: ``(name, start, end, parent, pass_id)``."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "pass": self.pass_id}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span when recording."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the part its children cover."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] += rec["end"] - rec["start"]
    return [rec["end"] - rec["start"] - covered[i]
            for i, rec in enumerate(spans)]


def to_chrome(spans: list[dict]) -> dict:
    """The span log as a ``chrome://tracing`` / Perfetto document."""
    t0 = spans[0]["start"] if spans else 0.0
    selfs = self_times(spans)
    return {"displayTimeUnit": "ms", "traceEvents": [
        {"name": rec["name"], "ph": "X", "pid": 0, "tid": 0,
         "ts": (rec["start"] - t0) * 1e6,
         "dur": (rec["end"] - rec["start"]) * 1e6,
         "args": {"pass": rec["pass"], "parent": rec["parent"],
                  "self_us": selfs[i] * 1e6}}
        for i, rec in enumerate(spans)
    ]}


# ---------------------------------------------------------------------------
# Sampling profiler
# ---------------------------------------------------------------------------

#: Layer bins, in report order.  ``other`` is everything with no
#: ``repro`` frame on the stack: the harness itself and the stdlib's
#: HTTP client/server plumbing.
BINS = ("engine", "resources", "machine", "p2p", "comm_runtime",
        "collectives", "replay", "core", "trace", "apps", "model",
        "sweep_service", "other")

# Longest prefix wins.
_PREFIXES = (
    ("repro.simulator.engine", "engine"),
    ("repro.simulator.resources", "resources"),
    ("repro.simulator", "engine"),
    ("repro.machine", "machine"),
    ("repro.mpi.p2p", "p2p"),
    ("repro.mpi.collectives.replay", "replay"),
    ("repro.mpi.collectives", "collectives"),
    ("repro.mpi", "comm_runtime"),
    ("repro.core", "core"),
    ("repro.trace", "trace"),
    ("repro.metrics", "trace"),
    ("repro.analysis.critical_path", "trace"),
    ("repro.analysis.model", "model"),
    ("repro.analysis", "model"),
    ("repro.apps", "apps"),
    ("repro.bench.sweep", "sweep_service"),
    ("repro.bench.service", "sweep_service"),
    ("repro.bench.model", "sweep_service"),
    ("repro.bench", "apps"),  # rank programs: osu, overlap, observe
)


def bin_of(module: str) -> str | None:
    """The layer bin of a module name, or None outside ``repro``."""
    if not module.startswith("repro"):
        return None
    for prefix, name in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return name
    return "other"


def _bin_of_stack(frame) -> str | None:
    """Bin of the innermost ``repro`` frame at or above *frame*: stdlib
    and NumPy callees are charged to the layer that called them."""
    while frame is not None:
        name = bin_of(frame.f_globals.get("__name__", ""))
        if name is not None:
            return name
        frame = frame.f_back
    return None


class Sampler:
    """``ITIMER_PROF`` sampler: every *interval* seconds of process CPU
    time, bin the running frame by module.

    The handler runs in the main thread.  When the main thread holds no
    ``repro`` frame (it is blocked in the HTTP client while the server
    thread works) the other threads' stacks are consulted, so work done
    for a request is charged to the layer doing it.  Only samples taken
    while :attr:`active` count — the calibration kernel between items
    is not part of the workload.
    """

    def __init__(self, interval: float = 0.002):
        self.interval = interval
        self.counts = dict.fromkeys(BINS, 0)
        self.active = False
        self._previous = None

    def _on_tick(self, _signum, frame) -> None:
        if not self.active:
            return
        name = _bin_of_stack(frame)
        if name is None:
            me = threading.get_ident()
            for ident, other in sys._current_frames().items():
                if ident != me:
                    name = _bin_of_stack(other)
                    if name is not None:
                        break
        self.counts[name or "other"] += 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def shares(self) -> dict[str, float]:
        """Fraction of samples per bin (sums to 1)."""
        total = sum(self.counts.values())
        if total == 0:
            raise RuntimeError("sampler saw no samples: pass too short "
                               "or ITIMER_PROF unavailable")
        return {name: n / total for name, n in self.counts.items()}
