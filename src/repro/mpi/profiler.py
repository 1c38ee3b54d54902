"""Per-rank communication profiling (PMPI-style interposition).

Every collective — blocking or non-blocking — records into the rank's
:class:`CommProfile` from its dispatch coroutine (the ``run_*`` bodies
of :mod:`repro.mpi.collectives`, and ``HybridContext``'s non-blocking
hybrid calls); :func:`aggregate_profiles` merges the per-rank
records into a job-wide summary.  The applications use this to report
the communication fraction of their runtime (the quantity the paper's
Figs 11-12 ratios are made of).

Per-op byte conventions (what one call charges on one rank):

=====================  ====================================================
op                     bytes recorded
=====================  ====================================================
barrier / ibarrier     0
bcast / ibcast         message size (same on every rank, as MPI requires)
reduce, allreduce,
scan, exscan,
reduce_scatter         local contribution size
gather / gatherv       this rank's sent contribution
scatter                root: total payload list size; non-roots: 0
allgather/iallgather   ``local_size * comm_size`` (full result, regular)
allgatherv             agreed **sum of actual per-rank sizes** — differs
                       from ``local * size`` exactly when irregular
alltoall               this rank's total send volume (sum over peers)
=====================  ====================================================

Non-blocking collectives record under their own ``i``-prefixed op names;
their time is the issue-to-completion span of the background proc.

The dispatch spans of the trace layer (:mod:`repro.trace`) carry the
same byte conventions — ``repro.trace.summarize`` totals and the
profiler's per-op byte sums agree for every regular collective, which
the test suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OpStats", "CommProfile", "aggregate_profiles"]


@dataclass(slots=True)
class OpStats:
    """Accumulated statistics of one operation type."""

    calls: int = 0
    bytes: float = 0.0
    time: float = 0.0

    def merged(self, other: "OpStats") -> "OpStats":
        return OpStats(
            calls=self.calls + other.calls,
            bytes=self.bytes + other.bytes,
            time=max(self.time, other.time),  # critical-path convention
        )


class CommProfile:
    """One rank's communication ledger."""

    __slots__ = ("ops", "enabled")

    def __init__(self, enabled: bool = True):
        self.ops: dict[str, OpStats] = {}
        self.enabled = enabled

    def record(self, op: str, nbytes: float, seconds: float) -> None:
        """Add one completed operation."""
        if not self.enabled:
            return
        stats = self.ops.get(op)
        if stats is None:
            stats = self.ops[op] = OpStats()
        stats.calls += 1
        stats.bytes += nbytes
        stats.time += seconds

    @property
    def total_time(self) -> float:
        """Total time across all recorded operations."""
        return sum(s.time for s in self.ops.values())

    @property
    def total_calls(self) -> int:
        """Total operation count."""
        return sum(s.calls for s in self.ops.values())

    def summary(self) -> dict[str, dict]:
        """Plain-dict rendering for reports."""
        return {
            op: {"calls": s.calls, "bytes": s.bytes, "time": s.time}
            for op, s in sorted(self.ops.items())
        }

    def __repr__(self) -> str:
        return (
            f"CommProfile(ops={len(self.ops)}, calls={self.total_calls}, "
            f"time={self.total_time:.3e}s)"
        )


def aggregate_profiles(profiles: list[CommProfile]) -> dict[str, OpStats]:
    """Merge per-rank profiles: calls/bytes summed, time = max over ranks
    (the critical-path convention for synchronizing collectives)."""
    merged: dict[str, OpStats] = {}
    for profile in profiles:
        for op, stats in profile.ops.items():
            if op in merged:
                merged[op] = merged[op].merged(stats)
            else:
                merged[op] = OpStats(stats.calls, stats.bytes, stats.time)
    return merged
