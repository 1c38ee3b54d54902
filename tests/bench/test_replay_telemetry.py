"""Replay telemetry: why a decided dispatch ran live.

The session decides every world dispatch once, for all its ranks, and
counts the decision once (``cache_stats()``, and so the sweep service's
``/stats``): a hit — ``lane_hits`` of them taken by the lane, without
building a key — or a live run for one reason of
:data:`~repro.mpi.collectives.replay.LIVE_REASONS`.  The program below
reaches every reason between its two modes; the counts are exact, so a
per-rank count or a dispatch counted twice fails here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi.collectives import replay as replaylib
from repro.mpi.constants import ReduceOp
from repro.mpi.datatypes import Bytes
from repro.mpi.runtime import MPIJob

NODES, PPN = 3, 4

#: World dispatches :func:`every_reason` issues, each decided once.
DISPATCHES = 13


def every_reason(mpi):
    comm = mpi.world
    small, big = Bytes(512), Bytes(2048)
    # Two shapes in turn: each one's first occurrence, then hits — by
    # the lane where a shape repeats the last one, by key where not.
    for i in range(6):
        yield from comm.align()
        yield from comm.allgather(small if i % 3 else big)
    # Rank 0 enters a timestep late: staggered.
    yield from comm.align()
    if comm.rank == 0:
        yield mpi.compute(1e-6)
    yield from comm.allgather(small)
    # An outstanding ibarrier: its own dispatch and the allgather beside
    # it are not quiescent.
    yield from comm.align()
    req = comm.ibarrier()
    yield from comm.allgather(small)
    yield from req.wait()
    # A real array has no signature.
    yield from comm.align()
    yield from comm.allreduce(np.zeros(8), ReduceOp.SUM)
    # A third shape: a first occurrence, then lane hits.
    for _ in range(3):
        yield from comm.align()
        yield from comm.bcast(small, 0)
    yield from comm.align()


def _deltas(replay):
    replaylib.clear_cache()
    before = replaylib.cache_stats()
    job = MPIJob(
        hazel_hen(NODES), every_reason,
        placement=Placement.block(NODES, PPN),
        payload="cost-only", replay=replay,
    )
    result = job.run()
    after = replaylib.cache_stats()
    counts = {
        k: after[k] - before[k] for k in ("hits", "misses", "lane_hits")
    }
    counts["live"] = {
        reason: after["live"][reason] - before["live"][reason]
        for reason in replaylib.LIVE_REASONS
    }
    return result, counts


@pytest.mark.parametrize("replay, expected", [
    # Loop mode records each first occurrence where it runs, so every
    # repetition after it is a hit: 2 lane + 2 keyed allgathers, 2 lane
    # bcasts.
    ("loop", {
        "hits": 6, "misses": 3, "lane_hits": 4,
        "live": {"staggered": 1, "not_quiescent": 2, "unsigned": 1,
                 "first_occurrence": 3, "no_record": 0},
    }),
    # Default mode applies only records whose ranks exit together; these
    # shapes' do not, so every repetition runs live for want of one.
    (True, {
        "hits": 0, "misses": 9, "lane_hits": 0,
        "live": {"staggered": 1, "not_quiescent": 2, "unsigned": 1,
                 "first_occurrence": 3, "no_record": 6},
    }),
], ids=["loop", "default"])
def test_every_decided_dispatch_is_counted_once(replay, expected):
    result, counts = _deltas(replay)
    assert counts == expected
    live = counts["live"]
    assert counts["hits"] + sum(live.values()) == DISPATCHES
    assert counts["misses"] == live["first_occurrence"] + live["no_record"]
    # The job's own counters agree with the process-global ones.
    assert (result.replay_hits, result.replay_misses) == (
        counts["hits"], counts["misses"]
    )


def test_cache_stats_copy_the_live_reasons():
    stats = replaylib.cache_stats()
    assert list(stats["live"]) == list(replaylib.LIVE_REASONS)
    stats["live"]["staggered"] += 1
    assert replaylib.cache_stats()["live"]["staggered"] == (
        stats["live"]["staggered"] - 1
    )

