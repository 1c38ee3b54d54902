"""Replay telemetry: why a decided dispatch ran live.

The session decides every world dispatch once, for all its ranks, and
counts the decision once (``cache_stats()``, and so the sweep service's
``/stats``): a hit — ``lane_hits`` of them taken by the lane, without
building a key — or a live run for one reason of
:data:`~repro.mpi.collectives.replay.LIVE_REASONS`.  The first program
below reaches every reason but one between its two modes, and a program
whose ranks rotate their entry order reaches that one — a later
occurrence whose key has no record yet; the counts are exact, so a
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


def repeated(mpi):
    """One allgather shape, entered in one rank order each time."""
    comm = mpi.world
    for _ in range(6):
        yield from comm.align()
        yield from comm.allgather(Bytes(512))
    yield from comm.align()


def rotating(mpi):
    """One allgather shape, entered in a rotated rank order each time:
    every repetition has a key of its own, so each one looks up a record
    that is not cached yet."""
    comm = mpi.world
    for i in range(6):
        yield from comm.align()
        # Zero-time yields order the ranks' entries within the timestep.
        for _ in range((comm.rank - i) % comm.size):
            yield mpi.compute(0.0)
        yield from comm.allgather(Bytes(512))
    yield from comm.align()


def _deltas(replay, program=every_reason):
    replaylib.clear_cache()
    before = replaylib.cache_stats()
    job = MPIJob(
        hazel_hen(NODES), program,
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
                 "first_occurrence": 3, "unrecorded": 0, "non_uniform": 0},
    }),
    # Default mode applies only records whose ranks exit together; these
    # shapes' do not, so every repetition runs live for want of one.
    (True, {
        "hits": 0, "misses": 9, "lane_hits": 0,
        "live": {"staggered": 1, "not_quiescent": 2, "unsigned": 1,
                 "first_occurrence": 3, "unrecorded": 0, "non_uniform": 6},
    }),
], ids=["loop", "default"])
def test_every_decided_dispatch_is_counted_once(replay, expected):
    result, counts = _deltas(replay)
    assert counts == expected
    live = counts["live"]
    assert counts["hits"] + sum(live.values()) == DISPATCHES
    assert counts["misses"] == (
        live["first_occurrence"] + live["unrecorded"] + live["non_uniform"]
    )
    # The job's own counters agree with the process-global ones.
    assert (result.replay_hits, result.replay_misses) == (
        counts["hits"], counts["misses"]
    )


@pytest.mark.parametrize("program, cause", [
    # Recorded where its first occurrence runs; its ranks exit apart.
    (repeated, "non_uniform"),
    # Each rotated key is recorded where its occurrence runs.
    (rotating, "unrecorded"),
], ids=["non_uniform", "unrecorded"])
def test_default_mode_names_each_miss_by_cause(program, cause):
    _result, counts = _deltas(True, program)
    live = dict.fromkeys(replaylib.LIVE_REASONS, 0)
    live.update({"first_occurrence": 1, cause: 5})
    assert counts == {"hits": 0, "misses": 6, "lane_hits": 0, "live": live}


def back_to_back(mpi):
    """Allgathers with no align between them: the ranks that leave one
    run ahead into the next while the window on the first is open."""
    comm = mpi.world
    for _ in range(6):
        yield from comm.allgather(Bytes(512))


@pytest.mark.parametrize("replay", ["loop", True], ids=["loop", "default"])
def test_a_dispatch_entered_inside_a_window_is_counted(replay):
    _result, counts = _deltas(replay, back_to_back)
    live = dict.fromkeys(replaylib.LIVE_REASONS, 0)
    live.update({"first_occurrence": 1, "staggered": 5})
    assert counts == {"hits": 0, "misses": 1, "lane_hits": 0, "live": live}


def gated(mpi):
    """Irregular allgathers behind their size gate: one with rank 0
    entering a timestep late, then three back to back.  The early ranks
    wait for the gate, so every occurrence is decided where it fires,
    with all ranks in: none is staggered.  A rank waiting at the next
    gate is not parked yet, so the windows on the back-to-back ones
    close unaligned, and those run live for want of a record."""
    comm = mpi.world
    for i in range(4):
        yield from comm.align()
        if comm.rank == 0 and i == 2:
            yield mpi.compute(1e-6)
        yield from comm.allgatherv(Bytes(256 + comm.rank))
    for _ in range(3):
        yield from comm.allgatherv(Bytes(256 + comm.rank))
    yield from comm.align()


@pytest.mark.parametrize("replay, expected", [
    ("loop", {"hits": 2, "misses": 5, "lane_hits": 1,
              "live": {"first_occurrence": 1, "unrecorded": 4}}),
    (True, {"hits": 0, "misses": 7, "lane_hits": 0,
            "live": {"first_occurrence": 1, "unrecorded": 4,
                     "non_uniform": 2}}),
], ids=["loop", "default"])
def test_a_gated_dispatch_is_decided_where_its_gate_fires(replay, expected):
    _result, counts = _deltas(replay, gated)
    live = dict.fromkeys(replaylib.LIVE_REASONS, 0)
    live.update(expected["live"])
    assert counts == dict(expected, live=live)


def test_cache_stats_copy_the_live_reasons():
    stats = replaylib.cache_stats()
    assert list(stats["live"]) == list(replaylib.LIVE_REASONS)
    stats["live"]["staggered"] += 1
    assert replaylib.cache_stats()["live"]["staggered"] == (
        stats["live"]["staggered"] - 1
    )

