"""A replay hit builds no live body.

A collective hands the replay session the recipe of its body —
``Comm._timed`` over the ``run_*`` function, or the ``hy_*`` function
and its arguments — and the session builds it only where the dispatch
runs live.  So in an aligned OSU loop the bodies built are those of the
live dispatches (the warm-up, and a shape's first occurrence where it
is not the warm-up), one per rank each, however many repetitions hit;
and the profiles the hits add without a body equal replay-off's, rank
by rank.  Under ``REPRO_REPLAY_VERIFY`` each hit builds exactly one
body per rank, the live execution its record is compared with.
"""

from __future__ import annotations

import pytest

import repro.core.allgather
import repro.core.hierarchy
from repro.bench.osu import hybrid_allgather_program, pure_allgather_program
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi.collectives import replay as replaylib
from repro.mpi.comm import Comm
from repro.mpi.runtime import MPIJob

REPS = 8

CASES = {
    "pure-allgather": (
        pure_allgather_program, Placement.block(3, 4), {}, "allgather"),
    "pure-allgatherv-irregular": (
        pure_allgather_program, Placement.irregular((5, 3, 4)),
        {"irregular": True}, "allgatherv"),
    "hybrid-allgather": (
        hybrid_allgather_program, Placement.block(3, 4), {}, "hy_allgather"),
}


def _job(case, replay):
    program, placement, kwargs, _op = CASES[case]
    replaylib.clear_cache()
    job = MPIJob(
        hazel_hen(len(placement.counts())), program, placement=placement,
        payload="cost-only", replay=replay,
        program_kwargs={"nbytes_per_rank": 512, "reps": REPS, **kwargs},
    )
    return job, job.run()


@pytest.fixture()
def built(monkeypatch):
    """Bodies built per operation: ``Comm._timed`` calls by op name, and
    ``hy_allgather`` constructions."""
    counts: dict[str, int] = {}
    timed = Comm._timed

    def counted_timed(self, op, *rest):
        counts[op] = counts.get(op, 0) + 1
        return timed(self, op, *rest)

    monkeypatch.setattr(Comm, "_timed", counted_timed)
    hy_allgather = repro.core.allgather.hy_allgather

    def counted_hy_allgather(*args, **kwargs):
        counts["hy_allgather"] = counts.get("hy_allgather", 0) + 1
        return hy_allgather(*args, **kwargs)

    for module in (repro.core.allgather, repro.core.hierarchy):
        monkeypatch.setattr(module, "hy_allgather", counted_hy_allgather,
                            raising=False)
    return counts


@pytest.mark.parametrize("case", list(CASES))
def test_a_hit_builds_no_body(case, built):
    op = CASES[case][3]
    job, result = _job(case, "loop")
    ranks = len(job.contexts)
    live = result.replay_misses
    # The warm-up, recorded where it ran: every repetition is a hit.
    assert (live, result.replay_hits) == (1, REPS)
    # Under REPRO_REPLAY_VERIFY a hit is also executed live on purpose,
    # to be compared with its record: exactly one body per rank each.
    executed = live + (result.replay_hits if job.replay.verify else 0)
    assert built[op] == executed * ranks
    built.clear()
    off_job, _ = _job(case, False)
    assert built[op] == (REPS + 1) * ranks
    assert [ctx.profile.summary() for ctx in job.contexts] == [
        ctx.profile.summary() for ctx in off_job.contexts
    ]
