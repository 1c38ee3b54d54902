"""A replay hit builds no live body.

A collective hands the replay session the recipe of its body — its
``run_*`` dispatch coroutine's function and arguments, or the ``hy_*``
function and its — and the session builds it only where the dispatch
runs live; the call's payload is sized in that body, so a hit sizes
nothing either.  So in an aligned OSU loop the bodies built are those of the
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
from repro.mpi import collectives
from repro.mpi import comm as commlib
from repro.mpi.collectives import replay as replaylib
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
    """Bodies built per operation: the ``run_*`` dispatch coroutines of
    ``Comm``'s collectives by op, and ``hy_allgather`` constructions."""
    counts: dict[str, int] = {}

    def counting(op, fn):
        def counted(*args, **kwargs):
            counts[op] = counts.get(op, 0) + 1
            return fn(*args, **kwargs)

        return counted

    for op in ("allgather", "allgatherv"):
        name = f"run_{op}"
        monkeypatch.setattr(collectives, name,
                            counting(op, getattr(collectives, name)))
    counted_hy_allgather = counting("hy_allgather",
                                    repro.core.allgather.hy_allgather)
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


def test_a_hit_sizes_no_payload(monkeypatch):
    """An aligned 50-rep pure allgather loop sizes its payload in its
    live dispatches only, once per rank each: neither ``Comm`` nor the
    dispatch coroutine sizes it on a hit."""
    sized = [0]

    def counted(nbytes_of):
        def nbytes(payload):
            sized[0] += 1
            return nbytes_of(payload)

        return nbytes

    for module in (commlib, collectives):
        monkeypatch.setattr(module, "nbytes_of", counted(module.nbytes_of))
    replaylib.clear_cache()
    job = MPIJob(
        hazel_hen(3), pure_allgather_program, placement=Placement.block(3, 4),
        payload="cost-only", replay="loop",
        program_kwargs={"nbytes_per_rank": 512, "reps": 50},
    )
    result = job.run()
    assert (result.replay_misses, result.replay_hits) == (1, 50)
    live = 1 + (result.replay_hits if job.replay.verify else 0)
    assert sized[0] == live * len(job.contexts)
