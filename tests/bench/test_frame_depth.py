"""Frames a rank's resumes climb: the generator chain of a parked rank.

A resume passes through every generator frame between the rank's
process and the wait it parked on, so each delegating layer costs every
rank every resume.  The rank process drives the program's coroutine
itself, the blocking collectives of ``Comm`` and the ``HybridContext``
delegates return their dispatch coroutine instead of delegating to it,
and the OSU programs return ``osu_latency_program``'s: a replayed
repetition parks two frames deep, an irregular ``Comm.allgatherv`` too
(its ranks park at once instead of waiting on the size gate), and a
live ``Comm.bcast`` starts at the profiler.  The chains are read by walking ``gi_yieldfrom`` from
each live rank's generator, so the checks are exact, not timed; they
hold with ``REPRO_REPLAY_VERIFY=1`` too, where every hit runs live.
"""

from __future__ import annotations

import pytest

from repro.bench import osu
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi import Bytes, MPIJob, run_program
from repro.mpi.collectives.replay import ReplaySession


def chain(gen) -> tuple[str, ...]:
    """Qualified names of the generator frames from *gen* down to the
    innermost one, which holds the rank's wait."""
    names = []
    while gen is not None:
        names.append(gen.gi_code.co_qualname)
        gen = gen.gi_yieldfrom
    return tuple(names)


def parked_chains(engine) -> set[tuple[str, ...]]:
    return {chain(proc.generator) for proc in engine._live_processes}


VARIANTS = {
    "pure": (osu.pure_allgather_program, Placement.block(2, 4), {}),
    "hybrid": (osu.hybrid_allgather_program, Placement.block(2, 4), {}),
    "irregular": (osu.pure_allgather_program, Placement.irregular((5, 3)),
                  {"irregular": True}),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_a_replayed_repetition_parks_two_frames_deep(variant, monkeypatch):
    seen: list[set] = []
    decide = ReplaySession._decide

    def spy(self, lane, seq):
        # Every rank has parked in the dispatch when it is decided.
        seen.append(parked_chains(self.engine))
        decide(self, lane, seq)

    monkeypatch.setattr(ReplaySession, "_decide", spy)
    program, placement, kwargs = VARIANTS[variant]
    result = run_program(
        hazel_hen(2), None, program, placement=placement,
        payload="cost-only", replay="loop",
        program_kwargs={"nbytes_per_rank": 256, "reps": 4, "warmup": 1,
                        **kwargs},
    )
    # The warm-up runs live (the shape's first occurrence) and every
    # repetition is a hit.
    assert result.replay_hits == 4
    assert len(seen) == 5
    assert set().union(*seen) == {
        ("osu_latency_program", "ReplaySession.run"),
    }


def bcast_program(mpi):
    yield from mpi.world.bcast(Bytes(4096), root=0)


def test_a_live_bcast_parks_below_the_profiler():
    job = MPIJob(hazel_hen(2), bcast_program,
                 placement=Placement.block(2, 4), payload="cost-only",
                 replay=False)
    seen: list[set] = []
    job.engine.on_time_advance(
        lambda: seen.append(parked_chains(job.engine)))
    job.run()
    (chains,) = seen
    assert len(chains) >= 1
    for names in chains:
        assert names[:3] == ("bcast_program", "Comm._timed", "run_bcast")
        assert "Comm.bcast" not in names
