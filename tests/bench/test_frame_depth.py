"""Frames a rank's resumes climb: the generator chain of a parked rank.

A resume passes through every generator frame between the rank's
process and the wait it parked on, so each delegating layer costs every
rank every resume.  The rank process drives the program's coroutine
itself, the blocking collectives of ``Comm`` and the ``HybridContext``
delegates return their dispatch coroutine instead of delegating to it,
and the OSU programs return ``osu_latency_program``'s: a replayed
repetition parks two frames deep, an irregular ``Comm.allgatherv`` too
(its ranks park at once instead of waiting on the size gate), and a
live collective stacks one dispatch frame — its ``run_*`` coroutine,
or the ``hy_*`` one — above its algorithm.  The chains are read by
walking ``gi_yieldfrom`` from each live rank's generator, so the checks
are exact, not timed; they hold with ``REPRO_REPLAY_VERIFY=1`` too,
where every hit runs live.
"""

from __future__ import annotations

import pytest

from repro.bench import osu
from repro.core import HybridContext
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


def live_chains(nodes: int, ppn: int, program) -> set[tuple[str, ...]]:
    """Every chain a rank of *program* parks in, replay off, sampled at
    each advance of virtual time."""
    job = MPIJob(hazel_hen(nodes), program,
                 placement=Placement.block(nodes, ppn), payload="cost-only",
                 replay=False)
    eng = job.engine
    seen: list[set] = []

    def sample():
        seen.append(parked_chains(eng))
        # Re-armed after the next entry: an advance hook that re-arms
        # itself at once would fire again before time moves.
        eng.after_entry(lambda: eng.on_time_advance(sample))

    eng.on_time_advance(sample)
    job.run()
    return set().union(*seen)


def bcast_program(mpi):
    yield from mpi.world.bcast(Bytes(4096), root=0)


def test_a_live_bcast_parks_below_the_profiler():
    # The dispatch frame profiles the call itself: its algorithm (the
    # two-level broadcast at 2x4) is the next frame down.
    chains = live_chains(2, 4, bcast_program)
    assert {names[:2] for names in chains} == {("bcast_program",
                                                "run_bcast")}
    assert {names[2] for names in chains if len(names) > 2} == {
        "hier_bcast"}


def barrier_program(mpi):
    yield from mpi.world.barrier()


def hybrid_program(mpi):
    ctx = yield from HybridContext.create(mpi.world)
    buf = yield from ctx.allgather_buffer(256)
    yield from ctx.allgather(buf)


@pytest.mark.parametrize("program, nodes, expected", [
    (barrier_program, 1, {
        ("barrier_program", "run_barrier", "barrier_shm_flags")}),
    (barrier_program, 2, {
        ("barrier_program", "run_barrier", "_run_barrier_smp",
         "barrier_shm_flags"),
        ("barrier_program", "run_barrier", "_run_barrier_smp",
         "barrier_dissemination")}),
    # One node: hy_allgather's one sync is the node barrier, which
    # stacks its own dispatch frame and algorithm below it.
    (hybrid_program, 1, {
        ("hybrid_program", "hy_allgather", "run_barrier",
         "barrier_shm_flags")}),
], ids=["barrier-1node", "barrier-2node", "hy_allgather-1node"])
def test_a_live_dispatch_stacks_one_frame_above_its_algorithm(
        program, nodes, expected):
    dispatch = next(iter(expected))[1]
    chains = {names for names in live_chains(nodes, 4, program)
              if dispatch in names}
    assert chains == expected
