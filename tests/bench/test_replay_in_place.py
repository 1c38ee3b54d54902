"""Recording in place: a miss is measured where it runs.

The first aligned, quiescent occurrence of a dispatch shape whose key
has no record becomes its record, measured in the live job by the same
window verify uses; where that occurrence cannot stand for the dispatch
alone, it stays live and the next occurrence tries again — unless the
window closed on work the program does beside the dispatch, which it
does again: that key is not measured again in the job.  Each program
here hits one hazard of that measurement, runs bit-identical to
``replay=False``, and pins what came of it — the hits, the records made
in place, and the vetoes that kept occurrences live
(``cache_stats()["inplace_vetoes"]``).  The last tests check that verify
compares the whole record, ``events`` included.
"""

from __future__ import annotations

import pytest

from repro.bench.osu import hybrid_allgather_program
from repro.core import HybridContext
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi.collectives import replay as replaylib
from repro.mpi.constants import ReduceOp
from repro.mpi.datatypes import Bytes
from repro.mpi.runtime import MPIJob
from tests.helpers import assert_same_run

REPS = 5


def _job(program, replay, nodes=3, ppn=4):
    replaylib.clear_cache()
    return MPIJob(
        hazel_hen(nodes), program,
        placement=Placement.block(nodes, ppn),
        payload="cost-only", trace="p2p", replay=replay,
    ).run()


def _loop(mpi, issue, reps=REPS, after=None):
    """Align-delimited repetitions of ``issue()``; *after(result)* runs
    between a repetition's end and the next align."""
    out = []
    for _ in range(reps):
        yield from mpi.world.align()
        t0 = mpi.now
        result = yield from issue()
        out.append((mpi.now - t0, repr(result)))
        if after is not None:
            step = after(result)
            if step is not None:
                yield from step
    return out


def mutated_result(mpi):
    """The program writes into the list an allgather returned: the
    record must hold a private copy, or later hits return the write."""
    comm = mpi.world

    def scribble(result):
        result[comm.rank] = Bytes(1)

    return (yield from _loop(
        mpi, lambda: comm.allgather(Bytes(96)), after=scribble
    ))


def single_node_hybrid(mpi):
    """A one-node hy_allgather synchronises through a barrier on the
    world's ranks — a world dispatch nested in the measured one, which
    parks and runs live inside its window."""
    hctx = yield from HybridContext.create(mpi.world)
    buf = yield from hctx.allgather_buffer(64)
    return (yield from _loop(mpi, lambda: hctx.allgather(buf)))


def profiles_off(mpi):
    """Odd ranks profile nothing: a record measured here would lack
    their increments, so every occurrence is vetoed and runs live."""
    comm = mpi.world
    mpi.profile.enabled = comm.rank % 2 == 0
    return (yield from _loop(mpi, lambda: comm.allgather(Bytes(512))))


def subcommunicator_after_align(mpi):
    """Right after the align that follows each world dispatch, a
    sub-communicator collective: the window closes at the last exit,
    before it."""
    comm = mpi.world
    sub = yield from comm.split(color=comm.rank % 2, key=comm.rank)

    def sub_allreduce(_result):
        yield from comm.align()
        yield from sub.allreduce(Bytes(64), ReduceOp.SUM)

    return (yield from _loop(
        mpi, lambda: comm.allgather(Bytes(512)), after=sub_allreduce
    ))


def hybrid_allreduce(mpi):
    """The first hy_allreduce allocates its scratch windows: a setup
    gate opens inside the window, so that run was warm, and the second
    occurrence is the record."""
    hctx = yield from HybridContext.create(mpi.world)
    return (yield from _loop(
        mpi, lambda: hctx.allreduce(Bytes(256), 256, ReduceOp.MAX)
    ))


def compute_before_align(delay):
    """Rank 0, the first to exit, computes before it aligns: still
    running at the last rank's exit (trailing work), or done by then but
    not waiting in the align right after its own exit (not aligned).
    It does so at every occurrence, so after the first window the key
    is not measured again, and none is recorded."""

    def program(mpi):
        comm = mpi.world

        def compute(_result):
            if comm.rank == 0:
                yield mpi.compute(delay)

        return (yield from _loop(
            mpi, lambda: comm.allgather(Bytes(96)), after=compute
        ))

    program.__name__ = f"compute_before_align_{delay:g}"
    return program


def entry_beside_the_align(mpi):
    """A rank schedules an entry of its own before it aligns; the
    barrier's ranks exit at one tick, so the entry is still queued at
    the close, beside the dispatch's own retiring message steps."""
    comm = mpi.world

    def stray(_result):
        if comm.rank == 5:
            mpi.engine.event().succeed()

    return (yield from _loop(mpi, comm.barrier, after=stray))


# program -> (nodes, ppn, hits, records in place, vetoes,
#             world dispatches parked per repetition)
CASES = {
    mutated_result: (3, 4, REPS - 1, 1, {}, 1),
    single_node_hybrid: (1, 8, REPS - 1, 1, {}, 2),
    profiles_off: (3, 4, 0, 0, {"profile_off": REPS}, 1),
    subcommunicator_after_align: (3, 4, REPS - 1, 1, {}, 1),
    hybrid_allreduce: (3, 4, REPS - 2, 1, {"setup_gate": 1}, 1),
    compute_before_align(1e-3): (3, 4, 0, 0, {"trailing_work": 1}, 1),
    compute_before_align(1e-12): (3, 4, 0, 0, {"not_aligned": 1}, 1),
    entry_beside_the_align: (3, 4, 0, 0, {"trailing_work": 1}, 1),
}


@pytest.mark.parametrize("program", CASES, ids=lambda p: p.__name__)
def test_hazard_is_bit_identical_and_counted(program, monkeypatch):
    """Besides the simulated outcome, the event accounting: every world
    dispatch that parked costs n release or wake entries replay-off
    execution does not have (a nested one parks inside the first
    repetition, and its entries are in the record a hit saves), and
    every hit saves exactly what its record says the dispatch costs."""
    monkeypatch.delenv("REPRO_REPLAY_VERIFY", raising=False)
    _check(program, "loop", *CASES[program])


def _check(program, replay, nodes, ppn, hits, in_place, vetoes, parks):
    off = _job(program, False, nodes, ppn)
    before = replaylib.cache_stats()
    on = _job(program, replay, nodes, ppn)
    after = replaylib.cache_stats()
    assert on.replay_hits == hits
    assert after["records"] - before["records"] == in_place
    assert {
        reason: n - before["inplace_vetoes"][reason]
        for reason, n in after["inplace_vetoes"].items()
    } == dict.fromkeys(replaylib.VETOES, 0) | vetoes
    assert on.events_processed + on.replay_events_saved == (
        off.events_processed + nodes * ppn * parks * REPS
    )
    assert_same_run(on, off)


@pytest.mark.parametrize("program", CASES, ids=lambda p: p.__name__)
def test_hazard_verifies_clean(program, monkeypatch):
    monkeypatch.setenv("REPRO_REPLAY_VERIFY", "1")
    nodes, ppn, hits, *_ = CASES[program]
    result = _job(program, "loop", nodes, ppn)
    assert result.replay_hits == hits


def back_to_back(mpi):
    """Barriers with no align between them: a rank that leaves one
    parks at the entry of the next, which waits as an align would.  The
    ranks leave the first in another order than they entered it, so the
    second is recorded too, and the rest are hits."""
    comm = mpi.world
    for _ in range(REPS):
        yield from comm.barrier()


def compute_between(mpi):
    """Every rank computes between its barriers: still computing at the
    last rank's exit, so a window does not stand for the barrier alone,
    its key is not measured again, and none is recorded."""
    comm = mpi.world
    for _ in range(REPS):
        yield mpi.compute(1e-6)
        yield from comm.barrier()


# program -> (hits, records in place, vetoes), in either mode
WITHOUT_ALIGN = {
    back_to_back: (REPS - 2, 2, {}),
    # One window per arrival order: the first, and the ranks' exit order.
    compute_between: (0, 0, {"trailing_work": 2}),
}


@pytest.mark.parametrize("replay", ["loop", True], ids=["loop", "default"])
@pytest.mark.parametrize("program", WITHOUT_ALIGN, ids=lambda p: p.__name__)
def test_a_program_without_aligns(program, replay, monkeypatch):
    """Default mode records and applies uniform-exit records where the
    ranks go straight from one world collective into the next; a rank
    that does anything else first keeps every occurrence live, in
    either mode."""
    monkeypatch.delenv("REPRO_REPLAY_VERIFY", raising=False)
    _check(program, replay, 3, 4, *WITHOUT_ALIGN[program], 1)
    monkeypatch.setenv("REPRO_REPLAY_VERIFY", "1")
    result = _job(program, replay)
    assert result.replay_hits == WITHOUT_ALIGN[program][0]


def _one_node_osu_stats(monkeypatch, verify: str) -> tuple[dict, dict]:
    monkeypatch.setenv("REPRO_REPLAY_VERIFY", verify)
    replaylib.clear_cache()
    before = replaylib.cache_stats()
    MPIJob(
        hazel_hen(1), hybrid_allgather_program,
        placement=Placement.block(1, 8), payload="cost-only",
        replay="loop",
        program_kwargs={"nbytes_per_rank": 64, "reps": 3, "warmup": 1},
    ).run()
    return before, replaylib.cache_stats()


def _is_part_of_the_window(before: dict, after: dict) -> None:
    assert [key[1] for key in replaylib._CACHE] == ["hy_allgather"]
    assert after["records"] - before["records"] == 1
    decided = after["hits"] - before["hits"] + sum(
        n - before["live"][reason] for reason, n in after["live"].items()
    )
    assert decided == 1 + 3  # the warm-up and the repetitions


def test_a_first_occurrence_inside_a_window_is_not_recorded(monkeypatch):
    """The barrier nested in a one-node hy_allgather runs live inside
    the window that records the hy_allgather: part of that dispatch, it
    is neither decided nor recorded on its own."""
    _is_part_of_the_window(*_one_node_osu_stats(monkeypatch, ""))


def test_a_dispatch_inside_a_verified_hit_is_not_recorded(monkeypatch):
    """Verify executes every hit live inside a window: the nested
    barrier runs there as it did in the recorded run."""
    _is_part_of_the_window(*_one_node_osu_stats(monkeypatch, "1"))


def test_a_new_arrival_order_is_recorded_in_place(monkeypatch):
    """Round-robin placement, as in the placement ablation: the ranks
    leave the first hybrid allgather in another order than they entered
    it, so the next occurrence arrives in a new order, a key without a
    record.  That occurrence is recorded where it runs, and the rest
    are hits."""
    monkeypatch.delenv("REPRO_REPLAY_VERIFY", raising=False)

    def run(replay):
        replaylib.clear_cache()
        return MPIJob(
            hazel_hen(2), hybrid_allgather_program,
            placement=Placement.round_robin(2, 4), payload="cost-only",
            trace="p2p", replay=replay,
            program_kwargs={"nbytes_per_rank": 512, "reps": 3, "warmup": 1},
        ).run()

    off = run(False)
    before = replaylib.cache_stats()
    on = run("loop")
    after = replaylib.cache_stats()
    assert after["records"] - before["records"] == 2
    assert on.replay_hits == 2
    assert after["live"]["unrecorded"] - before["live"]["unrecorded"] == 1
    assert_same_run(on, off)


def _pure(mpi):
    comm = mpi.world
    return (yield from _loop(mpi, lambda: comm.allgather(Bytes(4096))))


@pytest.mark.parametrize("field, what", [("events", "events")])
def test_verify_compares_the_whole_record(field, what, monkeypatch):
    """Verify measures a hit through the window that records and
    compares every field: a record that applies a wrong event count is
    caught, not trusted."""
    monkeypatch.delenv("REPRO_REPLAY_VERIFY", raising=False)
    _job(_pure, "loop")
    (rec,) = replaylib._CACHE.values()
    setattr(rec, field, getattr(rec, field) + 1)
    monkeypatch.setenv("REPRO_REPLAY_VERIFY", "1")
    job = MPIJob(
        hazel_hen(3), _pure, placement=Placement.block(3, 4),
        payload="cost-only", trace="p2p", replay="loop",
    )
    with pytest.raises(replaylib.ReplayVerifyError, match=what):
        job.run()


def test_cache_stats_copy_the_vetoes():
    stats = replaylib.cache_stats()
    stats["inplace_vetoes"]["setup_gate"] += 1
    assert replaylib.cache_stats()["inplace_vetoes"]["setup_gate"] == (
        stats["inplace_vetoes"]["setup_gate"] - 1
    )
