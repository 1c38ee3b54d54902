"""Replay lanes: a repeated dispatch is recognised, not re-keyed.

The session remembers, per communicator, each rank's last call beside
its signature and the last decision it applied; a dispatch repeating
that decision takes its record without building a key
(:class:`repro.mpi.collectives.replay._Lane`).  Two things are pinned
here:

* *counts, not seconds* — signature encodings and key builds per job do
  not grow with the repetition count;
* the memo is invisible — programs built to defeat it (alternating
  operations, sizes that change and change back, a payload list mutated
  in place, sub-communicator dispatches in between, a permuted arrival
  order, a rank running ahead, a profile switched off and on, the cache
  cleared mid-job) are bit-identical to ``replay=False``, and pass
  verify mode, which cross-checks every lane-selected record against
  the one the full key selects.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.bench.osu import hybrid_allgather_program, pure_allgather_program
from repro.core import HybridContext
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi.collectives import replay as replaylib
from repro.mpi.constants import ReduceOp
from repro.mpi.datatypes import Bytes
from repro.mpi.runtime import MPIJob
from tests.helpers import assert_same_run

NODES, PPN = 4, 3
REPS = 12


def _job(program, replay, **kwargs):
    replaylib.clear_cache()
    return MPIJob(
        hazel_hen(NODES), program,
        placement=Placement.block(NODES, PPN),
        payload="cost-only", trace="p2p", replay=replay,
        program_kwargs=kwargs,
    ).run()


# ---------------------------------------------------------------------------
# (a) counts, not seconds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "program", [hybrid_allgather_program, pure_allgather_program],
    ids=["hybrid", "pure"],
)
def test_keying_work_does_not_grow_with_repetitions(program, monkeypatch):
    # Verify mode rebuilds the key on purpose, to cross-check the lane.
    monkeypatch.delenv("REPRO_REPLAY_VERIFY", raising=False)
    counts = {"call_signature": 0, "replay_key": 0}

    def counted(name):
        inner = getattr(replaylib, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(replaylib, name, wrapper)

    counted("call_signature")
    counted("replay_key")

    def run(reps):
        counts.update(call_signature=0, replay_key=0)
        result = _job(program, "loop", nbytes_per_rank=512, reps=reps)
        return dict(counts), result

    few, few_result = run(5)
    many, many_result = run(50)
    # The warm-up dispatch runs live; every timed repetition replays.
    assert (few_result.replay_hits, many_result.replay_hits) == (5, 50)
    # One encoding per rank and one key per job, however long the loop.
    assert few == many == {"call_signature": NODES * PPN, "replay_key": 1}


# ---------------------------------------------------------------------------
# (b) programs built to defeat the memo
# ---------------------------------------------------------------------------

def _loop(mpi, issue_of, reps=REPS, before=None):
    """Align-delimited repetitions of ``issue_of(i)()``; returns this
    rank's per-repetition ``(latency, result)`` list.  *before(i)* runs
    between the align and the dispatch (a coroutine is driven)."""
    out = []
    for i in range(reps):
        yield from mpi.world.align()
        step = before(i) if before is not None else None
        if step is not None:
            yield from step
        t0 = mpi.now
        result = yield from issue_of(i)()
        out.append((mpi.now - t0, result))
    return out


def alternating_ops(mpi):
    """Two operations with *equal* call tuples take turns, a third and a
    hybrid one cut in: the op is part of the decision, not of the memo."""
    comm = mpi.world
    hctx = yield from HybridContext.create(comm)
    buf = yield from hctx.allgather_buffer(256)
    payload = Bytes(256)

    def issue_of(i):
        if i % 5 == 3:
            return lambda: hctx.allgather(buf)
        if i % 4 == 2:
            return lambda: comm.bcast(payload, 5)
        return lambda: (comm.allgatherv if i % 2 else comm.allgather)(payload)

    return (yield from _loop(mpi, issue_of, reps=20))


def size_changes_and_changes_back(mpi):
    comm = mpi.world
    sizes = [256] * 4 + [1024] * 3 + [256] * 4 + [1024]
    return (yield from _loop(
        mpi, lambda i: lambda: comm.allgather(Bytes(sizes[i]))
    ))


def data_argument_in_between(mpi):
    """Some repetitions pass a real array where the memo holds a
    symbolic payload: comparing the two must veto, not raise."""
    comm = mpi.world
    symbolic, array = Bytes(256), np.zeros(32)

    return (yield from _loop(
        mpi,
        lambda i: lambda: comm.allreduce(
            array if 4 <= i < 7 else symbolic, ReduceOp.SUM),
    ))


def _mutated_list(op: str):
    """One list object, mutated in place and handed over again: the same
    object is *not* the same call (the shapes recur, so records are
    found — by key)."""

    def program(mpi):
        comm = mpi.world
        owner = op == "alltoall" or comm.rank == 2
        blocks = [Bytes(64)] * comm.size if owner else None

        def before(i):
            if owner:
                blocks[(comm.rank + 1) % comm.size] = Bytes(
                    64 if i % 4 < 2 else 4096
                )

        def issue():
            if op == "alltoall":
                return comm.alltoall(blocks)
            return comm.scatter(blocks, 2)

        return (yield from _loop(mpi, lambda i: issue, before=before))

    program.__name__ = f"mutated_{op}_list"
    return program


def subcommunicator_in_between(mpi):
    comm = mpi.world
    sub = yield from comm.split(color=comm.rank % 2, key=comm.rank)
    payload = Bytes(512)

    def issue_of(i):
        if i % 3 == 1:
            return lambda: sub.allreduce(Bytes(64), ReduceOp.SUM)
        return lambda: comm.allgather(payload)

    return (yield from _loop(mpi, issue_of))


def permuted_arrival(mpi):
    """Every repetition enters simultaneously, but on some the ranks
    take zero-delay hops first and so arrive in reverse order — which
    this dispatch is sensitive to (its queues grant first come, first
    served).  A tuple of blocks, unlike a list, is memoised."""
    comm = mpi.world
    blocks = (Bytes(65536),) * comm.size

    def before(i):
        if i % 3 == 2:
            for _ in range(comm.size - 1 - comm.rank):
                yield mpi.engine.timeout(0.0)

    return (yield from _loop(
        mpi, lambda i: lambda: comm.alltoall(blocks), before=before
    ))


def rank_runs_ahead(mpi):
    """Aligned hits, then staggered entries with another payload (the
    early ranks are released live and re-enter before the late ones have
    arrived), then aligned again."""
    comm = mpi.world
    small, big = Bytes(256), Bytes(1024)

    def before(i):
        if 4 <= i < 8:
            yield mpi.compute(comm.rank * 3e-6)

    def issue_of(i):
        payload = big if 4 <= i < 8 and i % 2 == 0 else small
        return lambda: comm.allgather(payload)

    return (yield from _loop(mpi, issue_of, before=before))


def profile_switched_off_and_on(mpi):
    comm = mpi.world
    payload = Bytes(512)

    def before(i):
        # Off from the start on odd ranks (so the first, live occurrence
        # records nothing there), back on later; the reverse on even ones.
        mpi.profile.enabled = (i >= 5) if comm.rank % 2 else not 3 <= i < 9

    return (yield from _loop(
        mpi, lambda i: lambda: comm.allgather(payload), before=before
    ))


def cache_cleared_mid_job(mpi):
    """The process-global cache is dropped while the lane still holds a
    decision; new shapes are recorded afterwards."""
    comm = mpi.world
    sizes = [256] * 4 + [512] * 4 + [256] * 4

    def before(i):
        if i in (3, 6) and comm.rank == 0:
            replaylib.clear_cache()

    return (yield from _loop(
        mpi, lambda i: lambda: comm.allgather(Bytes(sizes[i])),
        before=before,
    ))


PROGRAMS = [
    alternating_ops, size_changes_and_changes_back,
    data_argument_in_between,
    _mutated_list("alltoall"), _mutated_list("scatter"),
    subcommunicator_in_between, permuted_arrival, rank_runs_ahead,
    profile_switched_off_and_on, cache_cleared_mid_job,
]


@pytest.mark.parametrize("replay", ["loop", True], ids=["loop", "default"])
@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.__name__)
def test_bit_identical_to_replay_off(program, replay):
    off = _job(program, False)
    on = _job(program, replay)
    if replay == "loop":
        assert on.replay_hits > 0
    assert_same_run(on, off)


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.__name__)
def test_verifies_clean(program, monkeypatch):
    """Every hit executed live and checked against its record, every
    lane-selected record against the full key's."""
    monkeypatch.setenv("REPRO_REPLAY_VERIFY", "1")
    result = _job(program, "loop")
    assert result.replay_hits > 0


def test_repeats_take_the_lane_and_changes_leave_it(monkeypatch):
    """The shortcut is actually taken (a key per *change*, not per
    dispatch) — otherwise the suite above proves nothing about it."""
    monkeypatch.delenv("REPRO_REPLAY_VERIFY", raising=False)
    keys = []
    inner = replaylib.replay_key
    monkeypatch.setattr(
        replaylib, "replay_key",
        lambda *args: keys.append(args[1]) or inner(*args),
    )
    result = _job(size_changes_and_changes_back, "loop")
    # 256 ×4, 1024 ×3, 256 ×4, 1024: each shape's first occurrence runs
    # live unkeyed; a key is built when a shape returns, not per repeat.
    assert result.replay_hits == REPS - 2
    assert keys == ["allgather"] * 4


def test_verify_catches_a_lane_that_disagrees_with_the_key(monkeypatch):
    """Swap the cached records for copies behind the lane's back: the
    lane still holds the originals, the full key now selects others."""
    monkeypatch.setenv("REPRO_REPLAY_VERIFY", "1")

    def program(mpi):
        comm = mpi.world

        def before(i):
            if i == 4 and comm.rank == 0:
                for key, rec in list(replaylib._CACHE.items()):
                    replaylib._CACHE[key] = copy.copy(rec)

        return (yield from _loop(
            mpi, lambda i: lambda: comm.allgather(Bytes(256)), before=before
        ))

    with pytest.raises(replaylib.ReplayVerifyError, match="lane"):
        _job(program, "loop")
