"""Every registered collective replays, bit for bit.

The replay layer derives a dispatch's signature from the call itself
(:func:`repro.mpi.collectives.replay.call_signature`) and measures its
record on a live run of that call, so nothing per-op exists that could
be forgotten — this suite pins that:
one case per op in ``registry.ops()`` (plus ``hy_allreduce``, which has
no registry entry), each an align-disciplined loop run with replay off
and on, and once more under ``REPRO_REPLAY_VERIFY=1``.  A newly
registered op without a case fails :func:`test_every_op_has_a_case`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HybridContext
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi import run_program
from repro.mpi.collectives import registry
from repro.mpi.collectives import replay as replaylib
from repro.mpi.constants import ReduceOp
from repro.mpi.datatypes import Bytes
from tests.helpers import assert_same_run

REPS = 6
NODES, PPN = 3, 4

# Flat ops: op -> (rank, size) -> the public call's argument tuple.
# Non-default roots and reduce ops; irregular sizes for the v-variants.
FLAT = {
    "allgather": lambda r, n: (Bytes(96),),
    "allgatherv": lambda r, n: (Bytes(40 + 24 * (r % 5)),),
    "bcast": lambda r, n: (Bytes(4096), 5),
    "gather": lambda r, n: (Bytes(256), 7),
    "gatherv": lambda r, n: (Bytes(16 + 8 * r), 3),
    "scatter": lambda r, n: ([Bytes(64)] * n if r == 2 else None, 2),
    "reduce": lambda r, n: (Bytes(512), ReduceOp.MAX, 9),
    "allreduce": lambda r, n: (Bytes(1024), ReduceOp.MIN),
    "reduce_scatter": lambda r, n: (Bytes(64 * n), ReduceOp.SUM),
    "scan": lambda r, n: (Bytes(128), ReduceOp.SUM),
    "exscan": lambda r, n: (Bytes(128), ReduceOp.PROD),
    "alltoall": lambda r, n: (
        [Bytes(32 + 8 * ((r + j) % 3)) for j in range(n)],
    ),
    "barrier": lambda r, n: (),
}


def _hy_allgather(hctx):
    buf = yield from hctx.allgatherv_buffer(
        [24 + 8 * (r % 4) for r in range(hctx.comm.size)]
    )
    return lambda: hctx.allgather(buf)


def _hy_bcast(hctx):
    buf = yield from hctx.bcast_buffer(2048)
    return lambda: hctx.bcast(buf, root=5)


def _hy_allreduce(hctx):
    return lambda: hctx.allreduce(Bytes(256), 256, ReduceOp.MAX)
    yield  # pragma: no cover - keeps this a coroutine like its siblings


# Hybrid ops: op -> coroutine(hctx) returning the zero-argument call.
HYBRID = {
    "hy_allgather": _hy_allgather,
    "hy_bcast": _hy_bcast,
    "hy_allreduce": _hy_allreduce,
}

CASES = sorted(FLAT) + sorted(HYBRID)


def _program(mpi, op: str, reps: int = REPS):
    comm = mpi.world
    if op in FLAT:
        args = FLAT[op](comm.rank, comm.size)
        method = getattr(comm, op)

        def issue():
            return method(*args)
    else:
        hctx = yield from HybridContext.create(comm)
        issue = yield from HYBRID[op](hctx)
    total = 0.0
    results = []
    for _ in range(reps):
        yield from comm.align()
        t0 = mpi.now
        results.append((yield from issue()))
        total += mpi.now - t0
    return total, results


def _run(op: str, replay):
    replaylib.clear_cache()
    return run_program(
        hazel_hen(NODES), None, _program,
        placement=Placement.block(NODES, PPN),
        payload="cost-only",
        trace="phase",
        replay=replay,
        program_kwargs={"op": op},
    )


def test_every_op_has_a_case():
    assert set(CASES) == set(registry.ops()) | {"hy_allreduce"}


@pytest.mark.parametrize("op", CASES)
def test_replay_bit_identical(op):
    off = _run(op, replay=False)
    before = replaylib.cache_stats()
    on = _run(op, replay="loop")
    after = replaylib.cache_stats()
    assert on.replay_hits > 0
    # The first aligned occurrence is the record, measured where it
    # runs — unless that run opened a setup gate.  Only hy_allreduce
    # does (it allocates scratch windows on first use), so its record
    # is measured where the second occurrence runs.
    assert after["records"] - before["records"] == 1
    vetoes = {reason: n - before["inplace_vetoes"][reason]
              for reason, n in after["inplace_vetoes"].items()}
    if op == "hy_allreduce":
        assert vetoes == dict.fromkeys(vetoes, 0) | {"setup_gate": 1}
    else:
        assert vetoes == dict.fromkeys(vetoes, 0)
    assert_same_run(on, off)


@pytest.mark.parametrize("op", CASES)
def test_replay_verifies_clean(op, monkeypatch):
    """Every hit executed live *and* checked against its record."""
    monkeypatch.setenv("REPRO_REPLAY_VERIFY", "1")
    assert _run(op, replay="loop").replay_hits > 0


@pytest.mark.parametrize("op", CASES)
def test_signature_round_trip(op, monkeypatch):
    """Every call an aligned loop of *op* issues encodes: a call without
    a signature would veto replay of the op everywhere."""
    seen = []
    real = replaylib.ReplaySession.run

    def spy(self, comm, name, call, make, args):
        seen.append((name, call))
        return real(self, comm, name, call, make, args)

    monkeypatch.setattr(replaylib.ReplaySession, "run", spy)
    _run(op, replay="loop")
    calls = [call for name, call in seen if name == op]
    assert len(calls) == REPS * NODES * PPN
    for call in calls:
        assert replaylib.call_signature(call) is not None


def test_flag_sync_hybrid_replays(monkeypatch):
    """FlagSync is keyed by its replay signature: the hybrid allgather
    over it records, replays and verifies like the barrier one."""
    from repro.bench.osu import hybrid_allgather_program
    from repro.core import FlagSync

    def run(replay):
        replaylib.clear_cache()
        return run_program(
            hazel_hen(NODES), None, hybrid_allgather_program,
            placement=Placement.block(NODES, PPN),
            payload="cost-only", trace="phase", replay=replay,
            program_kwargs={"nbytes_per_rank": 64, "reps": REPS,
                            "sync": FlagSync()},
        )

    off = run(False)
    monkeypatch.setenv("REPRO_REPLAY_VERIFY", "1")
    on = run("loop")
    assert on.replay_hits == REPS
    assert_same_run(on, off)


def test_data_arguments_veto():
    """Anything carrying data has no signature: the dispatch runs live."""
    arr = np.zeros(4)
    assert replaylib.call_signature((arr,)) is None
    assert replaylib.call_signature((Bytes(8), arr)) is None
    assert replaylib.call_signature(([Bytes(8), arr], 0)) is None
    assert replaylib.call_signature(((arr,),)) is None
