"""Immediate collectives + Wait are bit-identical to blocking calls.

The contract behind the non-blocking API (satellite of the overlap
engine): posting ``I<op>`` and immediately waiting must produce exactly
the virtual times, message/byte counters, and span streams of the
blocking ``<op>`` — on Fig 7/9/10-class miniature configurations, with
``payload="cost-only"``.

The one deliberate difference is ``events_processed``: each posted
collective spawns one background engine process per rank, which costs
exactly two extra engine events (spawn + terminate).  The tests pin that
constant so any drift in the progress machinery is caught.
"""

from __future__ import annotations

import pytest

from repro.core import HybridContext
from repro.machine import presets
from repro.machine.placement import Placement
from repro.mpi import run_program
from repro.mpi.datatypes import Bytes
from tests.helpers import UNDER_VERIFY

NBYTES = 2048


def _fig7_blocking(mpi):
    """Regular two-level miniature: one of each blocking collective."""
    comm = mpi.world
    payload = Bytes(NBYTES)
    yield from comm.allgather(payload)
    yield from comm.bcast(payload, root=0)
    yield from comm.allreduce(payload)
    yield from comm.reduce(payload, root=0)
    yield from comm.barrier()
    return mpi.now


def _fig7_immediate(mpi):
    comm = mpi.world
    payload = Bytes(NBYTES)
    # Post, then wait immediately — one collective in flight at a time
    # (posting all five up front would pipeline them, which is legal
    # but not the blocking-equivalent schedule this test pins).
    for post in (
        lambda: comm.iallgather(payload),
        lambda: comm.ibcast(payload, root=0),
        lambda: comm.iallreduce(payload),
        lambda: comm.ireduce(payload, root=0),
        lambda: comm.ibarrier(),
    ):
        req = post()
        yield from req.wait()
    return mpi.now


def _fig10_blocking(mpi):
    """Irregular (allgatherv) miniature."""
    comm = mpi.world
    payload = Bytes(NBYTES + 8 * comm.rank)
    yield from comm.allgatherv(payload)
    return mpi.now


def _fig10_immediate(mpi):
    comm = mpi.world
    payload = Bytes(NBYTES + 8 * comm.rank)
    req = comm.iallgatherv(payload)
    yield from req.wait()
    return mpi.now


def _fig9_blocking(mpi):
    """Hybrid MPI+MPI miniature: the paper's Hy_* collectives."""
    ctx = yield from HybridContext.create(mpi.world)
    buf = yield from ctx.allgather_buffer(NBYTES)
    bbuf = yield from ctx.bcast_buffer(NBYTES)
    yield from ctx.allgather(buf)
    yield from ctx.bcast(bbuf, root=0)
    yield from ctx.allreduce(Bytes(NBYTES), NBYTES)
    return mpi.now


def _fig9_immediate(mpi):
    ctx = yield from HybridContext.create(mpi.world)
    buf = yield from ctx.allgather_buffer(NBYTES)
    bbuf = yield from ctx.bcast_buffer(NBYTES)
    for post in (
        lambda: ctx.iallgather(buf),
        lambda: ctx.ibcast(bbuf, root=0),
        lambda: ctx.iallreduce(Bytes(NBYTES), NBYTES),
    ):
        req = post()
        yield from req.wait()
    return mpi.now


#: (name, blocking program, immediate program, counts, collective count).
CASES = [
    ("fig7", _fig7_blocking, _fig7_immediate, (4, 4), 5),
    ("fig9", _fig9_blocking, _fig9_immediate, (3, 3, 3), 3),
    ("fig10", _fig10_blocking, _fig10_immediate, (4, 2), 1),
]


def _run(program, counts):
    spec = presets.hazel_hen(num_nodes=len(counts))
    return run_program(
        spec, None, program,
        placement=Placement.irregular(list(counts)),
        payload="cost-only",
        trace="dispatch",
    )


# Verify turns replay on for these jobs: fig9's blocking hybrid calls
# then park on the world communicator, and the hybrid i-variants
# bypass the session, so the event difference below cannot hold there.
@pytest.mark.parametrize("name,blocking,immediate,counts,ncolls", [
    pytest.param(*c, id=c[0], marks=UNDER_VERIFY if c[0] == "fig9" else ())
    for c in CASES
])
class TestImmediateWaitEquivalence:
    def test_bit_identical(self, name, blocking, immediate, counts,
                           ncolls):
        base = _run(blocking, counts)
        imm = _run(immediate, counts)

        assert imm.returns == base.returns
        assert imm.elapsed == base.elapsed
        assert imm.finish_times == base.finish_times
        assert imm.sent_messages == base.sent_messages
        assert imm.sent_bytes == base.sent_bytes
        assert imm.intra_copies == base.intra_copies
        assert imm.intra_bytes == base.intra_bytes
        assert imm.network_messages == base.network_messages
        assert imm.network_bytes == base.network_bytes
        # Span streams: identical records in identical order.
        assert imm.trace == base.trace
        # The only engine-level difference: 2 events (spawn+terminate)
        # per posted collective per rank.
        nranks = sum(counts)
        assert (imm.events_processed - base.events_processed
                == 2 * ncolls * nranks)
