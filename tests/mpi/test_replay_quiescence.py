"""Replay stays out of the way of messages still in flight.

A replayed dispatch re-emits a record instead of simulating; if a
point-to-point message is still moving bytes through the NICs or memory
channels, the live dispatch would have contended with it and the record
would not.  ``ReplaySession.quiescent`` vetoes replay while the message
engine has a message scheduled but not finished, matched or not.

The program leaves one message un-waited in the background (rank 0
``isend``s to the last rank, which ``irecv``s) and then runs aligned
``allreduce`` rounds in loop mode.  The hit counts are those of the
generator-based message path, whose live message processes vetoed
replay the same way; without the in-flight veto the 4 KiB case replays
a third round while its message still occupies the channels.
"""

from __future__ import annotations

import pytest

from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi.collectives import replay as replaylib
from repro.mpi.datatypes import Bytes
from repro.mpi.runtime import MPIJob

ROUNDS = 4


def _background_then_rounds(mpi, nbytes):
    comm = mpi.world
    last = comm.size - 1
    if comm.rank == 0:
        comm.isend(Bytes(nbytes), last, tag=7)
    elif comm.rank == last:
        comm.irecv(source=0, tag=7)
    out = []
    for _ in range(ROUNDS):
        yield from comm.align()
        t0 = mpi.now
        yield from comm.allreduce(Bytes(64))
        out.append(mpi.now - t0)
    return out


def _run(nbytes, replay):
    replaylib.clear_cache()
    job = MPIJob(hazel_hen(2), _background_then_rounds,
                 placement=Placement.block(2, 4), payload="cost-only",
                 replay=replay, program_kwargs={"nbytes": nbytes})
    return job.run()


@pytest.mark.parametrize("nbytes, hits", [(4096, 2), (12000, 1)],
                         ids=["eager", "rendezvous"])
def test_message_in_flight_vetoes_replay(nbytes, hits):
    live = _run(nbytes, replay=False)
    replayed = _run(nbytes, replay="loop")
    assert replayed.replay_hits == hits
    assert replayed.returns == live.returns
    assert replayed.finish_times == live.finish_times
