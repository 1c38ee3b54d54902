#!/usr/bin/env python
"""Host cost of one live collective dispatch, per rank, and of one
point-to-point message.

Usage::

    PYTHONPATH=src python scripts/dispatch_cost.py [ROUNDS]

Times replay-off jobs, each with 1 and with 201 repetitions, *ROUNDS*
times (default 7); the marginal cost of the 200 extra repetitions, from
the fastest run of each length, is what one repetition costs, and the
engine entries per repetition come from the same pair of jobs and are
exact.

* Dispatches, on ``hazel_hen``: the OSU hybrid allgather (4 KiB per
  rank) at 1×24 and 4×24, and a loop of world barriers at 1×24 (the
  on-node shm barrier); host µs per rank per dispatch.
* Messages, on two-socket ``hazel_hen`` nodes (``shm_two_copy``): a
  ping-pong of rank 0 with a peer on its socket, on its node's other
  socket and on the other node (64 bytes, eager), and off node at
  64 KiB (rendezvous); host µs per message, two per round.
"""

from __future__ import annotations

import sys
import time

from repro.bench import osu
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen, hazel_hen_2s
from repro.mpi import Bytes, MPIJob

EXTRA = 200
PPN = 24

#: Two nodes of three ranks: ranks 0 and 2 on socket 0 and rank 1 on
#: socket 1 of node 0, rank 3 on node 1.
PINGPONG = Placement.block(2, 3).with_socket_mode("scatter")
#: Message rows: (peer of rank 0, bytes).
MESSAGES = {
    "eager same socket": (2, 64),
    "eager cross socket": (1, 64),
    "eager off node": (3, 64),
    "rendezvous off node": (3, 65536),
}


def barrier_program(mpi, reps: int):
    for _ in range(reps):
        yield from mpi.world.barrier()


def pingpong_program(mpi, reps: int, peer: int, nbytes: int):
    comm, payload = mpi.world, Bytes(nbytes)
    for _ in range(reps):
        if comm.rank == 0:
            yield from comm.send(payload, peer)
            yield from comm.recv(source=peer)
        elif comm.rank == peer:
            yield from comm.recv(source=0)
            yield from comm.send(payload, 0)


def job(kind: str, where, reps: int) -> MPIJob:
    """One job of *kind* (``hy_allgather``, ``barrier`` or ``message``)
    at *where* (nodes, or a :data:`MESSAGES` row) with *reps* rounds."""
    if kind == "message":
        peer, nbytes = MESSAGES[where]
        return MPIJob(hazel_hen_2s(2, "shm_two_copy"), pingpong_program,
                      placement=PINGPONG, payload="cost-only", replay=False,
                      program_kwargs={"reps": reps, "peer": peer,
                                      "nbytes": nbytes})
    if kind == "hy_allgather":
        program, kwargs = osu.hybrid_allgather_program, {
            "nbytes_per_rank": 4096, "reps": reps, "warmup": 1}
    else:
        program, kwargs = barrier_program, {"reps": reps}
    return MPIJob(hazel_hen(where), program,
                  placement=Placement.block(where, PPN), payload="cost-only",
                  replay=False, program_kwargs=kwargs)


def run(kind: str, where, reps: int) -> tuple[float, int]:
    """Wall seconds and engine entries of one job."""
    built = job(kind, where, reps)
    t0 = time.perf_counter()
    built.run()
    return time.perf_counter() - t0, built.engine.event_count


def measure(kind: str, where, rounds: int) -> tuple[float, float]:
    """(host seconds, engine entries) of one more repetition."""
    short, long = [], []
    for _ in range(rounds):
        short.append(run(kind, where, 1))
        long.append(run(kind, where, 1 + EXTRA))
    seconds = min(t for t, _ in long) - min(t for t, _ in short)
    return seconds / EXTRA, (long[0][1] - short[0][1]) / EXTRA


def main() -> int:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    for kind, nodes in (("hy_allgather", 1), ("hy_allgather", 4),
                        ("barrier", 1)):
        seconds, entries = measure(kind, nodes, rounds)
        print(f"{kind} {nodes}x{PPN}: "
              f"{seconds / (nodes * PPN) * 1e6:.2f} us per rank per "
              f"dispatch, {entries:g} entries per dispatch")
    for row in MESSAGES:
        seconds, entries = measure("message", row, rounds)
        print(f"{row}: {seconds / 2 * 1e6:.2f} us per message, "
              f"{entries / 2:g} entries per message")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
