#!/usr/bin/env python
"""Host cost of one live collective dispatch, per rank.

Usage::

    PYTHONPATH=src python scripts/dispatch_cost.py [ROUNDS]

Times three replay-off jobs on ``hazel_hen`` — the OSU hybrid allgather
(4 KiB per rank) at 1×24 and 4×24, and a loop of world barriers at
1×24 (the on-node shm barrier) — each with 1 and with 201 repetitions,
*ROUNDS* times (default 7).  The marginal cost of the 200 extra
repetitions, from the fastest run of each length, divided by 200 and by
the rank count, is the host µs one dispatch costs one rank; the engine
entries per dispatch come from the same pair of jobs and are exact.
"""

from __future__ import annotations

import sys
import time

from repro.bench import osu
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi import MPIJob

EXTRA = 200
PPN = 24


def barrier_program(mpi, reps: int):
    for _ in range(reps):
        yield from mpi.world.barrier()


def run(kind: str, nodes: int, reps: int) -> tuple[float, int]:
    """Wall seconds and engine entries of one job."""
    if kind == "hy_allgather":
        program, kwargs = osu.hybrid_allgather_program, {
            "nbytes_per_rank": 4096, "reps": reps, "warmup": 1}
    else:
        program, kwargs = barrier_program, {"reps": reps}
    job = MPIJob(hazel_hen(nodes), program,
                 placement=Placement.block(nodes, PPN), payload="cost-only",
                 replay=False, program_kwargs=kwargs)
    t0 = time.perf_counter()
    job.run()
    return time.perf_counter() - t0, job.engine.event_count


def measure(kind: str, nodes: int, rounds: int) -> tuple[float, float]:
    """(host µs per rank per dispatch, engine entries per dispatch)."""
    short, long = [], []
    for _ in range(rounds):
        short.append(run(kind, nodes, 1))
        long.append(run(kind, nodes, 1 + EXTRA))
    seconds = min(t for t, _ in long) - min(t for t, _ in short)
    entries = (long[0][1] - short[0][1]) / EXTRA
    return seconds / EXTRA / (nodes * PPN) * 1e6, entries


def main() -> int:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    for kind, nodes in (("hy_allgather", 1), ("hy_allgather", 4),
                        ("barrier", 1)):
        us, entries = measure(kind, nodes, rounds)
        print(f"{kind} {nodes}x{PPN}: {us:.2f} us per rank per dispatch, "
              f"{entries:g} entries per dispatch")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
