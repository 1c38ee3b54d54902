"""OSU-micro-benchmark-style latency measurement (paper §5).

The paper's micro experiments are "modified from the OSU benchmark and
averaged over 10000 executions": warm-up iterations, then a timed loop
with the ranks realigned before every repetition, reporting the mean
per-operation latency of the slowest rank.  The realignment uses
:meth:`~repro.mpi.comm.Comm.align` — a zero-virtual-cost rendezvous
standing in for the real benchmark's inter-repetition barrier, so the
measured latency is the collective alone, not the barrier.  We keep the
warm-up because the first iteration includes one-off costs (window
allocation, hierarchy splits) the paper explicitly excludes from
timing.

Aligned repetitions make the timed loop a sequence of byte-identical
dispatches from simultaneous entries — exactly the shape the replay
cache (:mod:`repro.mpi.collectives.replay`) memoizes, so bench runs
default to ``replay="loop"`` and simulate each distinct collective
roughly twice regardless of the repetition count.  Virtual-time results
are bit-identical with replay off (the equivalence suite asserts it).
"""

from __future__ import annotations

from typing import Any

from repro.core import HybridContext, SyncPolicy
from repro.machine.model import MachineSpec
from repro.machine.placement import Placement
from repro.mpi import run_program
from repro.mpi.datatypes import Bytes

__all__ = [
    "check_repetitions",
    "osu_latency_program",
    "osu_allgather_latency",
    "hybrid_allgather_program",
    "pure_allgather_program",
    "multileader_allgather_program",
]

#: Timed repetitions.  The engine is deterministic, so repetitions do
#: not average out noise — but a multi-rep loop exercises the steady
#: state (and the replay cache makes repetitions nearly free: every
#: aligned repetition after the first is a cache hit, so 50 reps cost
#: about as much simulation as 2).  ``repro-bench --reps/--warmup``
#: overrides these module-wide, which is why the programs below resolve
#: ``None`` here at call time instead of binding the values as
#: signature defaults.
DEFAULT_REPS = 50
#: Warm-up repetitions excluded from timing (one-off setup amortization).
DEFAULT_WARMUP = 1


def check_repetitions(reps: int | None, warmup: int | None) -> None:
    """Raise ValueError unless *reps* >= 1 and *warmup* >= 0 (None
    stands for the module default)."""
    if reps is not None and reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if warmup is not None and warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")


def osu_latency_program(mpi, op, reps: int | None = None,
                        warmup: int | None = None):
    """Rank program: time ``op(mpi)`` with the OSU protocol.

    *op* takes the rank context and returns the coroutine to drive (the
    programs below return the collective's own, and this one, so a
    repetition's resumes climb only this frame and the dispatch's); a
    coroutine in its place is one-off setup, untimed, that returns it.
    Returns the mean per-operation latency on this rank.
    ``reps``/``warmup`` default to :data:`DEFAULT_REPS`/:data:`DEFAULT_WARMUP`
    at call time.
    """
    if reps is None:
        reps = DEFAULT_REPS
    if warmup is None:
        warmup = DEFAULT_WARMUP
    check_repetitions(reps, warmup)
    if not callable(op):
        op = yield from op
    comm = mpi.world
    engine = mpi.engine
    for _ in range(warmup):
        yield from op(mpi)
    # Align-delimited repetitions: every rep starts from a simultaneous
    # entry (replay-cacheable), and only the collective itself is timed.
    # Nothing but the align may sit between a rep's end and the next
    # align — replay's loop mode relies on that (see ReplaySession).
    total = 0.0
    for _ in range(reps):
        yield from comm.align()
        t0 = engine.now
        yield from op(mpi)
        total += engine.now - t0
    return total / reps


def hybrid_allgather_program(mpi, nbytes_per_rank: int,
                             reps: int | None = None,
                             warmup: int | None = None,
                             sync: SyncPolicy | None = None,
                             pipelined: bool | None = None,
                             chunk_bytes: int = 128 * 1024,
                             pack_datatypes: bool = False):
    """Rank program measuring the paper's Hy_Allgather latency."""

    def setup():
        ctx = yield from HybridContext.create(mpi.world, default_sync=sync)
        buf = yield from ctx.allgather_buffer(nbytes_per_rank)
        return lambda _mpi: ctx.allgather(
            buf, pipelined=pipelined, chunk_bytes=chunk_bytes,
            pack_datatypes=pack_datatypes,
        )

    return osu_latency_program(mpi, setup(), reps, warmup)


def pure_allgather_program(mpi, nbytes_per_rank: int,
                           reps: int | None = None,
                           warmup: int | None = None,
                           irregular: bool = False):
    """Rank program measuring the naive pure-MPI Allgather latency."""
    payload = (
        mpi.payload(nbytes_per_rank)
        if mpi.data_mode
        else Bytes(nbytes_per_rank)
    )

    collective = mpi.world.allgatherv if irregular else mpi.world.allgather

    def op(_mpi):
        return collective(payload)

    return osu_latency_program(mpi, op, reps, warmup)


def multileader_allgather_program(mpi, nbytes_per_rank: int, leaders: int):
    """Rank program timing one multi-leader pure-MPI allgather ([14]):
    *leaders* ranks per node run the inter-node exchange.  A warm-up
    call builds the leader hierarchy (one-off, excluded from timing)."""
    from repro.mpi.collectives.hierarchical import multileader_allgather
    from repro.mpi.collectives.registry import bridge_allgatherv

    comm = mpi.world
    payload = Bytes(nbytes_per_rank)
    total = nbytes_per_rank * comm.size

    def select_bridge(bridge, blocks, tag):
        return bridge_allgatherv(bridge, blocks, tag, total)

    yield from multileader_allgather(
        comm, payload, 2**27, leaders, select_bridge
    )
    yield from comm.barrier()
    t0 = mpi.now
    yield from multileader_allgather(
        comm, payload, 2**27 + 100, leaders, select_bridge
    )
    return mpi.now - t0


def osu_allgather_latency(
    spec: MachineSpec,
    placement: Placement,
    nbytes_per_rank: int,
    variant: str,
    reps: int | None = None,
    warmup: int | None = None,
    payload: str = "cost-only",
    policy=None,
    replay: bool | str = "loop",
    **options: Any,
) -> float:
    """Measure one (machine, placement, size, variant) point.

    *variant* is ``"hybrid"`` or ``"pure"``.  Returns the slowest rank's
    mean latency in seconds.  The job runs in ``cost-only`` payload mode
    by default — byte-for-byte the same virtual-time charges as
    ``"data"``, without materializing payload storage (the
    equivalence tests assert identical latencies across modes).
    *policy* overrides the collective selection policy (e.g. a
    ``ForcedSelection`` pinning the bridge-exchange variant).
    *replay* defaults to the replay cache's loop mode — the aligned OSU
    loop is exactly the discipline it requires, and results are
    bit-identical to ``replay=False`` (the equivalence suite pins this).
    """
    check_repetitions(reps, warmup)
    if variant == "hybrid":
        program, kwargs = hybrid_allgather_program, {
            "nbytes_per_rank": nbytes_per_rank, "reps": reps,
            "warmup": warmup, **options,
        }
    elif variant == "pure":
        program, kwargs = pure_allgather_program, {
            "nbytes_per_rank": nbytes_per_rank, "reps": reps,
            "warmup": warmup, **options,
        }
    else:
        raise ValueError(f"unknown variant {variant!r}")
    result = run_program(
        spec, None, program,
        placement=placement,
        payload=payload,
        policy=policy,
        replay=replay,
        program_kwargs=kwargs,
    )
    return max(result.returns)
