"""Shared harness for the model-vs-simulator conformance suite.

Measures the DES latency of one (op, algo) collective on the miniature
Fig 7/9/10 configurations with the OSU protocol (warm-up, alignment
barrier, one timed repetition — the engine is deterministic) and prices
the same call with :mod:`repro.analysis.model`.
"""

from __future__ import annotations

import functools

from repro.analysis.model import CostModel, predict
from repro.core import HybridContext
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen, hazel_hen_2s, vulcan
from repro.mpi import run_program
from repro.mpi.collectives import registry
from repro.mpi.collectives.registry import CollRequest, ForcedSelection
from repro.mpi.datatypes import Bytes
from repro.mpi.constants import ReduceOp

__all__ = [
    "MINIS", "SIZES", "CASES", "TOLERANCES", "DEFAULT_TOL",
    "measure_des", "measure_model", "applicable", "divergence",
]

#: Miniature versions of the paper's Fig 7 (single Hazel Hen node),
#: Fig 9 (multi-node Hazel Hen, regular ppn) and Fig 10 (multi-node
#: Vulcan, irregular ppn) configurations.  All three keep every node
#: pair within one router/leaf, so hop counts are exact.
MINIS = {
    "fig7": ("hazel_hen", [8]),
    "fig9": ("hazel_hen", [4, 4, 4, 4]),
    "fig10": ("vulcan", [6, 6, 4]),
    # Two-socket Hazel Hen variants, one per on-node transport, with the
    # "balanced" slot→socket mapping so half of each node's ranks sit on
    # the second socket (cross-socket traffic in every on-node stage).
    "fig9_2s": ("hazel_hen_2s", [4, 4, 4, 4]),
    "fig9_2s_cma": ("hazel_hen_2s_cma", [4, 4, 4, 4]),
    "fig9_2s_pip": ("hazel_hen_2s_pip", [4, 4, 4, 4]),
}

_PRESETS = {
    "hazel_hen": hazel_hen,
    "vulcan": vulcan,
    "hazel_hen_2s": hazel_hen_2s,
    "hazel_hen_2s_cma": lambda n: hazel_hen_2s(
        n, transport="cma_single_copy"
    ),
    "hazel_hen_2s_pip": lambda n: hazel_hen_2s(n, transport="pip_direct"),
}

#: Per-rank payload bytes: eager, mid, and rendezvous regime on both
#: machines (eager thresholds 8 KiB / 12 KiB).
SIZES = (8, 2048, 65536)

#: Every registered (op, algo) pair — the conformance suite must cover
#: all of them (asserted by ``test_every_registered_pair_is_covered``).
CASES = sorted(
    (op, algo.name)
    for op in registry.ops()
    for algo in registry.algorithms_for(op)
)

#: Relative divergence tolerance (|model - des| / des) per algorithm,
#: keyed (op, algo).  The default targets the issue's 25% worst-case
#: bound; documented exceptions cover composite algorithms whose
#: contention interleaving the closed forms approximate (tolerances
#: mirrored in the table in ``docs/modeling.md``).
DEFAULT_TOL = 0.25
TOLERANCES: dict[tuple[str, str], float] = {
    # Rendezvous-size pairwise alltoall keeps every NIC's tx and rx
    # queue saturated at once; the model prices the queues separately
    # and under-predicts the coupled backlog (worst case fig9/fig10 at
    # 64 KiB, ~28%).  Median stays below 4%.
    ("alltoall", "pairwise"): 0.30,
}

#: Median relative divergence bound across each algorithm's cases.
MEDIAN_TOL = 0.10


def spec_of(mini: str):
    machine, counts = MINIS[mini]
    return _PRESETS[machine](len(counts))


def placement_of(mini: str) -> Placement:
    placement = Placement.irregular(MINIS[mini][1])
    if spec_of(mini).node.sockets > 1:
        placement = placement.with_socket_mode("balanced")
    return placement


def _mpi_op(op: str, nbytes: int):
    """Coroutine factory running one mpi-layer collective call."""

    def op_fn(mpi):
        comm = mpi.world
        if op == "allgather":
            yield from comm.allgather(Bytes(nbytes))
        elif op == "allgatherv":
            yield from comm.allgatherv(Bytes(nbytes))
        elif op == "bcast":
            yield from comm.bcast(Bytes(nbytes), root=0)
        elif op == "gather":
            yield from comm.gather(Bytes(nbytes), root=0)
        elif op == "gatherv":
            yield from comm.gatherv(Bytes(nbytes), root=0)
        elif op == "scatter":
            parts = (
                [Bytes(nbytes)] * comm.size if comm.rank == 0 else None
            )
            yield from comm.scatter(parts, root=0)
        elif op == "reduce":
            yield from comm.reduce(Bytes(nbytes), ReduceOp.SUM, root=0)
        elif op == "allreduce":
            yield from comm.allreduce(Bytes(nbytes), ReduceOp.SUM)
        elif op == "reduce_scatter":
            yield from comm.reduce_scatter(Bytes(nbytes), ReduceOp.SUM)
        elif op == "scan":
            yield from comm.scan(Bytes(nbytes), ReduceOp.SUM)
        elif op == "exscan":
            yield from comm.exscan(Bytes(nbytes), ReduceOp.SUM)
        elif op == "alltoall":
            yield from comm.alltoall(
                [Bytes(nbytes)] * comm.size
            )
        elif op == "barrier":
            yield from comm.barrier()
        else:
            raise ValueError(f"no program for op {op!r}")

    return op_fn


#: Absolute virtual time all ranks align to before the timed call —
#: far beyond any warm-up; a fixed-point rendezvous has zero skew,
#: unlike a barrier (whose release wave reaches nodes at different
#: times, letting early ranks overlap work into the timed region).
ALIGN_AT = 1.0e-2


def _osu_program(mpi, op: str, nbytes: int):
    """OSU protocol: warm-up, skew-free alignment, one timed call."""
    comm = mpi.world
    if op.startswith("hy_"):
        ctx = yield from HybridContext.create(comm)
        if op == "hy_allgather":
            buf = yield from ctx.allgather_buffer(nbytes)

            def op_fn(_mpi):
                yield from ctx.allgather(buf)

        elif op == "hy_bcast":
            buf = yield from ctx.bcast_buffer(max(nbytes, 1))

            def op_fn(_mpi):
                yield from ctx.bcast(buf, root=0)

        else:
            raise ValueError(f"no program for op {op!r}")
    else:
        op_fn = _mpi_op(op, nbytes)
    yield from op_fn(mpi)          # warm-up (setup/window allocation)
    yield mpi.compute(ALIGN_AT - mpi.now)   # align all ranks exactly
    yield from op_fn(mpi)
    return mpi.now - ALIGN_AT


@functools.lru_cache(maxsize=None)
def measure_des(mini: str, op: str, algo: str, nbytes: int) -> float:
    """Simulated latency (slowest rank) of one forced (op, algo) call."""
    result = run_program(
        spec_of(mini), None, _osu_program,
        placement=placement_of(mini),
        payload="cost-only",
        policy=ForcedSelection({op: algo}),
        program_kwargs={"op": op, "nbytes": nbytes},
    )
    return max(result.returns)


@functools.lru_cache(maxsize=None)
def _model_of(mini: str) -> CostModel:
    machine, counts = MINIS[mini]
    spec = spec_of(mini)
    return CostModel(spec, tuple(counts),
                     topology=spec.build_topology(),
                     socket_mode=placement_of(mini).socket_mode)


def measure_model(mini: str, op: str, algo: str, nbytes: int) -> float:
    """Closed-form latency of the same call."""
    return _model_of(mini).predict(op, algo, nbytes)


@functools.lru_cache(maxsize=None)
def _probe_comm(mini: str):
    """A (finished) world communicator for applicability checks."""
    box = []

    def probe(mpi):
        box.append(mpi.world)
        yield from mpi.world.barrier()

    run_program(spec_of(mini), None, probe, placement=placement_of(mini),
                payload="cost-only")
    return box[0]


def applicable(mini: str, op: str, algo: str) -> bool:
    """Whether (op, algo) is runnable on the mini's communicator shape
    (delegates to the registry's own applicability predicate)."""
    algo_obj = registry.get_algorithm(op, algo)
    req = CollRequest(op=op, nbytes=0, total=0, root=0)
    return algo_obj.applicable(_probe_comm(mini), req)


def divergence(mini: str, op: str, algo: str, nbytes: int) -> tuple:
    """(relative divergence, model seconds, DES seconds)."""
    des = measure_des(mini, op, algo, nbytes)
    mod = measure_model(mini, op, algo, nbytes)
    if des <= 0.0:
        return (abs(mod), mod, des)
    return (abs(mod - des) / des, mod, des)
