"""Regression pins for model-driven behavior.

``SNAPSHOT`` freezes the algorithm :class:`CostModelSelection` picks
per (topology, op, size class) on the three Fig configs: selection
drift caused by a model or tuning change must show up as an explicit
diff of this table, not as a silent behavior change.

The unit-consistency test closes the historical gap that motivated the
model delegation: ``Algorithm.cost`` used to return relative alpha-beta
scores, so comparing or summing them against simulated seconds was
meaningless.  Costs are now seconds, shared with the DES clock.
"""

from __future__ import annotations

import functools
import math

import pytest

from repro.analysis.model import predict_comm
from repro.mpi import run_program
from repro.mpi.collectives import registry
from repro.mpi.collectives.registry import CollRequest, CostModelSelection

from .conformance import (
    CASES,
    DEFAULT_TOL,
    MINIS,
    SIZES,
    TOLERANCES,
    applicable,
    measure_des,
    placement_of,
    spec_of,
)

@functools.lru_cache(maxsize=None)
def _probe_comm(mini: str):
    """A (finished) world communicator: the policies and
    ``Algorithm.cost`` read the live communicator's machine state."""
    box = []

    def probe(mpi):
        box.append(mpi.world)
        yield from mpi.world.barrier()

    run_program(spec_of(mini), None, probe, placement=placement_of(mini),
                payload="cost-only")
    return box[0]


#: Ops exercised by the snapshot (every dispatchable collective).
SNAPSHOT_OPS = (
    "allgather", "allgatherv", "bcast", "gather", "gatherv", "scatter",
    "reduce", "allreduce", "reduce_scatter", "scan", "exscan",
    "alltoall", "barrier", "hy_allgather", "hy_bcast",
)

#: (mini, op, nbytes) -> algorithm CostModelSelection picks.
SNAPSHOT = {
    ("fig7", "allgather", 8): "recursive_doubling",
    ("fig7", "allgather", 2048): "ring",
    ("fig7", "allgather", 65536): "ring",
    ("fig7", "allgatherv", 8): "bruck_v",
    ("fig7", "allgatherv", 2048): "ring_v",
    ("fig7", "allgatherv", 65536): "ring_v",
    ("fig7", "bcast", 8): "binomial",
    ("fig7", "bcast", 2048): "binomial",
    ("fig7", "bcast", 65536): "binomial",
    ("fig7", "gather", 8): "linear",
    ("fig7", "gather", 2048): "linear",
    ("fig7", "gather", 65536): "linear",
    ("fig7", "gatherv", 8): "linear",
    ("fig7", "gatherv", 2048): "linear",
    ("fig7", "gatherv", 65536): "linear",
    ("fig7", "scatter", 8): "linear",
    ("fig7", "scatter", 2048): "linear",
    ("fig7", "scatter", 65536): "linear",
    ("fig7", "reduce", 8): "binomial",
    ("fig7", "reduce", 2048): "binomial",
    ("fig7", "reduce", 65536): "binomial",
    ("fig7", "allreduce", 8): "recursive_doubling",
    ("fig7", "allreduce", 2048): "rabenseifner",
    ("fig7", "allreduce", 65536): "rabenseifner",
    ("fig7", "reduce_scatter", 8): "recursive_halving",
    ("fig7", "reduce_scatter", 2048): "recursive_halving",
    ("fig7", "reduce_scatter", 65536): "recursive_halving",
    ("fig7", "scan", 8): "binomial",
    ("fig7", "scan", 2048): "binomial",
    ("fig7", "scan", 65536): "binomial",
    ("fig7", "exscan", 8): "binomial",
    ("fig7", "exscan", 2048): "binomial",
    ("fig7", "exscan", 65536): "binomial",
    ("fig7", "alltoall", 8): "bruck",
    ("fig7", "alltoall", 2048): "pairwise",
    ("fig7", "alltoall", 65536): "pairwise",
    ("fig7", "barrier", 8): "shm_flags",
    ("fig7", "barrier", 2048): "shm_flags",
    ("fig7", "barrier", 65536): "shm_flags",
    ("fig7", "hy_allgather", 8): "shared_window",
    ("fig7", "hy_allgather", 2048): "shared_window",
    ("fig7", "hy_allgather", 65536): "shared_window",
    ("fig7", "hy_bcast", 8): "shared_window",
    ("fig7", "hy_bcast", 2048): "shared_window",
    ("fig7", "hy_bcast", 65536): "shared_window",
    ("fig9", "allgather", 8): "recursive_doubling",
    ("fig9", "allgather", 2048): "recursive_doubling",
    ("fig9", "allgather", 65536): "ring",
    ("fig9", "allgatherv", 8): "smp_hierarchical",
    ("fig9", "allgatherv", 2048): "bruck_v",
    ("fig9", "allgatherv", 65536): "ring_v",
    ("fig9", "bcast", 8): "binomial",
    ("fig9", "bcast", 2048): "smp_hierarchical",
    ("fig9", "bcast", 65536): "binomial",
    ("fig9", "gather", 8): "linear",
    ("fig9", "gather", 2048): "linear",
    ("fig9", "gather", 65536): "linear",
    ("fig9", "gatherv", 8): "linear",
    ("fig9", "gatherv", 2048): "linear",
    ("fig9", "gatherv", 65536): "linear",
    ("fig9", "scatter", 8): "linear",
    ("fig9", "scatter", 2048): "linear",
    ("fig9", "scatter", 65536): "linear",
    ("fig9", "reduce", 8): "binomial",
    ("fig9", "reduce", 2048): "binomial",
    ("fig9", "reduce", 65536): "binomial",
    ("fig9", "allreduce", 8): "recursive_doubling",
    ("fig9", "allreduce", 2048): "recursive_doubling",
    ("fig9", "allreduce", 65536): "rabenseifner",
    ("fig9", "reduce_scatter", 8): "recursive_halving",
    ("fig9", "reduce_scatter", 2048): "recursive_halving",
    ("fig9", "reduce_scatter", 65536): "recursive_halving",
    ("fig9", "scan", 8): "binomial",
    ("fig9", "scan", 2048): "binomial",
    ("fig9", "scan", 65536): "binomial",
    ("fig9", "exscan", 8): "binomial",
    ("fig9", "exscan", 2048): "binomial",
    ("fig9", "exscan", 65536): "binomial",
    ("fig9", "alltoall", 8): "bruck",
    ("fig9", "alltoall", 2048): "pairwise",
    ("fig9", "alltoall", 65536): "pairwise",
    ("fig9", "barrier", 8): "smp_hierarchical",
    ("fig9", "barrier", 2048): "smp_hierarchical",
    ("fig9", "barrier", 65536): "smp_hierarchical",
    ("fig9", "hy_allgather", 8): "shared_window",
    ("fig9", "hy_allgather", 2048): "pipelined_ring",
    ("fig9", "hy_allgather", 65536): "shared_window",
    ("fig9", "hy_bcast", 8): "shared_window",
    ("fig9", "hy_bcast", 2048): "shared_window",
    ("fig9", "hy_bcast", 65536): "shared_window",
    ("fig10", "allgather", 8): "recursive_doubling",
    ("fig10", "allgather", 2048): "ring",
    ("fig10", "allgather", 65536): "ring",
    ("fig10", "allgatherv", 8): "smp_hierarchical",
    ("fig10", "allgatherv", 2048): "ring_v",
    ("fig10", "allgatherv", 65536): "ring_v",
    ("fig10", "bcast", 8): "smp_hierarchical",
    ("fig10", "bcast", 2048): "smp_hierarchical",
    ("fig10", "bcast", 65536): "scatter_allgather",
    ("fig10", "gather", 8): "linear",
    ("fig10", "gather", 2048): "linear",
    ("fig10", "gather", 65536): "linear",
    ("fig10", "gatherv", 8): "linear",
    ("fig10", "gatherv", 2048): "linear",
    ("fig10", "gatherv", 65536): "linear",
    ("fig10", "scatter", 8): "linear",
    ("fig10", "scatter", 2048): "linear",
    ("fig10", "scatter", 65536): "linear",
    ("fig10", "reduce", 8): "smp_hierarchical",
    ("fig10", "reduce", 2048): "smp_hierarchical",
    ("fig10", "reduce", 65536): "binomial",
    ("fig10", "allreduce", 8): "recursive_doubling",
    ("fig10", "allreduce", 2048): "recursive_doubling",
    ("fig10", "allreduce", 65536): "ring",
    ("fig10", "reduce_scatter", 8): "recursive_halving",
    ("fig10", "reduce_scatter", 2048): "recursive_halving",
    ("fig10", "reduce_scatter", 65536): "pairwise",
    ("fig10", "scan", 8): "binomial",
    ("fig10", "scan", 2048): "binomial",
    ("fig10", "scan", 65536): "binomial",
    ("fig10", "exscan", 8): "binomial",
    ("fig10", "exscan", 2048): "binomial",
    ("fig10", "exscan", 65536): "binomial",
    ("fig10", "alltoall", 8): "bruck",
    ("fig10", "alltoall", 2048): "pairwise",
    ("fig10", "alltoall", 65536): "pairwise",
    ("fig10", "barrier", 8): "smp_hierarchical",
    ("fig10", "barrier", 2048): "smp_hierarchical",
    ("fig10", "barrier", 65536): "smp_hierarchical",
    ("fig10", "hy_allgather", 8): "pipelined_ring",
    ("fig10", "hy_allgather", 2048): "shared_window",
    ("fig10", "hy_allgather", 65536): "shared_window",
    ("fig10", "hy_bcast", 8): "shared_window",
    ("fig10", "hy_bcast", 2048): "shared_window",
    ("fig10", "hy_bcast", 65536): "shared_window",
    ("fig9_2s", "allgather", 8): "recursive_doubling",
    ("fig9_2s", "allgather", 2048): "bruck",
    ("fig9_2s", "allgather", 65536): "ring",
    ("fig9_2s", "allgatherv", 8): "smp_hierarchical",
    ("fig9_2s", "allgatherv", 2048): "bruck_v",
    ("fig9_2s", "allgatherv", 65536): "ring_v",
    ("fig9_2s", "bcast", 8): "binomial",
    ("fig9_2s", "bcast", 2048): "smp_hierarchical",
    ("fig9_2s", "bcast", 65536): "binomial",
    ("fig9_2s", "gather", 8): "linear",
    ("fig9_2s", "gather", 2048): "linear",
    ("fig9_2s", "gather", 65536): "linear",
    ("fig9_2s", "gatherv", 8): "linear",
    ("fig9_2s", "gatherv", 2048): "linear",
    ("fig9_2s", "gatherv", 65536): "linear",
    ("fig9_2s", "scatter", 8): "linear",
    ("fig9_2s", "scatter", 2048): "linear",
    ("fig9_2s", "scatter", 65536): "linear",
    ("fig9_2s", "reduce", 8): "binomial",
    ("fig9_2s", "reduce", 2048): "binomial",
    ("fig9_2s", "reduce", 65536): "binomial",
    ("fig9_2s", "allreduce", 8): "recursive_doubling",
    ("fig9_2s", "allreduce", 2048): "recursive_doubling",
    ("fig9_2s", "allreduce", 65536): "rabenseifner",
    ("fig9_2s", "reduce_scatter", 8): "recursive_halving",
    ("fig9_2s", "reduce_scatter", 2048): "recursive_halving",
    ("fig9_2s", "reduce_scatter", 65536): "recursive_halving",
    ("fig9_2s", "scan", 8): "binomial",
    ("fig9_2s", "scan", 2048): "binomial",
    ("fig9_2s", "scan", 65536): "binomial",
    ("fig9_2s", "exscan", 8): "binomial",
    ("fig9_2s", "exscan", 2048): "binomial",
    ("fig9_2s", "exscan", 65536): "binomial",
    ("fig9_2s", "alltoall", 8): "bruck",
    ("fig9_2s", "alltoall", 2048): "pairwise",
    ("fig9_2s", "alltoall", 65536): "pairwise",
    ("fig9_2s", "barrier", 8): "smp_hierarchical",
    ("fig9_2s", "barrier", 2048): "smp_hierarchical",
    ("fig9_2s", "barrier", 65536): "smp_hierarchical",
    ("fig9_2s", "hy_allgather", 8): "shared_window",
    ("fig9_2s", "hy_allgather", 2048): "shared_window_3l",
    ("fig9_2s", "hy_allgather", 65536): "shared_window_3l",
    ("fig9_2s", "hy_bcast", 8): "shared_window",
    ("fig9_2s", "hy_bcast", 2048): "shared_window",
    ("fig9_2s", "hy_bcast", 65536): "shared_window",
    ("fig9_2s_cma", "allgather", 8): "recursive_doubling",
    ("fig9_2s_cma", "allgather", 2048): "bruck",
    ("fig9_2s_cma", "allgather", 65536): "ring",
    ("fig9_2s_cma", "allgatherv", 8): "bruck_v",
    ("fig9_2s_cma", "allgatherv", 2048): "bruck_v",
    ("fig9_2s_cma", "allgatherv", 65536): "ring_v",
    ("fig9_2s_cma", "bcast", 8): "binomial",
    ("fig9_2s_cma", "bcast", 2048): "binomial",
    ("fig9_2s_cma", "bcast", 65536): "scatter_allgather",
    ("fig9_2s_cma", "gather", 8): "linear",
    ("fig9_2s_cma", "gather", 2048): "linear",
    ("fig9_2s_cma", "gather", 65536): "linear",
    ("fig9_2s_cma", "gatherv", 8): "linear",
    ("fig9_2s_cma", "gatherv", 2048): "linear",
    ("fig9_2s_cma", "gatherv", 65536): "linear",
    ("fig9_2s_cma", "scatter", 8): "linear",
    ("fig9_2s_cma", "scatter", 2048): "linear",
    ("fig9_2s_cma", "scatter", 65536): "linear",
    ("fig9_2s_cma", "reduce", 8): "binomial",
    ("fig9_2s_cma", "reduce", 2048): "binomial",
    ("fig9_2s_cma", "reduce", 65536): "binomial",
    ("fig9_2s_cma", "allreduce", 8): "recursive_doubling",
    ("fig9_2s_cma", "allreduce", 2048): "recursive_doubling",
    ("fig9_2s_cma", "allreduce", 65536): "rabenseifner",
    ("fig9_2s_cma", "reduce_scatter", 8): "recursive_halving",
    ("fig9_2s_cma", "reduce_scatter", 2048): "recursive_halving",
    ("fig9_2s_cma", "reduce_scatter", 65536): "recursive_halving",
    ("fig9_2s_cma", "scan", 8): "binomial",
    ("fig9_2s_cma", "scan", 2048): "binomial",
    ("fig9_2s_cma", "scan", 65536): "binomial",
    ("fig9_2s_cma", "exscan", 8): "binomial",
    ("fig9_2s_cma", "exscan", 2048): "binomial",
    ("fig9_2s_cma", "exscan", 65536): "binomial",
    ("fig9_2s_cma", "alltoall", 8): "bruck",
    ("fig9_2s_cma", "alltoall", 2048): "pairwise",
    ("fig9_2s_cma", "alltoall", 65536): "pairwise",
    ("fig9_2s_cma", "barrier", 8): "smp_hierarchical",
    ("fig9_2s_cma", "barrier", 2048): "smp_hierarchical",
    ("fig9_2s_cma", "barrier", 65536): "smp_hierarchical",
    ("fig9_2s_cma", "hy_allgather", 8): "shared_window",
    ("fig9_2s_cma", "hy_allgather", 2048): "shared_window_3l",
    ("fig9_2s_cma", "hy_allgather", 65536): "shared_window_3l",
    ("fig9_2s_cma", "hy_bcast", 8): "shared_window",
    ("fig9_2s_cma", "hy_bcast", 2048): "shared_window",
    ("fig9_2s_cma", "hy_bcast", 65536): "shared_window",
    ("fig9_2s_pip", "allgather", 8): "recursive_doubling",
    ("fig9_2s_pip", "allgather", 2048): "recursive_doubling",
    ("fig9_2s_pip", "allgather", 65536): "ring",
    ("fig9_2s_pip", "allgatherv", 8): "smp_hierarchical",
    ("fig9_2s_pip", "allgatherv", 2048): "bruck_v",
    ("fig9_2s_pip", "allgatherv", 65536): "ring_v",
    ("fig9_2s_pip", "bcast", 8): "binomial",
    ("fig9_2s_pip", "bcast", 2048): "smp_hierarchical",
    ("fig9_2s_pip", "bcast", 65536): "scatter_allgather",
    ("fig9_2s_pip", "gather", 8): "linear",
    ("fig9_2s_pip", "gather", 2048): "linear",
    ("fig9_2s_pip", "gather", 65536): "linear",
    ("fig9_2s_pip", "gatherv", 8): "linear",
    ("fig9_2s_pip", "gatherv", 2048): "linear",
    ("fig9_2s_pip", "gatherv", 65536): "linear",
    ("fig9_2s_pip", "scatter", 8): "linear",
    ("fig9_2s_pip", "scatter", 2048): "linear",
    ("fig9_2s_pip", "scatter", 65536): "linear",
    ("fig9_2s_pip", "reduce", 8): "binomial",
    ("fig9_2s_pip", "reduce", 2048): "binomial",
    ("fig9_2s_pip", "reduce", 65536): "binomial",
    ("fig9_2s_pip", "allreduce", 8): "recursive_doubling",
    ("fig9_2s_pip", "allreduce", 2048): "recursive_doubling",
    ("fig9_2s_pip", "allreduce", 65536): "ring",
    ("fig9_2s_pip", "reduce_scatter", 8): "recursive_halving",
    ("fig9_2s_pip", "reduce_scatter", 2048): "recursive_halving",
    ("fig9_2s_pip", "reduce_scatter", 65536): "recursive_halving",
    ("fig9_2s_pip", "scan", 8): "binomial",
    ("fig9_2s_pip", "scan", 2048): "binomial",
    ("fig9_2s_pip", "scan", 65536): "binomial",
    ("fig9_2s_pip", "exscan", 8): "binomial",
    ("fig9_2s_pip", "exscan", 2048): "binomial",
    ("fig9_2s_pip", "exscan", 65536): "binomial",
    ("fig9_2s_pip", "alltoall", 8): "bruck",
    ("fig9_2s_pip", "alltoall", 2048): "pairwise",
    ("fig9_2s_pip", "alltoall", 65536): "pairwise",
    ("fig9_2s_pip", "barrier", 8): "smp_hierarchical",
    ("fig9_2s_pip", "barrier", 2048): "smp_hierarchical",
    ("fig9_2s_pip", "barrier", 65536): "smp_hierarchical",
    ("fig9_2s_pip", "hy_allgather", 8): "shared_window",
    ("fig9_2s_pip", "hy_allgather", 2048): "shared_window_3l",
    ("fig9_2s_pip", "hy_allgather", 65536): "shared_window_3l",
    ("fig9_2s_pip", "hy_bcast", 8): "shared_window",
    ("fig9_2s_pip", "hy_bcast", 2048): "shared_window",
    ("fig9_2s_pip", "hy_bcast", 65536): "shared_window",
}


@pytest.mark.parametrize("mini", list(MINIS))
def test_cost_model_selection_snapshot(mini):
    policy = CostModelSelection()
    comm = _probe_comm(mini)
    got = {}
    for op in SNAPSHOT_OPS:
        for nbytes in SIZES:
            req = CollRequest(op=op, nbytes=nbytes,
                              total=nbytes * comm.size, root=0)
            got[(mini, op, nbytes)] = policy.select(comm, req).name
    expected = {k: v for k, v in SNAPSHOT.items() if k[0] == mini}
    assert got == expected


def test_snapshot_covers_all_ops():
    assert {op for _m, op, _n in SNAPSHOT} == set(SNAPSHOT_OPS)
    assert set(SNAPSHOT_OPS) == set(registry.ops())


# -- unit consistency: Algorithm.cost is seconds ---------------------------

@pytest.mark.parametrize("mini", list(MINIS))
def test_registry_cost_delegates_to_model(mini):
    """Every Algorithm.cost equals the model's prediction exactly."""
    comm = _probe_comm(mini)
    for op, algo in CASES:
        if not applicable(mini, op, algo):
            continue
        for nbytes in SIZES:
            req = CollRequest(op=op, nbytes=nbytes,
                              total=nbytes * comm.size, root=0)
            cost = registry.get_algorithm(op, algo).cost(comm, req)
            assert cost == predict_comm(comm, req, algo)
            assert math.isfinite(cost) and cost > 0.0


def test_registry_cost_unit_is_simulated_seconds():
    """Costs share a unit with the DES clock: for each registered pair,
    the registry estimate of a 2 KiB call on its first applicable mini
    is within the conformance tolerance of the measured latency."""
    for op, algo in CASES:
        mini = next(m for m in MINIS if applicable(m, op, algo))
        comm = _probe_comm(mini)
        nbytes = 0 if op == "barrier" else 2048
        req = CollRequest(op=op, nbytes=nbytes,
                          total=nbytes * comm.size, root=0)
        cost = registry.get_algorithm(op, algo).cost(comm, req)
        des = measure_des(mini, op, algo, nbytes)
        tol = TOLERANCES.get((op, algo), DEFAULT_TOL)
        assert abs(cost - des) <= tol * des, (
            f"{op}/{algo} on {mini}: cost {cost * 1e6:.2f} us is not "
            f"simulated-seconds-consistent with DES {des * 1e6:.2f} us"
        )
