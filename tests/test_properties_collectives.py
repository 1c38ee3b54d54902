"""Property-based tests over randomized collective configurations,
plus an exhaustive sweep of every registered collective algorithm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine import Placement
from repro.machine import testing_machine as make_testing_spec
from repro.mpi.collectives import registry
from repro.mpi.collectives.registry import (
    CollRequest,
    ForcedSelection,
    Shape,
)
from repro.mpi.collectives.tuning import generic_tuning
from repro.mpi.constants import ReduceOp
from tests.helpers import returns_of, run

_CHEAP = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Random irregular placements of 2..10 ranks over 1..4 nodes.
irregular_placements = st.lists(
    st.integers(1, 4), min_size=1, max_size=4
).map(Placement.irregular)


@given(placement=irregular_placements, root=st.integers(0, 100))
@_CHEAP
def test_bcast_any_root_any_placement(placement, root):
    size = placement.num_ranks
    root %= size

    def prog(mpi):
        comm = mpi.world
        buf = (
            np.arange(5.0) + root if comm.rank == root else np.empty(5)
        )
        out = yield from comm.bcast(buf, root=root)
        return list(np.asarray(out).reshape(-1))

    rets = returns_of(prog, nodes=placement.num_nodes, cores=4,
                      placement=placement)
    expected = [float(root + i) for i in range(5)]
    assert all(r == expected for r in rets)


@given(placement=irregular_placements,
       op=st.sampled_from([ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX]))
@_CHEAP
def test_allreduce_matches_numpy_any_placement(placement, op):
    size = placement.num_ranks

    def prog(mpi):
        comm = mpi.world
        vec = np.array([float(comm.rank), float(comm.rank % 3)])
        out = yield from comm.allreduce(vec, op)
        return list(np.asarray(out))

    rets = returns_of(prog, nodes=placement.num_nodes, cores=4,
                      placement=placement)
    ref_fn = {
        ReduceOp.SUM: np.sum, ReduceOp.MIN: np.min, ReduceOp.MAX: np.max,
    }[op]
    contributions = np.array(
        [[float(r), float(r % 3)] for r in range(size)]
    )
    expected = list(ref_fn(contributions, axis=0))
    assert all(r == expected for r in rets)


@given(placement=irregular_placements, extra=st.integers(0, 6))
@_CHEAP
def test_allgatherv_irregular_sizes_any_placement(placement, extra):
    def prog(mpi):
        comm = mpi.world
        count = 1 + (comm.rank + extra) % 4
        mine = np.full(count, float(comm.rank))
        blocks = yield from comm.allgatherv(mine)
        return [
            (np.asarray(b).size, float(np.asarray(b).reshape(-1)[0]))
            for b in blocks
        ]

    rets = returns_of(prog, nodes=placement.num_nodes, cores=4,
                      placement=placement)
    expected = [
        (1 + (r + extra) % 4, float(r))
        for r in range(placement.num_ranks)
    ]
    assert all(r == expected for r in rets)


@given(placement=irregular_placements)
@_CHEAP
def test_hybrid_bcast_equals_pure_any_placement(placement):
    from repro.core import HybridContext

    def pure(mpi):
        comm = mpi.world
        buf = np.arange(4.0) if comm.rank == 0 else np.empty(4)
        out = yield from comm.bcast(buf, root=0)
        return list(np.asarray(out).reshape(-1))

    def hybrid(mpi):
        comm = mpi.world
        ctx = yield from HybridContext.create(comm)
        buf = yield from ctx.bcast_buffer(32)
        if comm.rank == 0:
            buf.node_view(np.float64)[:] = np.arange(4.0)
        yield from ctx.bcast(buf, root=0)
        return list(buf.node_view(np.float64))

    a = returns_of(pure, nodes=placement.num_nodes, cores=4,
                   placement=placement)
    b = returns_of(hybrid, nodes=placement.num_nodes, cores=4,
                   placement=placement)
    assert a == b


@given(
    nranks=st.integers(2, 8),
    blocks_scale=st.integers(1, 5),
)
@_CHEAP
def test_reduce_scatter_conserves_total(nranks, blocks_scale):
    """Sum of the scattered reductions equals the reduction of sums."""

    def prog(mpi):
        comm = mpi.world
        vec = (np.arange(float(comm.size * blocks_scale))
               * (comm.rank + 1))
        mine = yield from comm.reduce_scatter(vec, ReduceOp.SUM)
        return float(np.asarray(mine).sum())

    rets = returns_of(prog, nodes=1, cores=nranks, nprocs=nranks)
    total_of_parts = sum(rets)
    full = sum(
        (np.arange(float(nranks * blocks_scale)) * (r + 1)).sum()
        for r in range(nranks)
    )
    assert total_of_parts == float(full)


# ---------------------------------------------------------------------------
# Exhaustive registry sweep: every registered algorithm of every mpi-layer
# op must produce bit-identical data to the flat reference implementation,
# over pof2 / non-pof2 sizes and single-/multi-node placements.

_PLACEMENTS = {
    "1x4_pof2": Placement.irregular([4]),
    "1x3_nonpof2": Placement.irregular([3]),
    "2x2_hier": Placement.irregular([2, 2]),
    "3+2_hier_nonpof2": Placement.irregular([3, 2]),
}

_ALGO_CASES = [
    (op, algo.name)
    for op in sorted(registry.ops())
    if not op.startswith("hy_")  # hybrid ops run via repro.core, not dispatch
    for algo in registry.algorithms_for(op)
]


def _prog_allgather(mpi):
    comm = mpi.world
    out = yield from comm.allgather(np.arange(3.0) + 10 * comm.rank)
    return [list(np.asarray(b)) for b in out]


def _prog_allgatherv(mpi):
    comm = mpi.world
    mine = np.full(1 + comm.rank % 3, float(comm.rank))
    out = yield from comm.allgatherv(mine)
    return [list(np.asarray(b)) for b in out]


def _prog_bcast(mpi):
    comm = mpi.world
    buf = np.arange(4.0) + 7 if comm.rank == 0 else np.empty(4)
    out = yield from comm.bcast(buf, root=0)
    return list(np.asarray(out))


def _prog_gather(mpi):
    comm = mpi.world
    out = yield from comm.gather(np.array([float(comm.rank), 2.0]), root=0)
    if out is None:
        return None
    return [list(np.asarray(b)) for b in out]


def _prog_gatherv(mpi):
    comm = mpi.world
    mine = np.full(1 + comm.rank % 2, float(comm.rank))
    out = yield from comm.gatherv(mine, root=0)
    if out is None:
        return None
    return [list(np.asarray(b)) for b in out]


def _prog_scatter(mpi):
    comm = mpi.world
    parts = (
        [np.full(2, float(r * r)) for r in range(comm.size)]
        if comm.rank == 0 else None
    )
    out = yield from comm.scatter(parts, root=0)
    return list(np.asarray(out))


def _prog_reduce(mpi):
    comm = mpi.world
    out = yield from comm.reduce(
        np.arange(3.0) * (comm.rank + 1), ReduceOp.SUM, root=0
    )
    return None if out is None else list(np.asarray(out))


def _prog_allreduce(mpi):
    comm = mpi.world
    out = yield from comm.allreduce(
        np.arange(3.0) * (comm.rank + 1), ReduceOp.SUM
    )
    return list(np.asarray(out))


def _prog_alltoall(mpi):
    comm = mpi.world
    sends = [
        np.array([float(comm.rank * comm.size + peer)])
        for peer in range(comm.size)
    ]
    out = yield from comm.alltoall(sends)
    return [list(np.asarray(b)) for b in out]


def _prog_scan(mpi):
    comm = mpi.world
    out = yield from comm.scan(np.arange(2.0) + comm.rank, ReduceOp.SUM)
    return list(np.asarray(out))


def _prog_exscan(mpi):
    comm = mpi.world
    out = yield from comm.exscan(np.arange(2.0) + comm.rank, ReduceOp.SUM)
    return None if out is None else list(np.asarray(out))


def _prog_reduce_scatter(mpi):
    comm = mpi.world
    vec = np.arange(float(comm.size * 2)) * (comm.rank + 1)
    out = yield from comm.reduce_scatter(vec, ReduceOp.SUM)
    return list(np.asarray(out))


def _prog_barrier(mpi):
    yield from mpi.world.barrier()
    return mpi.world.rank


_PROGRAMS = {
    "allgather": _prog_allgather,
    "allgatherv": _prog_allgatherv,
    "allreduce": _prog_allreduce,
    "alltoall": _prog_alltoall,
    "barrier": _prog_barrier,
    "bcast": _prog_bcast,
    "exscan": _prog_exscan,
    "gather": _prog_gather,
    "gatherv": _prog_gatherv,
    "reduce": _prog_reduce,
    "reduce_scatter": _prog_reduce_scatter,
    "scan": _prog_scan,
    "scatter": _prog_scatter,
}

_flat_refs: dict[tuple[str, str], object] = {}


def _shape_of(pkey):
    """The world communicator shape of a placement on the 4-core
    testing machine, for applicability checks."""
    counts = _PLACEMENTS[pkey].counts()
    sockets = make_testing_spec(len(counts), 4).node.sockets
    return Shape(sum(counts), len(counts), max(counts), sockets)


def _flat_reference(pkey, op):
    """Per-rank results of the flat (smp_aware=False) implementation."""
    if (pkey, op) not in _flat_refs:
        placement = _PLACEMENTS[pkey]
        _flat_refs[(pkey, op)] = returns_of(
            _PROGRAMS[op], nodes=placement.num_nodes, cores=4,
            placement=placement,
            tuning=generic_tuning().with_(smp_aware=False),
        )
    return _flat_refs[(pkey, op)]


@pytest.mark.parametrize("pkey", sorted(_PLACEMENTS))
@pytest.mark.parametrize(("op", "algo_name"), _ALGO_CASES)
def test_every_algorithm_matches_flat_reference(pkey, op, algo_name):
    placement = _PLACEMENTS[pkey]
    algo = registry.get_algorithm(op, algo_name)
    req = CollRequest(op=op, nbytes=0, total=0, root=0)
    if not algo.applicable(_shape_of(pkey), req):
        pytest.skip(f"{op}/{algo_name} not applicable on {pkey}")
    result = run(
        _PROGRAMS[op], nodes=placement.num_nodes, cores=4,
        placement=placement, trace=True,
        policy=ForcedSelection({op: algo_name}),
    )
    assert result.returns == _flat_reference(pkey, op)
    dispatched = {(r["op"], r["algo"]) for r in result.trace}
    assert (op, algo_name) in dispatched


@given(seed=st.integers(0, 10_000))
@_CHEAP
def test_engine_time_never_decreases_through_collectives(seed):
    rng = np.random.default_rng(seed)
    delays = rng.random(4) * 1e-4

    def prog(mpi):
        comm = mpi.world
        stamps = [mpi.now]
        yield mpi.compute(float(delays[comm.rank]))
        stamps.append(mpi.now)
        yield from comm.barrier()
        stamps.append(mpi.now)
        yield from comm.allgather(np.array([1.0]))
        stamps.append(mpi.now)
        return stamps

    rets = returns_of(prog, nodes=2, cores=2)
    for stamps in rets:
        assert stamps == sorted(stamps)
