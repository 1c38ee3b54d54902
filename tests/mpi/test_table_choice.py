"""One selection table: ``TableSelection`` on a live communicator and
``table_choice`` on its shape are the same decision.

The analytic cost model and ``repro-model``/``/best`` never hold a
communicator; they ask :func:`~repro.mpi.collectives.registry.table_choice`
with a :class:`~repro.mpi.collectives.registry.Shape`.  These tests pin
that the two entry points agree on every registered op, on the inner
stage candidate sets the model prices, on both sides of every tuning
threshold, and that ``CostModel.shape`` is the shape the simulator
derives for the same placement.
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis.model import CostModel
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen, hazel_hen_2s
from repro.mpi import run_program
from repro.mpi.collectives import registry
from repro.mpi.collectives.registry import (
    BRIDGE_ALLGATHERV,
    BRIDGE_ALLREDUCE,
    BRIDGE_BCAST,
    SHM_BCAST,
    CollRequest,
    Shape,
    TableSelection,
    comm_shape,
    table_choice,
)
from repro.mpi.collectives.tuning import cray_mpich_tuning, openmpi_tuning
from repro.mpi.errors import MPIError

#: name -> (machine factory, placement)
PLACEMENTS = {
    "one_node": (hazel_hen, Placement.block(1, 8)),
    "pair": (hazel_hen, Placement.block(1, 2)),
    "rank_per_node": (hazel_hen, Placement.block(8, 1)),
    "block": (hazel_hen, Placement.block(4, 4)),
    "irregular": (hazel_hen, Placement.irregular([5, 3])),
    "non_pof2": (hazel_hen, Placement.block(3, 3)),
    "2s_compact": (hazel_hen_2s, Placement.block(2, 8)),
    "2s_scatter": (hazel_hen_2s,
                   Placement.block(2, 8).with_socket_mode("scatter")),
}

TUNINGS = {
    "cray": cray_mpich_tuning(),
    "openmpi": openmpi_tuning(),
    "flat": cray_mpich_tuning().with_(smp_aware=False),
}

#: (op, candidates): every registered op unrestricted, plus the inner
#: stage candidate sets the composite algorithms and the model use.
CASES = [(op, None) for op in registry.ops()] + [
    ("allgatherv", BRIDGE_ALLGATHERV),
    ("bcast", BRIDGE_BCAST),
    ("allreduce", BRIDGE_ALLREDUCE),
    ("bcast", SHM_BCAST),
]


def _sizes(t) -> list[int]:
    """Byte counts on both sides of every size threshold of *t*."""
    limits = (
        t.allgather_rd_max_total, t.allgather_bruck_max_total,
        t.allgatherv_bruck_max_total, t.bcast_binomial_max,
        4 * t.bcast_binomial_max, 8 * t.bcast_pipeline_chunk,
        t.allreduce_rd_max, t.reduce_scatter_halving_min,
        t.alltoall_bruck_max,
    )
    return sorted({0, 1} | {v for lim in limits for v in (lim, lim + 1)})


@functools.lru_cache(maxsize=None)
def _world(pkey: str, tkey: str):
    """A finished world communicator of the placement under the tuning."""
    factory, placement = PLACEMENTS[pkey]
    box = []

    def probe(mpi):
        box.append(mpi.world)
        yield from mpi.world.barrier()

    run_program(factory(placement.num_nodes), None, probe,
                placement=placement, payload="cost-only",
                tuning=TUNINGS[tkey])
    return box[0]


def _pick(fn):
    try:
        return fn().name
    except MPIError:
        return None


@pytest.mark.parametrize("tkey", sorted(TUNINGS))
@pytest.mark.parametrize("pkey", sorted(PLACEMENTS))
def test_table_selection_is_table_choice_on_the_shape(pkey, tkey):
    comm = _world(pkey, tkey)
    shape = comm_shape(comm)
    tuning = TUNINGS[tkey]
    assert comm.ctx.tuning is tuning
    policy = TableSelection()
    checked = 0
    for op, cands in CASES:
        for size in _sizes(tuning):
            for req in (CollRequest(op, size, size, 0),
                        CollRequest(op, size, size * comm.size, 0)):
                live = _pick(lambda: policy.select(comm, req, cands))
                table = _pick(lambda: table_choice(op, shape, req, tuning,
                                                   cands))
                assert live == table, (pkey, tkey, op, cands, req)
                checked += live is not None
    assert checked > 0


@pytest.mark.parametrize("pkey", sorted(PLACEMENTS))
def test_cost_model_shape_is_the_world_shape(pkey):
    factory, placement = PLACEMENTS[pkey]
    spec = factory(placement.num_nodes)
    world = _world(pkey, "cray")
    assert CostModel(spec, placement.counts()).shape == comm_shape(world)


def test_shape_fields():
    world = _world("irregular", "cray")
    assert comm_shape(world) == Shape(size=8, nodes=2, max_ppn=5, sockets=1)
    assert comm_shape(_world("2s_scatter", "cray")).sockets == 2
