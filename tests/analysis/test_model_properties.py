"""Property tests for the closed-form model.

For every registered (op, algo) pair: predictions are finite and
positive, deterministic across calls, and non-decreasing in both the
message size and the rank count.  The model's hop count is the
simulator's worst pair.
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro.analysis.model import CostModel, predict
from repro.machine import presets
from repro.mpi.collectives import registry

from .conformance import CASES

_POF2_ONLY = {
    ("allgather", "recursive_doubling"),
    ("allreduce", "rabenseifner"),
    ("reduce_scatter", "recursive_halving"),
}

#: Message sizes spanning eager, rendezvous and pipeline regimes.
NBYTES = (1, 64, 4096, 65536, 1 << 20)


def _rank_grid(op: str, algo: str):
    """(nranks, ppn) points, ascending in nranks, honoring the pair's
    applicability constraints (single node for shm-only, multi-node
    for hierarchical/hybrid, power-of-two where required)."""
    if (op, algo) == ("barrier", "shm_flags"):
        return [(q, q) for q in (2, 4, 8, 16)]
    if algo.startswith("smp_") or algo == "multileader" \
            or op.startswith("hy_"):
        return [(16, 8), (32, 8), (64, 8), (128, 8)]
    if (op, algo) in _POF2_ONLY:
        return [(8, 8), (16, 8), (32, 8), (64, 8), (512, 8)]
    return [(8, 8), (24, 8), (48, 8), (96, 8), (520, 8)]


@pytest.mark.parametrize(
    "op,algo", CASES, ids=[f"{o}-{a}" for o, a in CASES]
)
@pytest.mark.parametrize("machine", ["hazel_hen", "vulcan"])
def test_finite_positive_deterministic(machine, op, algo):
    for nranks, ppn in _rank_grid(op, algo):
        for nbytes in NBYTES:
            t = predict(machine, None, op, algo, nranks, ppn, nbytes)
            assert math.isfinite(t) and t > 0.0, (
                f"{op}/{algo} p={nranks} n={nbytes}: {t}"
            )
            again = predict(machine, None, op, algo, nranks, ppn,
                            nbytes)
            assert again == t


@pytest.mark.parametrize(
    "op,algo", CASES, ids=[f"{o}-{a}" for o, a in CASES]
)
@pytest.mark.parametrize("machine", ["hazel_hen", "vulcan"])
def test_nondecreasing_in_nbytes(machine, op, algo):
    for nranks, ppn in _rank_grid(op, algo):
        prev = 0.0
        for nbytes in NBYTES:
            t = predict(machine, None, op, algo, nranks, ppn, nbytes)
            assert t >= prev, (
                f"{op}/{algo} p={nranks}: t({nbytes}) = {t} < {prev}"
            )
            prev = t


@pytest.mark.parametrize(
    "op,algo", CASES, ids=[f"{o}-{a}" for o, a in CASES]
)
@pytest.mark.parametrize("machine", ["hazel_hen", "vulcan"])
def test_nondecreasing_in_nranks(machine, op, algo):
    for nbytes in (64, 65536):
        prev = 0.0
        for nranks, ppn in _rank_grid(op, algo):
            t = predict(machine, None, op, algo, nranks, ppn, nbytes)
            assert t >= prev, (
                f"{op}/{algo} n={nbytes}: t(p={nranks}) = {t} < {prev}"
            )
            prev = t


def test_registry_and_cases_agree():
    registered = {
        (op, algo.name)
        for op in registry.ops()
        for algo in registry.algorithms_for(op)
    }
    assert registered == set(CASES)


@pytest.mark.parametrize(
    "make", [presets.hazel_hen, presets.vulcan, presets.testing_machine],
    ids=["dragonfly", "fattree", "flat"])
def test_representative_hops_are_the_des_worst_pair(make):
    """Priced without a topology object, the model's hop count over n
    nodes is the largest the simulator charges between two of them."""
    for n in range(1, 129):
        spec = make(n)
        topo = spec.build_topology()
        worst = max((topo.hops(a, b)
                     for a, b in itertools.combinations(range(n), 2)),
                    default=0)
        assert CostModel(spec, (1,) * n).hops == worst, n
