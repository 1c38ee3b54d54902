"""The closed-form model at Fig-10 scale: node-class pricing is
bit-identical to node-by-node pricing and costs O(classes) Python work.

``PINNED`` holds ``repr`` of the latency of every allgather-family
(op, algo) form at 10 000 / 65 536 / 1 000 000 Fig-10 ranks x 3 sizes,
captured on the commit *before* ``CostModel`` priced placements by
their run-length node classes (``hazel_hen`` for every form,
``hazel_hen_2s`` for the forms that read the socket tier).
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.model import MODEL_FORMS, CostModel
from repro.bench import sweep as sweeplib
from repro.bench.model import sweep_config
from repro.machine.presets import hazel_hen, hazel_hen_2s
from repro.mpi.collectives.registry import (
    BRIDGE_ALLGATHERV,
    CollRequest,
    Shape,
    table_choice,
)

_FACTORIES = {"hazel_hen": hazel_hen, "hazel_hen_2s": hazel_hen_2s}
_FAMILY = ("allgather", "allgatherv", "hy_allgather")

PINNED = {
    ("hazel_hen", 10_000, 8): {
        ("allgather", "bruck"): "0.0001308296",
        ("allgather", "multileader"): "0.00013964547434052759",
        ("allgather", "recursive_doubling"): "0.00018852360000000003",
        ("allgather", "ring"): "0.005052796",
        ("allgather", "smp_3level"): "0.00021159094868105518",
        ("allgather", "smp_hierarchical"): "0.00021159094868105518",
        ("allgatherv", "bruck_v"): "0.0006308296000000001",
        ("allgatherv", "gather_bcast"): "0.0007529768",
        ("allgatherv", "ring_v"): "0.005552796",
        ("allgatherv", "smp_hierarchical"): "0.0007115909486810552",
        ("hy_allgather", "pipelined_ring"): "0.0007170064000000001",
        ("hy_allgather", "shared_window"): "5.7130815347721824e-05",
        ("hy_allgather", "shared_window_3l"): "5.7130815347721824e-05",
    },
    ("hazel_hen", 10_000, 4096): {
        ("allgather", "bruck"): "0.049153371200000004",
        ("allgather", "multileader"): "0.03083428039999999",
        ("allgather", "recursive_doubling"): "0.080569426",
        ("allgather", "ring"): "0.06280169120000001",
        ("allgather", "smp_3level"): "0.04586535066666665",
        ("allgather", "smp_hierarchical"): "0.04586535066666665",
        ("allgatherv", "bruck_v"): "0.049653371200000004",
        ("allgatherv", "gather_bcast"): "0.090725684",
        ("allgatherv", "ring_v"): "0.06330169120000001",
        ("allgatherv", "smp_hierarchical"): "0.04636535066666665",
        ("hy_allgather", "pipelined_ring"): "0.006222676799999999",
        ("hy_allgather", "shared_window"): "0.0062346963999999816",
        ("hy_allgather", "shared_window_3l"): "0.0062346963999999816",
    },
    ("hazel_hen", 10_000, 131072): {
        ("allgather", "bruck"): "1.5709255055999998",
        ("allgather", "multileader"): "0.9198661652",
        ("allgather", "recursive_doubling"): "2.5760951092",
        ("allgather", "ring"): "1.0048120592",
        ("allgather", "smp_3level"): "1.4006790637333337",
        ("allgather", "smp_hierarchical"): "1.4006790637333337",
        ("allgatherv", "bruck_v"): "1.5714255056",
        ("allgatherv", "gather_bcast"): "2.8846007304",
        ("allgatherv", "ring_v"): "1.0053120592000002",
        ("allgatherv", "smp_hierarchical"): "1.401179063733334",
        ("hy_allgather", "pipelined_ring"): "0.132998792",
        ("hy_allgather", "shared_window"): "0.13300753480000052",
        ("hy_allgather", "shared_window_3l"): "0.13300753480000052",
    },
    ("hazel_hen", 65_536, 8): {
        ("allgather", "bruck"): "0.0006741752",
        ("allgather", "multileader"): "0.005154583600000132",
        ("allgather", "recursive_doubling"): "0.0006705828",
        ("allgather", "ring"): "0.0331086576",
        ("allgather", "smp_3level"): "0.005352704533333167",
        ("allgather", "smp_hierarchical"): "0.005352704533333167",
        ("allgatherv", "bruck_v"): "0.0039509752",
        ("allgatherv", "gather_bcast"): "0.004632468",
        ("allgatherv", "ring_v"): "0.0363854576",
        ("allgatherv", "smp_hierarchical"): "0.008629504533333167",
        ("hy_allgather", "pipelined_ring"): "0.004695235199999999",
        ("hy_allgather", "shared_window"): "0.004832765999999834",
        ("hy_allgather", "shared_window_3l"): "0.004832765999999834",
    },
    ("hazel_hen", 65_536, 4096): {
        ("allgather", "bruck"): "0.32213411839999995",
        ("allgather", "multileader"): "0.20198419960000105",
        ("allgather", "recursive_doubling"): "0.32217153639999996",
        ("allgather", "ring"): "0.4115973904",
        ("allgather", "smp_3level"): "0.30042293706666945",
        ("allgather", "smp_hierarchical"): "0.30042293706666945",
        ("allgatherv", "bruck_v"): "0.32541091839999997",
        ("allgatherv", "gather_bcast"): "0.6476559784000001",
        ("allgatherv", "ring_v"): "0.4148741904",
        ("allgatherv", "smp_hierarchical"): "0.3036997370666695",
        ("hy_allgather", "pipelined_ring"): "0.040771622400000006",
        ("hy_allgather", "shared_window"): "0.04089934200000277",
        ("hy_allgather", "shared_window_3l"): "0.04089934200000277",
    },
    ("hazel_hen", 65_536, 131072): {
        ("allgather", "bruck"): "10.305993216",
        ("allgather", "multileader"): "6.027233479599986",
        ("allgather", "recursive_doubling"): "10.307046441999999",
        ("allgather", "ring"): "6.5855432464",
        ("allgather", "smp_3level"): "9.177091728533341",
        ("allgather", "smp_hierarchical"): "9.177091728533341",
        ("allgatherv", "bruck_v"): "10.309270016",
        ("allgatherv", "gather_bcast"): "20.6196569512",
        ("allgatherv", "ring_v"): "6.5888200464",
        ("allgatherv", "smp_hierarchical"): "9.180368528533341",
        ("hy_allgather", "pipelined_ring"): "0.8727216512000001",
        ("hy_allgather", "shared_window"): "0.8728460940000091",
        ("hy_allgather", "shared_window_3l"): "0.8728460940000091",
    },
    ("hazel_hen", 1_000_000, 8): {
        ("allgather", "bruck"): "0.009665429599999999",
        ("allgather", "multileader"): "0.07852558199992353",
        ("allgather", "recursive_doubling"): "0.0101281668",
        ("allgather", "ring"): "0.505184296",
        ("allgather", "smp_3level"): "0.08146479733333009",
        ("allgather", "smp_hierarchical"): "0.08146479733333009",
        ("allgatherv", "bruck_v"): "0.0596654296",
        ("allgatherv", "gather_bcast"): "0.07253817679999999",
        ("allgatherv", "ring_v"): "0.555184296",
        ("allgatherv", "smp_hierarchical"): "0.13146479733333008",
        ("hy_allgather", "pipelined_ring"): "0.0716340064",
        ("hy_allgather", "shared_window"): "0.07371833719999675",
        ("hy_allgather", "shared_window_3l"): "0.07371833719999675",
    },
    ("hazel_hen", 1_000_000, 4096): {
        ("allgather", "bruck"): "4.9152319712",
        ("allgather", "multileader"): "3.081799780399759",
        ("allgather", "recursive_doubling"): "5.1540301444",
        ("allgather", "ring"): "6.2805296912",
        ("allgather", "smp_3level"): "4.583678850666735",
        ("allgather", "smp_hierarchical"): "4.583678850666735",
        ("allgatherv", "bruck_v"): "4.9652319712",
        ("allgatherv", "gather_bcast"): "11.518974884000002",
        ("allgatherv", "ring_v"): "6.3305296912",
        ("allgatherv", "smp_hierarchical"): "4.633678850666735",
        ("hy_allgather", "pipelined_ring"): "0.6221016768000001",
        ("hy_allgather", "shared_window"): "0.6241761964000679",
        ("hy_allgather", "shared_window_3l"): "0.6241761964000679",
    },
    ("hazel_hen", 1_000_000, 131072): {
        ("allgather", "bruck"): "157.2844921056",
        ("allgather", "multileader"): "91.96519966520724",
        ("allgather", "recursive_doubling"): "164.925889498",
        ("allgather", "ring"): "100.4884600592",
        ("allgather", "smp_3level"): "140.0251485637292",
        ("allgather", "smp_hierarchical"): "140.0251485637292",
        ("allgatherv", "bruck_v"): "157.33449210560002",
        ("allgatherv", "gather_bcast"): "367.05217793040003",
        ("allgatherv", "ring_v"): "100.53846005919999",
        ("allgatherv", "smp_hierarchical"): "140.07514856372921",
        ("hy_allgather", "pipelined_ring"): "13.319501792",
        ("hy_allgather", "shared_window"): "13.321573034795877",
        ("hy_allgather", "shared_window_3l"): "13.321573034795877",
    },
    ("hazel_hen_2s", 10_000, 8): {
        ("allgather", "multileader"): "0.0001440488076738609",
        ("allgather", "smp_3level"): "0.00022169508201438847",
        ("hy_allgather", "shared_window_3l"): "5.436040767386091e-05",
    },
    ("hazel_hen_2s", 10_000, 4096): {
        ("allgather", "multileader"): "0.031009017066666655",
        ("allgather", "smp_3level"): "0.053032530266666655",
        ("hy_allgather", "shared_window_3l"): "0.004194593199999991",
    },
    ("hazel_hen_2s", 10_000, 131072): {
        ("allgather", "multileader"): "0.9253315685333332",
        ("allgather", "smp_3level"): "1.6300669409333337",
        ("hy_allgather", "shared_window_3l"): "0.06758101239999988",
    },
    ("hazel_hen_2s", 65_536, 8): {
        ("allgather", "multileader"): "0.005183978133333465",
        ("allgather", "smp_3level"): "0.005466365733333168",
        ("hy_allgather", "shared_window_3l"): "0.0002307148011717319",
    },
    ("hazel_hen_2s", 65_536, 4096): {
        ("allgather", "multileader"): "0.2031298906666677",
        ("allgather", "smp_3level"): "0.3474214614666694",
        ("hy_allgather", "shared_window_3l"): "0.02750860600000103",
    },
    ("hazel_hen_2s", 65_536, 131072): {
        ("allgather", "multileader"): "6.06305208373332",
        ("allgather", "smp_3level"): "10.680365299333344",
        ("hy_allgather", "shared_window_3l"): "0.4434819819999861",
    },
    ("hazel_hen_2s", 1_000_000, 8): {
        ("allgather", "multileader"): "0.07897548533325686",
        ("allgather", "smp_3level"): "0.08327606813333008",
        ("hy_allgather", "shared_window_3l"): "0.07373546359992354",
    },
    ("hazel_hen_2s", 1_000_000, 4096): {
        ("allgather", "multileader"): "3.099283017066426",
        ("allgather", "smp_3level"): "5.300890530266734",
        ("hy_allgather", "shared_window_3l"): "0.419796593199759",
    },
    ("hazel_hen_2s", 1_000_000, 131072): {
        ("allgather", "multileader"): "92.51174956854057",
        ("allgather", "smp_3level"): "162.96317294092924",
        ("hy_allgather", "shared_window_3l"): "6.768495012407237",
    },
}


def _fig10_model(machine: str, nranks: int) -> CostModel:
    _spec, counts = sweep_config(nranks)
    return CostModel(_FACTORIES[machine](len(counts)), counts)


def test_every_allgather_family_form_is_pinned():
    forms = {form for form in MODEL_FORMS if form[0] in _FAMILY}
    for (machine, _nranks, _nbytes), row in PINNED.items():
        if machine == "hazel_hen":
            assert set(row) == forms


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="literals hold the plain left-to-right float sum() of CPython "
           "< 3.12; 3.12 made sum() compensated (the oracle test below "
           "covers bit-identity on every version)")
@pytest.mark.parametrize("machine,nranks", sorted(
    {(machine, nranks) for machine, nranks, _nbytes in PINNED}))
def test_scale_latencies_bit_identical(machine, nranks):
    model = _fig10_model(machine, nranks)
    for (m, r, nbytes), row in PINNED.items():
        if (m, r) != (machine, nranks):
            continue
        for (op, algo), pinned in row.items():
            assert repr(model.predict(op, algo, nbytes)) == pinned, (
                f"{machine} p={nranks} n={nbytes} {op}/{algo}")


# -- _bridge_agv against a node-by-node oracle --------------------------------

def _bridge_algo(model: CostModel, total: float) -> str:
    """The registry table's pick for the inter-leader allgatherv: one
    rank per node, *total* result bytes."""
    shape = Shape(model.N, model.N, 1, model.sockets)
    req = CollRequest("allgatherv", total / model.N, total)
    return table_choice("allgatherv", shape, req, model.tuning,
                        BRIDGE_ALLGATHERV).name


def _oracle_bridge_agv(model: CostModel, counts, block_of, total, conc,
                       t=0.0):
    """*t* plus the bridge allgatherv priced one node at a time — what
    ``_bridge_agv`` must equal bit for bit."""
    blocks = [block_of(c) for c in counts]
    nnodes = len(blocks)
    if _bridge_algo(model, total) == "bruck_v":
        avg = sum(blocks) / nnodes
        pof = 1
        while pof < nnodes:
            t += model.net_round(min(pof, nnodes - pof) * avg, conc)
            pof <<= 1
        return t
    times = [model.net_round(b, conc) for b in blocks]
    return t + (sum(times) - min(times))


@st.composite
def _count_vectors(draw):
    """257-2 000 ranks from 1-4 distinct per-node counts in arbitrary
    order (``[24, 16, 24, 24, 7]``): classes repeat and interleave."""
    values = draw(st.lists(st.integers(1, 48), min_size=1, max_size=4,
                           unique=True))
    target = draw(st.integers(257, 2000))
    counts = []
    while sum(counts) < target:
        counts.append(draw(st.sampled_from(values)))
    if sum(counts) > 2000:
        counts.pop()
    return counts


@settings(max_examples=60, deadline=None)
@given(counts=_count_vectors(),
       nbytes=st.sampled_from([1, 8, 100, 4096, 8193, 65536]),
       split=st.sampled_from([1, 2, 3]),
       conc=st.sampled_from([1, 2]),
       algo=st.sampled_from(["bruck_v", "ring_v"]))
def test_bridge_agv_matches_node_by_node_oracle(counts, nbytes, split, conc,
                                                algo):
    model = CostModel(hazel_hen(len(counts)), counts)
    assert not model.exact
    n = float(nbytes)
    limit = model.tuning.allgatherv_bruck_max_total
    total = float(limit if algo == "bruck_v" else limit + 1)
    assert _bridge_algo(model, total) == algo

    def block_of(c):
        return math.ceil(c / split) * n

    # From zero, and accumulated onto a caller's running time.
    for t in (0.0, 3.1e-6):
        want = _oracle_bridge_agv(model, counts, block_of, total, conc, t)
        assert repr(model._bridge_agv(block_of, total, conc, t)) == repr(want)


# -- work is per class, not per node ------------------------------------------

@pytest.mark.parametrize("nranks", [10_000, 1_000_000])
def test_fresh_prediction_prices_classes_not_nodes(nranks):
    spec, counts = sweep_config(nranks)
    for op, algo in sorted(f for f in MODEL_FORMS if f[0] in _FAMILY):
        model = CostModel(spec, counts)
        assert len(model.classes) == 2
        calls = 0
        net_round = model.net_round

        def counting(m, conc):
            nonlocal calls
            calls += 1
            return net_round(m, conc)

        model.net_round = counting
        model.predict(op, algo, 4096)
        assert calls <= 64, f"{op}/{algo} at {nranks}: {calls} net_round"


# -- one model per configuration ----------------------------------------------

def _point(**fields):
    base = dict(machine="hazel_hen_2s", counts=(12, 12, 8), nbytes=64,
                engine="model", algo="shared_window")
    return sweeplib.SweepPoint(**{**base, **fields})


def test_model_factory_shares_one_model_per_configuration():
    model = sweeplib.model_for(_point())
    assert sweeplib.model_for(_point(nbytes=4096, algo="pipelined_ring",
                                     variant="pure")) is model
    # The preset's own transport, named or not, is one configuration.
    assert sweeplib.model_for(_point(transport="shm_two_copy")) is model
    other_transport = sweeplib.model_for(_point(transport="pip_direct"))
    other_mode = sweeplib.model_for(_point(socket_mode="scatter"))
    assert other_transport is not model and other_mode is not model
    assert other_transport.tp.name == "pip_direct"
    assert other_mode.socket_mode == "scatter"
    assert sweeplib.model_for(_point(counts=(12, 8, 12))) is not model


def test_model_factory_is_bounded():
    bound = sweeplib._cost_model.cache_info().maxsize
    assert bound is not None
    for nodes in range(1, bound + 8):
        sweeplib.model_for(_point(machine="testing", counts=(2,) * nodes))
    assert sweeplib._cost_model.cache_info().currsize == bound
