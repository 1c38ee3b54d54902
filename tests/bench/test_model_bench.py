"""``repro-model`` and ``/best`` take their candidates from the registry.

Both price every registered allgather(v) and Hy_Allgather algorithm
that is structurally applicable to the configuration's shape, in
registration order, so an algorithm registered for a two-socket node
is priced there without anybody listing it.  The pins below hold the
answers on the single-socket presets the benchmark asks about, and the
tie check shows why registration order cannot decide a pick.
"""

from __future__ import annotations

import pytest

from repro.analysis.model import CostModel
from repro.bench import model as modelbench
from repro.bench.model import SWEEP_SIZES, candidates, sweep_config
from repro.bench.service import SweepService

#: (machine, nodes, ppn) at 512 elements -> (recommended algo, its
#: latency_us, every candidate from fastest to slowest).
BEST_PINS = {
    ("hazel_hen", 2, 24): (
        "shared_window", 16.9304,
        "shared_window pipelined_ring multileader bruck ring "
        "smp_hierarchical"),
    ("hazel_hen", 4, 12): (
        "shared_window", 25.9056,
        "shared_window pipelined_ring multileader bruck ring "
        "smp_hierarchical"),
    ("hazel_hen", 8, 6): (
        "shared_window", 33.4232,
        "shared_window pipelined_ring bruck ring multileader "
        "smp_hierarchical"),
    ("hazel_hen", 16, 24): (
        "shared_window", 218.55600000000004,
        "shared_window pipelined_ring multileader smp_hierarchical bruck "
        "ring"),
    ("hazel_hen", 6, 12): (
        "shared_window", 49.936000000000014,
        "shared_window pipelined_ring multileader bruck ring "
        "smp_hierarchical"),
    ("vulcan", 2, 24): (
        "shared_window", 26.413999999999998,
        "shared_window pipelined_ring multileader bruck ring "
        "smp_hierarchical"),
    ("vulcan", 4, 12): (
        "shared_window", 46.786,
        "shared_window pipelined_ring multileader ring smp_hierarchical "
        "bruck"),
    ("vulcan", 8, 6): (
        "shared_window", 75.54199999999999,
        "shared_window pipelined_ring ring multileader bruck "
        "smp_hierarchical"),
    ("vulcan", 16, 24): (
        "shared_window", 343.15,
        "shared_window pipelined_ring multileader smp_hierarchical ring "
        "bruck"),
    ("vulcan", 6, 12): (
        "shared_window", 75.64999999999999,
        "shared_window pipelined_ring multileader ring smp_hierarchical "
        "bruck"),
}


def _best(machine, nodes, ppn):
    return SweepService(None).best(
        {"machine": machine, "nodes": nodes, "ppn": ppn, "elements": 512})


def test_best_prices_the_three_level_forms_on_two_sockets():
    doc = _best("hazel_hen_2s", 4, 24)
    algos = {row["algo"] for row in doc["candidates"]}
    assert {"smp_3level", "shared_window_3l"} <= algos
    assert doc["recommendation"]["algo"] == "shared_window_3l"
    assert doc["recommendation"]["latency_us"] == 26.6356


@pytest.mark.parametrize("config", sorted(BEST_PINS))
def test_best_answers_on_single_socket_presets(config):
    algo, latency_us, order = BEST_PINS[config]
    doc = _best(*config)
    assert doc["recommendation"] == {
        "variant": "hybrid", "op": "hy_allgather", "algo": algo,
        "latency_us": latency_us,
    }
    assert " ".join(row["algo"] for row in doc["candidates"]) == order


@pytest.mark.parametrize("config", sorted(BEST_PINS) +
                         [("hazel_hen_2s", 4, 24)])
def test_best_candidates_never_tie(config):
    latencies = [row["latency_us"] for row in _best(*config)["candidates"]]
    assert len(set(latencies)) == len(latencies)


@pytest.mark.parametrize("machine", ["hazel_hen", "vulcan"])
def test_sweep_candidates_never_tie(machine):
    """No model-sweep cell has two candidates at the same latency, so
    the order candidates are priced in cannot change a pick."""
    cells = 0
    for nranks in modelbench.SWEEP_RANKS + (1536,):
        spec, counts = sweep_config(nranks, machine)
        model = CostModel(spec, counts)
        pure_op = "allgatherv" if len(model.classes) > 1 else "allgather"
        for nbytes in SWEEP_SIZES:
            for op in (pure_op, "hy_allgather"):
                names = candidates(model, op, nbytes)
                latencies = {model.predict(op, a, nbytes) for a in names}
                assert len(latencies) == len(names), (nranks, nbytes, op)
                cells += 1
    assert cells == 120


def test_candidates_follow_registration_order():
    spec, counts = sweep_config(1536)
    model = CostModel(spec, counts)
    assert candidates(model, "allgather", 8) == [
        "bruck", "ring", "smp_hierarchical", "multileader"]
    assert candidates(model, "hy_allgather", 8) == [
        "shared_window", "pipelined_ring"]


def test_sweep_rejects_nonpositive_ranks(capsys):
    assert modelbench.main(["sweep", "--ranks", "0"]) == 2
    assert "--ranks must be >= 1" in capsys.readouterr().err
