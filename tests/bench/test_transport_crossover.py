"""The committed 2- vs 3-level transport crossover result stays exact.

``BENCH_transport_crossover.json`` is the committed benchmark backing
the socket-tier acceptance claim: on the honest 2-socket Hazel Hen
preset the three-level Hy_Allgather (per-socket bridges) beats the
two-level exchange at mid/large message sizes.  The simulator is
deterministic, so the test regenerates every point and compares the
latencies exactly — any drift in the socket tier, the transports, or
the collectives shows up as a diff against the committed numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.figures import get_figure

BENCH_PATH = Path(__file__).resolve().parents[2] / (
    "BENCH_transport_crossover.json"
)

#: Latency columns regenerated and compared exactly (microseconds).
_LATENCY_KEYS = (
    "flat_us",
    "shm_2l_us", "shm_3l_us",
    "cma_2l_us", "cma_3l_us",
    "pip_2l_us", "pip_3l_us",
)


@pytest.fixture(scope="module")
def committed() -> dict:
    with BENCH_PATH.open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def regenerated() -> dict:
    result = get_figure("ext_transport_crossover").run("quick")
    return {f"{row['elements']}el": row for row in result.rows}


def test_committed_points_match_current_code(committed, regenerated):
    assert set(committed["points"]) == set(regenerated)
    for key, fresh in regenerated.items():
        pinned = committed["points"][key]
        for col in _LATENCY_KEYS:
            assert fresh[col] == pinned[col], (key, col)


def test_three_level_beats_two_level_somewhere(committed):
    """The acceptance point: shared_window_3l wins at >= 1 size on the
    2-socket preset (and on every registered transport)."""
    points = committed["points"].values()
    for prefix in ("shm", "cma", "pip"):
        assert any(
            p[f"{prefix}_3l_us"] < p[f"{prefix}_2l_us"] for p in points
        ), prefix


def test_three_level_pays_at_small_messages(committed):
    """The crossover is real, not a uniform win: the extra
    leader-completion round costs at the smallest size."""
    smallest = committed["points"]["1el"]
    assert smallest["shm_3l_us"] > smallest["shm_2l_us"]


def test_model_transports_command_sees_the_same_crossover():
    """The analytic companion (``repro-model transports``) agrees with
    the DES benchmark on the shape: 3-level loses at 8 B, wins by
    64 KiB, on every transport."""
    from repro.bench.model import run_transports

    doc = run_transports(sizes=(8, 65536))
    assert set(doc["transports"]) == {
        "shm_two_copy", "cma_single_copy", "pip_direct",
    }
    for transport, data in doc["transports"].items():
        small, large = data["rows"]
        assert small["three_level_s"] > small["two_level_s"], transport
        assert large["three_level_s"] < large["two_level_s"], transport
        assert data["crossover_nbytes"], transport


def test_two_level_matches_flat_model_closely(committed):
    """The two-level exchange barely touches the socket tier (leaders
    only); its 2-socket latency stays within 2% of the flat node model
    at every size — the socket tier does not tax the existing path."""
    for point in committed["points"].values():
        assert point["shm_2l_us"] == pytest.approx(
            point["flat_us"], rel=0.02
        )
