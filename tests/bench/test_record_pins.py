"""Replay records pinned to literals, one per collective and machine.

A record is what a pocket simulation measured for one dispatch shape —
per-rank tick durations, exit order, counter and traffic increments,
profile increments, results and span templates.  Every later hit of the
shape applies it instead of simulating, so a record that drifts moves
virtual time everywhere it is replayed.  ``record_pins.json`` holds, per
case of ``test_replay_all_ops.py`` (each registered op, ``hy_allreduce``
and the FlagSync hybrid allgather) on a flat and a two-socket
``hazel_hen``, the single record a 3-repetition ``replay="loop"`` job
makes; templates are pinned as the SHA-256 of their shift-normalized
form.  How a pocket reaches its steady state may change, the record it
measures may not.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen, hazel_hen_2s
from repro.mpi import run_program
from repro.mpi.collectives import replay as replaylib
from tests.bench import test_replay_all_ops as all_ops

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "record_pins.json"), encoding="utf-8") as _fh:
    PINS = json.load(_fh)

MACHINES = {"flat": hazel_hen, "2socket": hazel_hen_2s}
FLAG_SYNC = "hy_allgather+flagsync"
CASES = all_ops.CASES + [FLAG_SYNC]
IDS = [f"{case}-{machine}" for case in CASES for machine in MACHINES]


def _run(case: str, machine: str) -> None:
    if case == FLAG_SYNC:
        from repro.bench.osu import hybrid_allgather_program
        from repro.core import FlagSync

        program = hybrid_allgather_program
        kwargs = {"nbytes_per_rank": 64, "reps": 3, "sync": FlagSync()}
    else:
        program = all_ops._program
        kwargs = {"op": case, "reps": 3}
    run_program(
        MACHINES[machine](all_ops.NODES), None, program,
        placement=Placement.block(all_ops.NODES, all_ops.PPN),
        payload="cost-only", trace="phase", replay="loop",
        program_kwargs=kwargs,
    )


def observe(case_id: str) -> dict:
    """Everything ``record_pins.json`` pins, for one case."""
    case, machine = case_id.rsplit("-", 1)
    replaylib.clear_cache()
    _run(case, machine)
    (rec,) = replaylib._CACHE.values()
    observed = {
        "d_ticks": rec.d_ticks,
        "exit_order": rec.exit_order,
        "counters": rec.counters,
        "per_pair": sorted(
            (*pair, c, b) for pair, (c, b) in rec.per_pair.items()
        ),
        "max_hops": rec.max_hops,
        "events": rec.events,
        "profiles": rec.profiles,
        "results": repr(rec.results),
        "templates_sha256": hashlib.sha256(json.dumps(
            replaylib._normalize(rec.templates), sort_keys=True,
            default=repr,
        ).encode()).hexdigest(),
    }
    # Tuples become lists, exactly as the pins were written.
    return json.loads(json.dumps(observed))


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(IDS)


@pytest.mark.parametrize("case_id", IDS)
def test_record_is_pinned(case_id):
    assert observe(case_id) == PINS[case_id]
