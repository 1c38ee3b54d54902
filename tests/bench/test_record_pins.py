"""Replay records pinned to literals, one per collective and machine.

A record is what one measured run of a dispatch shape produced —
per-rank tick durations, exit order, the increments of the six counters
a ``JobResult`` reports, profile increments, results, span templates and
engine events.  Every
later hit of the shape applies it instead of simulating, so a record
that drifts moves virtual time everywhere it is replayed.
``record_pins.json`` holds, per case of ``test_replay_all_ops.py`` (each
registered op, ``hy_allreduce`` and the FlagSync hybrid allgather) on a
flat and a two-socket ``hazel_hen``, the single record a 3-repetition
job makes; templates are pinned as the SHA-256 of their shift-normalized
form.  Both modes measure the record where the dispatch runs, under
the same key: the first aligned occurrence (for ``hy_allreduce`` the
second, since its first call opens a setup gate), in ``replay="loop"``
and in default mode (``replay=True``) alike, and the same pins hold for
both.  How either reaches its steady state may change, the record it
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


def _run(case: str, machine: str, replay) -> None:
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
        payload="cost-only", trace="phase", replay=replay,
        program_kwargs=kwargs,
    )


def record(case_id: str, replay="loop") -> replaylib._Record:
    """The one record a job of *case_id* makes, in either mode."""
    case, machine = case_id.rsplit("-", 1)
    replaylib.clear_cache()
    before = replaylib.cache_stats()
    _run(case, machine, replay)
    after = replaylib.cache_stats()
    (rec,) = replaylib._CACHE.values()
    assert after["records"] - before["records"] == 1
    return rec


def observe(case_id: str, replay="loop") -> dict:
    """Everything ``record_pins.json`` pins, for one case."""
    rec = record(case_id, replay)
    observed = {
        "d_ticks": rec.d_ticks,
        "exit_order": rec.exit_order,
        "counters": rec.counters,
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


@pytest.mark.parametrize("case_id", IDS)
def test_pocket_record_is_pinned(case_id):
    """Default mode records in place too, under the key loop mode uses
    (the job prefix carries no mode): the same pins hold."""
    assert observe(case_id, replay=True) == PINS[case_id]


@pytest.mark.parametrize("case_id", IDS)
def test_in_place_and_pocket_records_are_equal(case_id):
    """Loop mode and default mode, field for field; span ids are the
    measuring tracer's own, so templates compare in their
    shift-normalized form."""
    loop, default = record(case_id), record(case_id, replay=True)
    for field in replaylib._Record.__slots__:
        a, b = getattr(loop, field), getattr(default, field)
        if field == "templates":
            a, b = replaylib._normalize(a), replaylib._normalize(b)
        assert a == b, field
