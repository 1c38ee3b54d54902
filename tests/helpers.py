"""Importable helpers shared by the test modules.

(Fixtures live in ``conftest.py``; these are plain functions importable
as ``from tests.helpers import run``.)
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.machine import testing_machine
from repro.mpi import run_program
from repro.mpi.runtime import JobResult

__all__ = ["run", "returns_of", "assert_allclose", "UNDER_VERIFY",
           "strip_spans", "assert_same_run"]

#: Verify mode executes every hit live and checks it against its record,
#: so a run under it replays no span and saves no event, and it turns
#: replay on where a job left it to the environment: a test that pins
#: replay-on ``events`` or replayed spans cannot hold there, by design.
UNDER_VERIFY = pytest.mark.skipif(
    os.environ.get("REPRO_REPLAY_VERIFY", "0") not in ("", "0"),
    reason="REPRO_REPLAY_VERIFY executes every hit live: nothing is "
           "replayed, by design",
)


def run(program, *, nodes=2, cores=4, nprocs=None, placement=None,
        spec=None, **options):
    """Run a rank program on a small testing machine; returns JobResult."""
    spec = spec or testing_machine(num_nodes=nodes, cores=cores)
    if placement is None and nprocs is None:
        nprocs = nodes * cores
    return run_program(spec, nprocs, program, placement=placement, **options)


def returns_of(program, **kwargs):
    """Run and return only the per-rank return values."""
    return run(program, **kwargs).returns


def assert_allclose(actual, expected, **kwargs):
    """numpy allclose with array coercion."""
    np.testing.assert_allclose(np.asarray(actual), np.asarray(expected),
                               **kwargs)


#: Span fields that may legitimately differ under replay: span ids and
#: parent links are allocation-order artifacts, and the ``replayed``
#: marker tag is the one *intentional* difference.
_SPAN_DROP = ("sid", "parent", "replayed")


def strip_spans(records):
    """Normalize a span stream for comparison: drop allocation-order
    artifacts and canonicalize the order of records sharing a
    timestamp (the relative emission order of same-tick spans is a
    queue-processing artifact, not a simulated quantity)."""
    stripped = [
        {k: v for k, v in r.items() if k not in _SPAN_DROP} for r in records
    ]
    return sorted(
        stripped,
        key=lambda d: (d.get("t", 0.0), sorted(
            (k, repr(v)) for k, v in d.items()
        )),
    )


def assert_same_run(on: JobResult, off: JobResult) -> None:
    """*on*, a run with replay, reports exactly what *off*, the same job
    run live, reports: every :class:`JobResult` field but the engine
    entries and the replay counters, which replay exists to change —
    profiles per rank by ``summary()``, spans through
    :func:`strip_spans`."""
    for f in dataclasses.fields(JobResult):
        name = f.name
        if name == "events_processed" or name.startswith("replay_"):
            continue
        a, b = getattr(on, name), getattr(off, name)
        if name == "profiles":
            a, b = [p.summary() for p in a], [p.summary() for p in b]
        elif name == "trace" and a is not None and b is not None:
            a, b = strip_spans(a), strip_spans(b)
        assert a == b, name
