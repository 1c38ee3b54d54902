"""Importable helpers shared by the test modules.

(Fixtures live in ``conftest.py``; these are plain functions importable
as ``from tests.helpers import run``.)
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.machine import testing_machine
from repro.mpi import run_program

__all__ = ["run", "returns_of", "assert_allclose", "UNDER_VERIFY"]

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
