"""The package runs without a graph library.

Hop counts are closed form (:mod:`repro.machine.topology`); ``networkx``
is only the router-graph oracle of ``tests/machine/test_topology.py``
and so a test dependency.  A fresh interpreter that imports every user
surface must not have loaded it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]


def test_user_surfaces_do_not_import_networkx():
    code = (
        "import sys; "
        "import repro, repro.bench.service, repro.bench.cli, "
        "repro.bench.sweep, repro.bench.model; "
        "print('networkx' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
