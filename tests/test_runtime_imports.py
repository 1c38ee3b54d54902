"""Importing the package loads neither a graph library nor ``scipy``.

Hop counts are closed form (:mod:`repro.machine.topology`); ``networkx``
is only the router-graph oracle of ``tests/machine/test_topology.py``
and so a test dependency.  ``scipy`` is a runtime dependency of one
function: :func:`repro.apps.datasets.synthetic_chembl` builds the
data-mode BPMF dataset as a CSR matrix and imports ``scipy.sparse``
when it is called.  A fresh interpreter that imports every user surface
must have loaded neither.
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


def test_user_surfaces_do_not_import_scipy():
    code = (
        "import sys; "
        "import repro.apps, repro.apps.bpmf, repro.apps.summa, "
        "repro.bench.sweep, repro.bench.model, repro.bench.service, "
        "repro.bench.cli, repro.bench.observe, repro.bench.overlap; "
        "print('scipy' in sys.modules); "
        "from repro.apps.datasets import synthetic_chembl; "
        "m = synthetic_chembl(n_compounds=50, n_targets=10).matrix; "
        "import scipy.sparse; "
        "print(scipy.sparse.issparse(m) and m.format == 'csr')"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "True"]
