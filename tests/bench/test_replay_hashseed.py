"""A replayed loop does not depend on str/bytes hashing.

Replay decides from arrival maps and applies bound profile lists, both
order-sensitive; neither may take its order from a hash.  One aligned
loop-mode miniature — pure allgatherv on an irregular placement and a
hybrid allgather — runs in this process and in fresh interpreters at
``PYTHONHASHSEED=1`` and ``2``: latencies (as ``repr``), engine entries,
hits, misses and every rank's profile summary must agree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.bench.osu import hybrid_allgather_program, pure_allgather_program
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi.collectives import replay as replaylib
from repro.mpi.runtime import MPIJob

ROOT = Path(__file__).resolve().parents[2]
SRC = Path(repro.__file__).resolve().parents[1]

MINIATURES = {
    "pure-allgatherv-irregular": (
        pure_allgather_program, Placement.irregular((5, 3, 4)),
        {"irregular": True}),
    "hybrid-allgather": (
        hybrid_allgather_program, Placement.block(3, 4), {}),
}


def observe() -> dict:
    """What the miniature shows, as strings."""
    out = {}
    for name, (program, placement, kwargs) in MINIATURES.items():
        replaylib.clear_cache()
        job = MPIJob(
            hazel_hen(len(placement.counts())), program,
            placement=placement, payload="cost-only", replay="loop",
            program_kwargs={"nbytes_per_rank": 768, "reps": 6, **kwargs},
        )
        result = job.run()
        out[name] = {
            "latency": repr(result.returns),
            "events": result.events_processed,
            "hits": result.replay_hits,
            "misses": result.replay_misses,
            "profiles": repr([ctx.profile.summary() for ctx in job.contexts]),
        }
    return out


def _observe_at(seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    code = ("import json; from tests.bench.test_replay_hashseed import "
            "observe; print(json.dumps(observe()))")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_replayed_loop_is_hash_seed_invariant():
    here = observe()
    assert all(o["hits"] > 0 for o in here.values())
    for seed in (1, 2):
        assert _observe_at(seed) == here, f"PYTHONHASHSEED={seed}"
