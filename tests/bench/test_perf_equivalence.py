"""Fig 7/9/10 miniatures pinned to literal virtual-time results.

The scheduler's same-time FIFO and the cost-only payload mode are pure
wall-clock optimizations: virtual-time latencies, the number of
processed events, the traffic counters and the span stream must not
move.  ``miniature_pins.json`` holds, per miniature, the processed-event
count, the ``repr`` of the job span, per-rank finish times and returns,
the message/byte counters and the SHA-256 of the p2p-detail span stream.
Those literals were captured while a retired all-heap reference
scheduler running full-data payloads was still asserted equal to them;
they are now the reference every payload mode must reproduce exactly,
under any string-hash seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.bench.osu import (
    hybrid_allgather_program,
    pure_allgather_program,
)
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen
from repro.mpi import run_program

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(HERE, "miniature_pins.json"), encoding="utf-8") as _fh:
    PINS = json.load(_fh)

# id -> (nodes-spec, placement, elements, variant, program options) —
# miniatures of the repro-perf configs (docs/performance.md).
CONFIGS = {
    "fig7-hybrid": (1, Placement.block(1, 8), 64, "hybrid", {}),
    "fig7-pure": (1, Placement.block(1, 8), 64, "pure", {}),
    "fig9-hybrid": (2, Placement.block(2, 6), 512, "hybrid", {}),
    "fig9-pure": (2, Placement.block(2, 6), 512, "pure", {}),
    "fig10-hybrid": (3, Placement.irregular([6, 6, 4]), 128, "hybrid", {}),
    "fig10-pure": (3, Placement.irregular([6, 6, 4]), 128, "pure",
                   {"irregular": True}),
}

PAYLOADS = [
    pytest.param("full", id="full"),
    pytest.param("cost-only", id="costonly"),
]


def _run(cfg_id, payload):
    nodes, placement, elements, variant, options = CONFIGS[cfg_id]
    program = (hybrid_allgather_program if variant == "hybrid"
               else pure_allgather_program)
    return run_program(
        hazel_hen(nodes), None, program,
        placement=placement,
        payload=payload,
        trace="p2p",
        program_kwargs={"nbytes_per_rank": elements * 8, **options},
    )


def observe(cfg_id: str, payload: str) -> dict:
    """Everything ``miniature_pins.json`` pins, for one run."""
    result = _run(cfg_id, payload)
    return {
        "events": result.events_processed,
        "elapsed": repr(result.elapsed),
        "finish_times": repr(result.finish_times),
        "returns": repr(result.returns),
        "sent_messages": result.sent_messages,
        "sent_bytes": result.sent_bytes,
        "intra_copies": result.intra_copies,
        "intra_bytes": result.intra_bytes,
        "network_messages": result.network_messages,
        "network_bytes": result.network_bytes,
        # Span streams (p2p detail: dispatch + phase + queue-wait
        # records) as a whole-stream hash: same records, same order,
        # same virtual timestamps.
        "span_sha256": hashlib.sha256(json.dumps(
            result.trace, sort_keys=True, default=repr).encode()
        ).hexdigest(),
    }


def test_every_miniature_is_pinned():
    assert sorted(PINS) == sorted(CONFIGS)


@pytest.mark.parametrize("cfg_id", list(CONFIGS))
@pytest.mark.parametrize("payload", PAYLOADS)
def test_bit_identical_to_reference(cfg_id, payload):
    assert observe(cfg_id, payload) == PINS[cfg_id]


def test_pins_hold_under_any_hash_seed():
    """Nothing the simulator reports may depend on string-hash order
    (set or dict iteration over str keys): fresh interpreters at two
    non-default ``PYTHONHASHSEED`` values reproduce the same literals."""
    code = ("import json; from tests.bench.test_perf_equivalence import "
            "observe; print(json.dumps(observe('fig9-hybrid', 'cost-only')))")
    path = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == PINS["fig9-hybrid"], hash_seed


def test_cost_only_skips_payload_storage():
    """cost-only mode must keep byte accounting while eliding data."""
    full = _run("fig7-pure", "full")
    cheap = _run("fig7-pure", "cost-only")
    assert cheap.sent_bytes == full.sent_bytes > 0
    # Full mode returns latencies as well -- both paths measured the
    # same virtual experiment.
    assert cheap.returns == full.returns
