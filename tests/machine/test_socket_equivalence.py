"""Flat-machine equivalence of the socket/NUMA tier.

The socket tier and pluggable transports are strictly additive: a
machine with ``sockets=1`` and the default ``shm_two_copy`` transport
must behave *bit-identically* to the pre-socket flat node model —
same event counts, same virtual-time latencies, same span streams.
These tests pin that contract on the Fig 7/9/10 miniatures used by
``tests/bench/test_perf_equivalence.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.bench.osu import (
    hybrid_allgather_program,
    pure_allgather_program,
)
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen, hazel_hen_flat
from repro.mpi import run_program

# (id, nodes-spec, placement, elements, variant, program options) —
# the same miniatures tests/bench/test_perf_equivalence.py pins.
CONFIGS = [
    ("fig7-hybrid", 1, Placement.block(1, 8), 64, "hybrid", {}),
    ("fig7-pure", 1, Placement.block(1, 8), 64, "pure", {}),
    ("fig9-hybrid", 2, Placement.block(2, 6), 512, "hybrid", {}),
    ("fig9-pure", 2, Placement.block(2, 6), 512, "pure", {}),
    ("fig10-hybrid", 3, Placement.irregular([6, 6, 4]), 128, "hybrid", {}),
    ("fig10-pure", 3, Placement.irregular([6, 6, 4]), 128, "pure",
     {"irregular": True}),
]


def _explicit_socket_fields(spec):
    """The same machine with every socket/transport field spelled out.

    ``sockets=1`` makes the cross-socket link unreachable, so even
    absurd xsocket parameters must not change a single event.
    """
    return replace(
        spec,
        node=replace(
            spec.node,
            sockets=1,
            transport="shm_two_copy",
            xsocket_bandwidth=1.0e3,   # deliberately pathological:
            xsocket_streams=1,         # must never be charged
            xsocket_latency=1.0,
        ),
    )


def _run(spec, placement, elements, variant, options):
    program = (hybrid_allgather_program if variant == "hybrid"
               else pure_allgather_program)
    result = run_program(
        spec, None, program,
        placement=placement,
        payload="cost-only",
        trace="p2p",
        program_kwargs={"nbytes_per_rank": elements * 8, **options},
    )
    span_hash = hashlib.sha256(
        json.dumps(result.trace, sort_keys=True, default=repr).encode()
    ).hexdigest()
    return result, span_hash


def _assert_bit_identical(ref, ref_hash, result, span_hash):
    assert result.events_processed == ref.events_processed
    assert result.returns == ref.returns
    assert result.elapsed == ref.elapsed
    assert result.finish_times == ref.finish_times
    assert result.sent_messages == ref.sent_messages
    assert result.sent_bytes == ref.sent_bytes
    assert result.network_bytes == ref.network_bytes
    assert span_hash == ref_hash


@pytest.fixture(scope="module")
def reference():
    cache: dict[str, tuple] = {}

    def get(cfg):
        cfg_id, nodes, placement, elements, variant, options = cfg
        if cfg_id not in cache:
            cache[cfg_id] = _run(
                hazel_hen(nodes), placement, elements, variant, options
            )
        return cache[cfg_id]

    return get


@pytest.mark.parametrize("cfg", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_explicit_socket_fields_are_inert_on_flat_nodes(cfg, reference):
    """sockets=1 + shm_two_copy with explicit (even pathological)
    xsocket parameters reproduces the default machine exactly."""
    ref, ref_hash = reference(cfg)
    _cfg_id, nodes, placement, elements, variant, options = cfg
    result, span_hash = _run(
        _explicit_socket_fields(hazel_hen(nodes)),
        placement, elements, variant, options,
    )
    _assert_bit_identical(ref, ref_hash, result, span_hash)


@pytest.mark.parametrize("cfg", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_flat_alias_is_bit_identical(cfg, reference):
    """hazel_hen_flat is the historical flat model, verbatim."""
    ref, ref_hash = reference(cfg)
    _cfg_id, nodes, placement, elements, variant, options = cfg
    result, span_hash = _run(
        hazel_hen_flat(nodes), placement, elements, variant, options
    )
    _assert_bit_identical(ref, ref_hash, result, span_hash)


@pytest.mark.parametrize("socket_mode", ["scatter", "balanced"])
@pytest.mark.parametrize(
    "cfg", [CONFIGS[2], CONFIGS[4]], ids=["fig9-hybrid", "fig10-hybrid"]
)
def test_socket_mode_is_noop_on_flat_nodes(cfg, socket_mode, reference):
    """Placement socket modes only re-map slots to sockets; with one
    socket per node every mode degenerates to the same (only) socket."""
    ref, ref_hash = reference(cfg)
    _cfg_id, nodes, placement, elements, variant, options = cfg
    result, span_hash = _run(
        hazel_hen(nodes), placement.with_socket_mode(socket_mode),
        elements, variant, options,
    )
    _assert_bit_identical(ref, ref_hash, result, span_hash)
