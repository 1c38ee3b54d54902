"""Replay-cache equivalence: replay on must be invisible in virtual time.

The replay cache (:mod:`repro.mpi.collectives.replay`) is a pure
wall-clock optimization: per-rank virtual-time latencies, traffic
counters, and the span stream must be *bit-identical* with the cache on
or off, on every figure miniature and machine model (flat and 2-socket
nodes).  These tests pin that contract, plus the safety side: workloads
the quiescence predicate must veto (non-blocking collectives, overlap)
are never replayed, and the verify mode
(``REPRO_REPLAY_VERIFY=1``) passes cleanly on a replaying run.
"""

from __future__ import annotations

import pytest

from repro.bench.osu import (
    hybrid_allgather_program,
    pure_allgather_program,
)
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen, hazel_hen_2s
from repro.mpi import run_program
from repro.mpi.collectives import replay as replaylib
from tests.helpers import UNDER_VERIFY, assert_same_run

REPS = 6

# (id, nodes, placement, elements, variant, program options) —
# miniatures of the Fig 7/9/10 figure configs (`sweep.figure_points`).
CONFIGS = [
    ("fig7-pure", 1, Placement.block(1, 8), 64, "pure", {}),
    ("fig7-hybrid", 1, Placement.block(1, 8), 64, "hybrid", {}),
    ("fig9-pure", 2, Placement.block(2, 6), 512, "pure", {}),
    ("fig9-hybrid", 2, Placement.block(2, 6), 512, "hybrid", {}),
    ("fig10-pure", 3, Placement.irregular([6, 6, 4]), 128, "pure",
     {"irregular": True}),
    ("fig10-hybrid", 3, Placement.irregular([6, 6, 4]), 128, "hybrid", {}),
]

MACHINES = [
    pytest.param(hazel_hen, id="flat"),
    pytest.param(hazel_hen_2s, id="2socket"),
]


def _run(machine, nodes, placement, elements, variant, options, replay):
    program = (hybrid_allgather_program if variant == "hybrid"
               else pure_allgather_program)
    return run_program(
        machine(nodes), None, program,
        placement=placement,
        payload="cost-only",
        trace="p2p",
        replay=replay,
        program_kwargs={
            "nbytes_per_rank": elements * 8, "reps": REPS, **options,
        },
    )


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("cfg", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_replay_bit_identical(cfg, machine):
    _cfg_id, nodes, placement, elements, variant, options = cfg
    replaylib.clear_cache()
    off = _run(machine, nodes, placement, elements, variant, options,
               replay=False)
    on = _run(machine, nodes, placement, elements, variant, options,
              replay="loop")
    # The cache must actually engage — otherwise this test proves
    # nothing (warm-first runs the first occurrence of each shape live,
    # every later aligned repetition replays).
    assert on.replay_hits > 0
    # Exact per-rank latencies, finish times, counters, profiles, and
    # span streams that differ only by the `replayed` marker (and span
    # ids, an allocation-order artifact).
    assert_same_run(on, off)


@UNDER_VERIFY
def test_replayed_spans_are_marked():
    _cfg_id, nodes, placement, elements, variant, options = CONFIGS[0]
    replaylib.clear_cache()
    on = _run(hazel_hen, nodes, placement, elements, variant, options,
              replay="loop")
    marked = [r for r in on.trace if r.get("replayed")]
    assert on.replay_hits > 0
    assert marked, "replayed dispatches must re-emit marked spans"


@UNDER_VERIFY
def test_replay_skips_events():
    """The headline: a replayed repetition costs O(ranks) events."""
    _cfg_id, nodes, placement, elements, variant, options = CONFIGS[2]
    replaylib.clear_cache()
    off = _run(hazel_hen, nodes, placement, elements, variant, options,
               replay=False)
    on = _run(hazel_hen, nodes, placement, elements, variant, options,
              replay="loop")
    assert on.replay_hits == REPS
    # The replaying run must process far fewer events than the straight
    # run — the warm-first live rep and the align scaffolding remain,
    # but every hit collapses a dispatch to one wake per rank.
    assert on.events_processed < off.events_processed / 2
    assert on.replay_events_saved > 0
    # ``replay_events_saved`` is the record's event count minus the
    # O(ranks) wake events — the session's own parking scaffolding
    # (park events, decision hooks) is not part of a dispatch, so the
    # accounting tracks the observed off/on difference closely but not
    # to the event.
    saved = off.events_processed - on.events_processed
    assert abs(saved - on.replay_events_saved) <= 0.05 * saved


@pytest.mark.parametrize("variant", ["pure", "hybrid"])
def test_overlap_workload_replay_is_invisible(variant):
    """The overlap protocol interleaves non-blocking collectives with
    compute.  Every dispatch overlapped with an outstanding
    ``CollRequest`` is vetoed by the quiescence predicate; the
    align-disciplined blocking phases that *do* replay must be
    bit-identical."""
    from repro.bench.overlap import overlap_program

    kwargs = {"nbytes": 8 * 512, "variant": variant, "reps": 3}
    replaylib.clear_cache()
    off = run_program(
        hazel_hen(2), None, overlap_program,
        placement=Placement.block(2, 6),
        payload="cost-only",
        replay=False,
        program_kwargs=kwargs,
    )
    on = run_program(
        hazel_hen(2), None, overlap_program,
        placement=Placement.block(2, 6),
        payload="cost-only",
        replay="loop",
        program_kwargs=kwargs,
    )
    assert on.returns == off.returns
    assert on.elapsed == off.elapsed


def test_overlap_workload_verifies_clean(monkeypatch):
    """Verify over the pure overlap protocol: its allgather is vetoed as
    trailing work wherever it runs, so no record stands for it, and the
    run is the replay-off run."""
    from repro.bench.overlap import overlap_program

    monkeypatch.setenv("REPRO_REPLAY_VERIFY", "1")
    kwargs = {"nbytes": 8 * 512, "variant": "pure", "reps": 3}
    runs = [
        run_program(
            hazel_hen(2), None, overlap_program,
            placement=Placement.block(2, 6), payload="cost-only",
            replay=replay, program_kwargs=kwargs,
        )
        for replay in (False, "loop")
    ]
    off, on = runs
    assert on.returns == off.returns
    assert on.finish_times == off.finish_times
    assert on.sent_messages == off.sent_messages
    assert on.comm_summary() == off.comm_summary()


def test_sweep_disables_replay_for_overlap(monkeypatch):
    """The sweep layer runs overlap points with the session off
    entirely — the quiescence predicate would veto every overlapped
    dispatch anyway, so the parking tax buys nothing."""
    import repro.mpi as mpilib
    from repro.bench import sweep as sweeplib

    seen = {}
    real = mpilib.run_program

    def spy(spec, nprocs, program, **kw):
        seen[kw["program_kwargs"].get("variant", "?")] = kw.get("replay")
        return real(spec, nprocs, program, **kw)

    monkeypatch.setattr(mpilib, "run_program", spy)
    base = dict(machine="hazel_hen", counts=(4,), nbytes=64,
                variant="hybrid")
    sweeplib._run_sim_point(
        sweeplib.SweepPoint(**base, workload="overlap")
    )
    sweeplib._run_sim_point(sweeplib.SweepPoint(**base))
    assert seen["hybrid"] is False          # overlap point
    assert seen["?"] == "loop"              # latency point


def test_nonblocking_program_never_replays():
    """Explicit icoll in flight across blocking collectives: veto.

    The blocking allreduces use a symbolic (replay-eligible) payload,
    so the zero hits below can only come from the outstanding-icoll
    quiescence veto — not from a payload veto.  The iallgather moves
    16 MiB per rank in the background, so it genuinely stays in
    flight across the whole loop of tiny blocking allreduces."""
    from repro.mpi.datatypes import Bytes

    def prog(mpi):
        comm = mpi.world
        req = comm.iallgather(Bytes(16 << 20))
        for _ in range(3):
            yield from comm.align()
            yield from comm.allreduce(Bytes(64))
        yield from req.wait()

    replaylib.clear_cache()
    off = run_program(hazel_hen(1), 8, prog, payload="cost-only",
                      replay=False)
    on = run_program(hazel_hen(1), 8, prog, payload="cost-only",
                     replay="loop")
    assert on.replay_hits == 0
    assert on.elapsed == off.elapsed


def test_verify_mode_clean(monkeypatch):
    """REPRO_REPLAY_VERIFY=1 executes *and* replays every hit,
    asserting bit-identical outcomes — a clean pass on a replaying
    config is the strongest self-check the cache has."""
    monkeypatch.setenv("REPRO_REPLAY_VERIFY", "1")
    _cfg_id, nodes, placement, elements, variant, options = CONFIGS[2]
    replaylib.clear_cache()
    result = _run(hazel_hen, nodes, placement, elements, variant, options,
                  replay="loop")
    assert result.replay_hits == REPS  # hits verified, none demoted


def test_verify_mode_catches_corruption(monkeypatch):
    """Tampering with a cached record must trip the verifier."""
    monkeypatch.setenv("REPRO_REPLAY_VERIFY", "1")
    _cfg_id, nodes, placement, elements, variant, options = CONFIGS[0]
    replaylib.clear_cache()
    # Warm the cache without verification...
    monkeypatch.setenv("REPRO_REPLAY_VERIFY", "0")
    _run(hazel_hen, nodes, placement, elements, variant, options,
         replay="loop")
    # ...corrupt every record's first-rank latency...
    for rec in replaylib._CACHE.values():
        if rec is not None:
            rec.d_ticks = tuple(d + 1 for d in rec.d_ticks)
    # ...and re-run under verification.
    monkeypatch.setenv("REPRO_REPLAY_VERIFY", "1")
    with pytest.raises(replaylib.ReplayVerifyError):
        _run(hazel_hen, nodes, placement, elements, variant, options,
             replay="loop")
