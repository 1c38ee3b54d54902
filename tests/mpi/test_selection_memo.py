"""Algorithm selection is decided once per communicator and key.

``SelectionPolicy.select`` memoises its pick in the communicator's shared
cache under ``(policy, request, candidates)``.  These tests pin what
that promises: ``choose`` runs once per distinct key however many
repetitions a loop makes, every memoised pick is the pick a fresh
``choose`` makes, and entries belong to one policy and one job.
"""

from __future__ import annotations

import pytest

from repro.bench.osu import osu_allgather_latency
from repro.machine import Placement
from repro.machine.presets import hazel_hen
from repro.mpi.collectives import registry
from repro.mpi.collectives.registry import (
    CollRequest,
    CostModelSelection,
    ForcedSelection,
    TableSelection,
)
from repro.mpi.errors import MPIError
from tests.helpers import returns_of

#: The built-in policies, as (class, constructor arguments).
POLICIES = {
    "table": (TableSelection, ()),
    "cost_model": (CostModelSelection, ()),
    "forced": (ForcedSelection, ({"allgatherv": "ring_v",
                                  "bcast": "binomial"},)),
}


def _counting(cls):
    """*cls* with ``choose`` counted and every ``select`` answer logged
    (both delegate, so the memo is exercised, not bypassed)."""

    class Counting(cls):
        def __init__(self, *args):
            super().__init__(*args)
            self.chosen = 0
            self.calls = []

        def select(self, comm, req, candidates=None):
            algo = super().select(comm, req, candidates)
            self.calls.append((comm, req, candidates, algo))
            return algo

        def choose(self, comm, req, cands):
            self.chosen += 1
            return super().choose(comm, req, cands)

    return Counting


def _osu(policy, variant, reps):
    return osu_allgather_latency(
        hazel_hen(4), Placement.block(4, 12), 4096, variant, reps=reps,
        policy=policy, replay=False,
    )


def _keys(policy):
    return {(comm._shared, req, candidates)
            for comm, req, candidates, _algo in policy.calls}


@pytest.mark.parametrize("variant", ["hybrid", "pure"])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_choose_runs_once_per_key(name, variant):
    cls, args = POLICIES[name]
    chosen = {}
    for reps in (2, 10):
        policy = _counting(cls)(*args)
        _osu(policy, variant, reps)
        assert policy.chosen == len(_keys(policy)) > 0
        assert len(policy.calls) > policy.chosen
        chosen[reps] = policy.chosen
    assert chosen[2] == chosen[10]


@pytest.mark.parametrize("variant", ["hybrid", "pure"])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_memoised_pick_equals_fresh_choose(name, variant):
    cls, args = POLICIES[name]
    policy = _counting(cls)(*args)
    _osu(policy, variant, 2)
    fresh_policy = cls(*args)
    seen = {}
    for comm, req, candidates, algo in policy.calls:
        key = (comm._shared, req, candidates)
        if key in seen:
            assert seen[key] is algo
            continue
        seen[key] = algo
        cands = registry.applicable_algorithms(
            req.op, registry.comm_shape(comm), req, candidates)
        assert fresh_policy.choose(comm, req, cands) is algo, key


def _policy_keys(comm, *policies):
    return [k for k in comm.shared_cache
            if isinstance(k, tuple) and k and k[0] in policies]


def test_two_policies_keep_separate_entries():
    table = TableSelection()
    forced = ForcedSelection({"allgather": "ring"})
    req = CollRequest("allgather", 64, 64 * 8)

    def prog(mpi):
        comm = mpi.world
        picks = [p.select(comm, req).name for p in (table, forced, table,
                                                     forced)]
        return picks, len(_policy_keys(comm, table, forced))
        yield  # a rank program is a generator

    for picks, entries in returns_of(prog, nodes=1, cores=8,
                                     payload="cost-only"):
        assert picks == ["recursive_doubling", "ring"] * 2
        assert entries == 2


def test_candidates_are_part_of_the_key():
    def prog(mpi):
        comm = mpi.world
        nbytes = 2 * mpi.tuning.bcast_binomial_max
        req = CollRequest("bcast", nbytes, nbytes, 0)
        policy = TableSelection()
        picks = [policy.select(comm, req, candidates).name
                 for candidates in (None, ("binomial",), None,
                                    ("binomial",))]
        return picks
        yield  # a rank program is a generator

    for picks in returns_of(prog, nodes=1, cores=8, payload="cost-only"):
        assert picks[0] != "binomial"
        assert picks[1] == "binomial"
        assert picks[2:] == picks[:2]


def test_a_new_job_starts_with_no_entries():
    policy = _counting(TableSelection)()

    def prog(mpi):
        before = len(_policy_keys(mpi.world, policy))
        yield from mpi.world.allgather(mpi.payload(64))
        yield from mpi.world.allgather(mpi.payload(64))
        return before

    first = returns_of(prog, nodes=2, cores=2, policy=policy,
                       payload="cost-only")
    per_job = policy.chosen
    assert per_job > 0
    second = returns_of(prog, nodes=2, cores=2, policy=policy,
                        payload="cost-only")
    assert first[0] == second[0] == 0
    assert policy.chosen == 2 * per_job


def test_no_applicable_candidate_fails_every_time():
    policy = TableSelection()
    req = CollRequest("allgather", 8, 16)

    def prog(mpi):
        errors = 0
        for _ in range(2):
            try:
                policy.select(mpi.world, req, candidates=())
            except MPIError:
                errors += 1
        return errors, _policy_keys(mpi.world, policy)
        yield  # a rank program is a generator

    for errors, keys in returns_of(prog, nodes=1, cores=2,
                                   payload="cost-only"):
        assert errors == 2
        assert keys == []


def test_coll_request_is_a_value():
    a = CollRequest(op="bcast", nbytes=8, total=8, root=0)
    b = CollRequest("bcast", 8, 8, 0)
    assert a == b and hash(a) == hash(b)
    assert a != CollRequest("bcast", 8, 8, 1)
    assert CollRequest("barrier", 0, 0).root is None
    with pytest.raises(AttributeError):
        a.nbytes = 9
    assert repr(a) == "CollRequest(op='bcast', nbytes=8, total=8, root=0)"
