"""Unit and property tests for the collective replay cache keying.

The replay key must be sensitive to everything that can change a
dispatch's simulated cost — machine fingerprint, transport, socket
mode, payload *sizes*, entry-time offsets, arrival permutation — and
insensitive to pure execution-mode knobs (payload storage mode) that
the equivalence suites prove cost-neutral.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen, hazel_hen_flat
from repro.machine.presets import testing_machine as _testing
from repro.mpi import run_program
from repro.mpi.collectives import replay as replaylib
from repro.mpi.collectives.replay import (
    job_prefix,
    payload_signature,
    replay_key,
    sync_signature,
)
from repro.mpi.datatypes import Bytes
from repro.mpi.runtime import MPIJob


def _noop(mpi):
    return
    yield  # pragma: no cover


def _job(spec=None, *, placement=None, **kwargs):
    spec = spec or _testing(num_nodes=2, cores=4)
    return MPIJob(spec, _noop, placement=placement or Placement.block(2, 4),
                  replay=False, **kwargs)


class TestJobPrefix:
    def test_stable_for_identical_jobs(self):
        assert job_prefix(_job()) == job_prefix(_job())

    def test_sensitive_to_machine_fingerprint(self):
        a = job_prefix(_job(_testing(num_nodes=2, cores=4)))
        b = job_prefix(_job(
            _testing(num_nodes=2, cores=4, bandwidth=9e8)
        ))
        assert a != b

    def test_sensitive_to_transport(self):
        from dataclasses import replace

        spec = hazel_hen(2)
        other = replace(spec, node=replace(spec.node, transport="pip_direct"))
        pl = Placement.block(2, 4)
        assert (job_prefix(_job(spec, placement=pl))
                != job_prefix(_job(other, placement=pl)))

    def test_sensitive_to_socket_mode(self):
        spec = hazel_hen(2)  # 2-socket nodes: socket_mode matters
        a = _job(spec, placement=Placement.block(2, 8))
        b = _job(
            spec,
            placement=Placement.block(2, 8).with_socket_mode("scatter"),
        )
        assert job_prefix(a) != job_prefix(b)

    def test_sensitive_to_topology_not_just_size(self):
        spec = hazel_hen_flat(2)
        a = _job(spec, placement=Placement.irregular([5, 3]))
        b = _job(spec, placement=Placement.irregular([4, 4]))
        assert job_prefix(a) != job_prefix(b)

    def test_insensitive_to_payload_mode(self):
        prefixes = {
            job_prefix(_job(payload=mode))
            for mode in ("data", "cost-only")
        }
        assert len(prefixes) == 1

    def test_insensitive_to_seed(self):
        assert job_prefix(_job(seed=1)) == job_prefix(_job(seed=2))


class TestReplayKey:
    PREFIX = ("p",)
    SIGS = (("b", 64),) * 4
    ZERO = (0,) * 4
    ORDER = (0, 1, 2, 3)

    def _key(self, **kw):
        return replay_key(
            kw.get("prefix", self.PREFIX), kw.get("op", "allgather"),
            kw.get("sigs", self.SIGS), kw.get("offsets", self.ZERO),
            kw.get("order", self.ORDER),
        )

    def test_sensitive_to_dtype_signature(self):
        assert self._key() != self._key(sigs=(("b", 128),) * 4)
        assert self._key() != self._key(
            sigs=(("b", 128),) + (("b", 64),) * 3
        )

    def test_sensitive_to_entry_offsets(self):
        assert self._key() != self._key(offsets=(0, 0, 0, 1))

    def test_sensitive_to_arrival_order(self):
        assert self._key() != self._key(order=(3, 2, 1, 0))

    def test_sensitive_to_op(self):
        assert self._key() != self._key(op="bcast")


class TestPayloadSignature:
    def test_size_only_payloads_are_keyable(self):
        assert payload_signature(None) == ("none",)
        assert payload_signature(Bytes(64)) == ("b", 64)
        assert payload_signature([Bytes(8), None, Bytes(16)]) == \
            ("lb", (8, -1, 16))

    def test_data_payloads_veto(self):
        assert payload_signature(np.zeros(4)) is None
        assert payload_signature([Bytes(8), np.zeros(2)]) is None

    def test_sync_policy_signatures(self):
        from repro.core import BarrierSync, FlagSync

        assert sync_signature(BarrierSync()) is not None
        assert sync_signature(FlagSync()) is not None
        assert sync_signature(BarrierSync()) != sync_signature(FlagSync())

        class Custom(BarrierSync):
            pass

        assert sync_signature(Custom()) is None


def _bench(mpi, nbytes=256, reps=4):
    comm = mpi.world
    payload = Bytes(nbytes)
    yield from comm.allgather(payload)  # warm-first: runs live
    for _ in range(reps):
        yield from comm.align()
        yield from comm.allgather(payload)


class TestSessionKeying:
    """End-to-end: runs that must (or must not) share cache entries."""

    def setup_method(self):
        replaylib.clear_cache()

    def _run(self, spec=None, *, program_kwargs=None, **kwargs):
        return run_program(
            spec or _testing(num_nodes=2, cores=4), None, _bench,
            placement=kwargs.pop("placement", Placement.block(2, 4)),
            payload=kwargs.pop("payload", "cost-only"),
            replay=kwargs.pop("replay", "loop"),
            program_kwargs=program_kwargs or {},
            **kwargs,
        )

    def test_identical_jobs_share_entries(self):
        first = self._run()
        entries = replaylib.cache_stats()["entries"]
        second = self._run()
        # Nothing new recorded: the second job replays from the first
        # job's entries (warm-first still runs one dispatch live).
        assert replaylib.cache_stats()["entries"] == entries
        assert second.replay_hits == 4
        assert first.elapsed == second.elapsed

    def test_machine_change_misses(self):
        self._run()
        entries = replaylib.cache_stats()["entries"]
        self._run(_testing(num_nodes=2, cores=4, bandwidth=9e8))
        assert replaylib.cache_stats()["entries"] > entries

    def test_payload_size_change_misses(self):
        self._run()
        entries = replaylib.cache_stats()["entries"]
        self._run(program_kwargs={"nbytes": 512})
        assert replaylib.cache_stats()["entries"] > entries

    def test_data_mode_never_replays(self):
        result = self._run(payload="data", replay=True)
        assert result.replay_hits == result.replay_misses == 0


class TestReplayModes:
    """``replay`` and the two environment variables take their modes
    and nothing else: a misspelt mode raises instead of running some
    other one."""

    @staticmethod
    def _job(**kwargs):
        return MPIJob(_testing(num_nodes=2, cores=4), _bench,
                      placement=Placement.block(2, 4), payload="cost-only",
                      **kwargs)

    @pytest.mark.parametrize("replay", ["off", "Loop", "true", 2])
    def test_unknown_replay_argument_raises(self, replay, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_VERIFY", raising=False)
        with pytest.raises(ValueError, match="None, False, True, 'loop'"):
            self._job(replay=replay)

    @pytest.mark.parametrize("name, value", [
        ("REPRO_REPLAY", "off"), ("REPRO_REPLAY", "false"),
        ("REPRO_REPLAY", "Loop"), ("REPRO_REPLAY_VERIFY", "false"),
        ("REPRO_REPLAY_VERIFY", "loop"),
    ])
    def test_unknown_environment_value_raises(self, name, value,
                                              monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_VERIFY", raising=False)
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=f"{name}={value!r}"):
            self._job()

    @pytest.mark.parametrize("env, mode", [
        ("", None), ("0", None), ("1", False), ("loop", True),
    ])
    def test_accepted_environment_values(self, env, mode, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAY_VERIFY", raising=False)
        monkeypatch.setenv("REPRO_REPLAY", env)
        session = self._job().replay
        assert (None if session is None else session.loop) == mode
