"""Edge cases of communicator internals (gates, deterministic children)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import Bytes, MPIError
from tests.helpers import returns_of, run


class TestDeterministicChildren:
    def test_subcomm_members_get_views_nonmembers_none(self):
        def prog(mpi):
            comm = mpi.world
            sub = comm.subcomm("evens", [0, 2])
            yield from comm.barrier()
            if sub is None:
                return None
            return (sub.rank, sub.size)

        rets = returns_of(prog, nodes=1, cores=4, nprocs=4)
        assert rets == [(0, 2), None, (1, 2), None]

    def test_same_key_shares_matching_namespace(self):
        def prog(mpi):
            comm = mpi.world
            sub = comm.subcomm("pair", [0, 1])
            if sub is not None:
                if sub.rank == 0:
                    yield from sub.send(Bytes(5), 1)
                else:
                    p = yield from sub.recv(source=0)
                    yield from comm.barrier()
                    return p.nbytes
            yield from comm.barrier()
            return None

        rets = returns_of(prog, nodes=1, cores=3, nprocs=3)
        assert rets[1] == 5

    def test_inconsistent_membership_detected(self):
        def prog(mpi):
            comm = mpi.world
            err = None
            members = [0, 1] if comm.rank == 0 else [0, 2]
            try:
                comm.subcomm("bad", members)
            except MPIError:
                err = "detected"
            yield from comm.barrier()
            return err

        rets = returns_of(prog, nodes=1, cores=3, nprocs=3)
        # Rank 0 registers [0,1]; rank 1 (member of its own [0,2]? no --
        # rank 1 is not in [0,2], returns None silently; rank 2 requests
        # [0,2] against the registered [0,1] and must fail.
        assert rets[2] == "detected"

    def test_distinct_keys_distinct_comms(self):
        def prog(mpi):
            comm = mpi.world
            a = comm.subcomm("a", [0, 1])
            b = comm.subcomm("b", [0, 1])
            yield from comm.barrier()
            if a is None:
                return None
            return a.id != b.id

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert all(r for r in rets if r is not None)


class TestGateMisuse:
    def test_double_arrival_rejected(self):
        def prog(mpi):
            comm = mpi.world
            err = None
            ident = lambda values: dict.fromkeys(values)  # noqa: E731
            comm._shared.arrive(("k", 1), comm.rank, None, ident)
            try:
                comm._shared.arrive(("k", 1), comm.rank, None, ident)
            except MPIError:
                err = "double"
            yield from comm.barrier()
            return err

        # Rank 0 runs first and re-arrives while the gate is pending ->
        # rejected.  Rank 1's first arrival then completes (and deletes)
        # the gate, so its second arrival opens a fresh gate: no error,
        # and the leftover gate never fires (harmless).
        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert rets[0] == "double"


class TestCollectiveSequences:
    def test_interleaved_collectives_on_two_comms(self):
        # Collectives on different comms may interleave freely.
        def prog(mpi):
            comm = mpi.world
            sub = yield from comm.split(color=comm.rank % 2, key=comm.rank)
            r1 = comm.iallreduce(np.array([1.0]))
            out_sub = yield from sub.allreduce(np.array([10.0]))
            total = yield r1.event
            return (float(np.asarray(total)[0]),
                    float(np.asarray(out_sub)[0]))

        rets = returns_of(prog, nodes=2, cores=2)
        assert all(r == (4.0, 20.0) for r in rets)

    def test_long_collective_sequence_deterministic(self):
        def prog(mpi):
            comm = mpi.world
            acc = 0.0
            for i in range(10):
                out = yield from comm.allreduce(
                    np.array([float(comm.rank + i)])
                )
                acc += float(np.asarray(out)[0])
                yield from comm.barrier()
            return acc

        a = returns_of(prog, nodes=2, cores=2)
        b = returns_of(prog, nodes=2, cores=2)
        assert a == b

    def test_hundreds_of_barriers(self):
        def prog(mpi):
            for _ in range(200):
                yield from mpi.world.barrier()
            return mpi.now

        rets = returns_of(prog, nodes=2, cores=2, payload="cost-only")
        assert len(set(rets)) == 1


class TestCommIdentity:
    def test_world_rank_translation(self):
        def prog(mpi):
            comm = mpi.world
            sub = yield from comm.split(
                color=0 if comm.rank >= 2 else 1, key=comm.rank
            )
            yield from comm.barrier()
            return [sub.world_rank_of(r) for r in range(sub.size)]

        rets = returns_of(prog, nodes=1, cores=4, nprocs=4)
        assert rets[2] == [2, 3]
        assert rets[0] == [0, 1]
