"""Dispatch edge cases: size-1 comms, empty payloads, exotic shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import Bytes
from repro.mpi.constants import ReduceOp
from tests.helpers import returns_of


class TestSingletonComms:
    """Every collective must degenerate gracefully on a 1-rank comm."""

    def test_all_ops_on_singleton(self):
        def prog(mpi):
            comm = mpi.world
            x = np.array([3.0])
            out = []
            out.append((yield from comm.bcast(x.copy(), root=0)))
            out.append((yield from comm.allgather(x)))
            out.append((yield from comm.allgatherv(x)))
            out.append((yield from comm.allreduce(x)))
            out.append((yield from comm.reduce(x, ReduceOp.SUM, 0)))
            out.append((yield from comm.gather(x, 0)))
            out.append((yield from comm.scatter([x], 0)))
            out.append((yield from comm.scan(x)))
            out.append((yield from comm.exscan(x)))
            out.append((yield from comm.reduce_scatter(x)))
            out.append((yield from comm.alltoall([x])))
            yield from comm.barrier()
            return out

        (result,) = returns_of(prog, nodes=1, cores=1, nprocs=1)
        bcast, ag, agv, ar, red, gat, scat, scan, exs, rs, a2a = result
        assert float(np.asarray(bcast)[0]) == 3.0
        assert len(ag) == 1 and len(agv) == 1
        assert float(np.asarray(ar)[0]) == 3.0
        assert float(np.asarray(red)[0]) == 3.0
        assert len(gat) == 1
        assert float(np.asarray(scat)[0]) == 3.0
        assert float(np.asarray(scan)[0]) == 3.0
        assert exs is None
        assert float(np.asarray(rs)[0]) == 3.0
        assert len(a2a) == 1

    def test_singleton_collectives_cost_only_overhead(self):
        def prog(mpi):
            comm = mpi.world
            t0 = mpi.now
            yield from comm.allgather(Bytes(1_000_000))
            return mpi.now - t0

        rets = returns_of(prog, nodes=1, cores=1, nprocs=1,
                          payload="cost-only")
        assert rets[0] < 1e-5  # just software overhead, no transfer


class TestZeroBytePayloads:
    def test_zero_byte_allgather(self):
        def prog(mpi):
            blocks = yield from mpi.world.allgather(Bytes(0))
            return [b.nbytes for b in blocks]

        rets = returns_of(prog, nodes=2, cores=2, payload="cost-only")
        assert all(r == [0, 0, 0, 0] for r in rets)

    def test_zero_byte_bcast(self):
        def prog(mpi):
            out = yield from mpi.world.bcast(Bytes(0), root=0)
            return out.nbytes

        rets = returns_of(prog, nodes=2, cores=2, payload="cost-only")
        assert all(r == 0 for r in rets)

    def test_empty_array_allgatherv(self):
        def prog(mpi):
            comm = mpi.world
            mine = (
                np.zeros(0) if comm.rank == 0 else np.full(2, float(comm.rank))
            )
            blocks = yield from comm.allgatherv(mine)
            return [np.asarray(b).size for b in blocks]

        rets = returns_of(prog, nodes=1, cores=3, nprocs=3)
        assert all(r == [0, 2, 2] for r in rets)


class TestLargeConfigurations:
    def test_prime_comm_size(self):
        def prog(mpi):
            comm = mpi.world
            blocks = yield from comm.allgather(np.array([float(comm.rank)]))
            total = yield from comm.allreduce(np.array([1.0]))
            return (len(blocks), float(np.asarray(total)[0]))

        rets = returns_of(prog, nodes=1, cores=7, nprocs=7)
        assert all(r == (7, 7.0) for r in rets)

    def test_wide_node_many_ranks(self):
        def prog(mpi):
            comm = mpi.world
            out = yield from comm.allreduce(np.array([float(comm.rank)]))
            return float(np.asarray(out)[0])

        rets = returns_of(prog, nodes=1, cores=32, nprocs=32)
        assert all(r == float(sum(range(32))) for r in rets)

    def test_many_small_nodes(self):
        def prog(mpi):
            comm = mpi.world
            blocks = yield from comm.allgather(Bytes(8))
            return len(blocks)

        from repro.machine import Placement

        placement = Placement.irregular([2] * 9)
        rets = returns_of(prog, nodes=9, cores=2, placement=placement,
                          payload="cost-only")
        assert all(r == 18 for r in rets)


class TestMixedModes:
    def test_bytes_and_arrays_share_cost_paths(self):
        # The same program in data vs model mode must take identical
        # virtual time (payload mode must never change timing).
        def prog(mpi):
            comm = mpi.world
            payload = mpi.doubles(256, fill=1.0)
            yield from comm.allgather(payload)
            yield from comm.bcast(mpi.doubles(512), root=0)
            yield from comm.barrier()
            return mpi.now

        data = returns_of(prog, nodes=2, cores=3)
        model = returns_of(prog, nodes=2, cores=3, payload="cost-only")
        assert data == model
