"""Correctness of the hybrid collectives (data mode, vs references)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FlagSync, HybridContext
from repro.core.alltoall import alloc_alltoall_buffers, hy_alltoall
from repro.machine import Placement
from repro.mpi.constants import ReduceOp
from tests.helpers import returns_of

SHAPES = [(1, 4), (2, 2), (2, 3), (3, 2), (1, 1)]


def _id(s):
    return f"{s[0]}x{s[1]}"


@pytest.mark.parametrize("shape", SHAPES, ids=_id)
class TestHyAllgather:
    def test_full_result_everywhere(self, shape):
        nodes, cores = shape

        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm)
            buf = yield from ctx.allgather_buffer(16)
            buf.local_view(np.float64)[:] = comm.rank
            yield from ctx.allgather(buf)
            full = buf.node_view(np.float64).reshape(comm.size, 2)
            return [float(v) for v in full[:, 0]]

        rets = returns_of(prog, nodes=nodes, cores=cores,
                          nprocs=nodes * cores)
        expected = [float(r) for r in range(nodes * cores)]
        assert all(r == expected for r in rets)

    def test_repeated_epochs_update(self, shape):
        nodes, cores = shape

        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm)
            buf = yield from ctx.allgather_buffer(8)
            sums = []
            for epoch in range(3):
                buf.local_view(np.float64)[:] = comm.rank + epoch * 100
                yield from ctx.allgather(buf)
                sums.append(float(buf.node_view(np.float64).sum()))
                # Re-sync before the next epoch overwrites the buffer.
                yield from ctx.shm.barrier()
            return sums

        rets = returns_of(prog, nodes=nodes, cores=cores,
                          nprocs=nodes * cores)
        size = nodes * cores
        base = sum(range(size))
        expected = [float(base + e * 100 * size) for e in range(3)]
        assert all(r == expected for r in rets)


class TestHyAllgatherVariants:
    def test_irregular_sizes(self):
        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm)
            sizes = [8 * (r + 1) for r in range(comm.size)]
            buf = yield from ctx.allgatherv_buffer(sizes)
            buf.local_view(np.float64)[:] = comm.rank
            yield from ctx.allgather(buf)
            return [
                list(buf.slot_view(r, np.float64))
                for r in range(comm.size)
            ]

        rets = returns_of(prog, nodes=2, cores=2)
        for r in rets:
            for rank, block in enumerate(r):
                assert block == [float(rank)] * (rank + 1)

    def test_pipelined_matches_plain(self):
        def make(pipelined):
            def prog(mpi):
                comm = mpi.world
                ctx = yield from HybridContext.create(comm)
                buf = yield from ctx.allgather_buffer(50_000)
                buf.local_view(np.float64)[:] = comm.rank
                yield from ctx.allgather(
                    buf, pipelined=pipelined, chunk_bytes=16_384
                )
                return float(buf.node_view(np.float64).sum())

            return prog

        plain = returns_of(make(False), nodes=3, cores=2)
        piped = returns_of(make(True), nodes=3, cores=2)
        assert plain == piped

    def test_flag_sync_matches_barrier_sync(self):
        def make(sync):
            def prog(mpi):
                comm = mpi.world
                ctx = yield from HybridContext.create(
                    comm, default_sync=sync
                )
                buf = yield from ctx.allgather_buffer(8)
                buf.local_view(np.float64)[:] = comm.rank * 2
                yield from ctx.allgather(buf)
                return list(buf.node_view(np.float64))

            return prog

        a = returns_of(make(None), nodes=2, cores=3)
        b = returns_of(make(FlagSync()), nodes=2, cores=3)
        assert a == b

    def test_round_robin_placement_correctness(self):
        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm)
            buf = yield from ctx.allgather_buffer(8)
            buf.local_view(np.float64)[:] = comm.rank
            yield from ctx.allgather(buf)
            return [
                float(buf.slot_view(r, np.float64)[0])
                for r in range(comm.size)
            ]

        placement = Placement.round_robin(2, 3)
        rets = returns_of(prog, nodes=2, cores=3, placement=placement)
        assert all(r == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0] for r in rets)


@pytest.mark.parametrize("shape", SHAPES, ids=_id)
class TestHyBcast:
    def test_from_rank0(self, shape):
        nodes, cores = shape

        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm)
            buf = yield from ctx.bcast_buffer(32)
            if comm.rank == 0:
                buf.node_view(np.float64)[:] = np.arange(4.0) + 7
            yield from ctx.bcast(buf, root=0)
            return list(buf.node_view(np.float64))

        rets = returns_of(prog, nodes=nodes, cores=cores,
                          nprocs=nodes * cores)
        assert all(r == [7.0, 8.0, 9.0, 10.0] for r in rets)


class TestHyBcastRoots:
    @pytest.mark.parametrize("root", [0, 1, 3, 5])
    def test_non_leader_roots(self, root):
        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm)
            buf = yield from ctx.bcast_buffer(16)
            if comm.rank == root:
                buf.node_view(np.float64)[:] = root * 11.0
            yield from ctx.bcast(buf, root=root)
            return float(buf.node_view(np.float64)[0])

        rets = returns_of(prog, nodes=2, cores=3)
        assert all(r == root * 11.0 for r in rets)


class TestHyReductions:
    @pytest.mark.parametrize("shape", SHAPES, ids=_id)
    def test_allreduce_sum(self, shape):
        nodes, cores = shape
        size = nodes * cores

        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm)
            contrib = np.full(4, float(comm.rank))
            out = yield from ctx.allreduce(contrib, 32)
            return list(np.asarray(out))

        rets = returns_of(prog, nodes=nodes, cores=cores,
                          nprocs=nodes * cores)
        assert all(r == [float(sum(range(size)))] * 4 for r in rets)

    def test_allreduce_max(self):
        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm)
            out = yield from ctx.allreduce(
                np.array([float(comm.rank)]), 8, op=ReduceOp.MAX
            )
            return float(np.asarray(out)[0])

        rets = returns_of(prog, nodes=2, cores=3)
        assert all(r == 5.0 for r in rets)

    def test_allreduce_size_mismatch_rejected(self):
        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm)
            try:
                yield from ctx.allreduce(np.zeros(4), 999)
            except ValueError:
                yield from comm.barrier()
                return "rejected"
            return "accepted"

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert all(r == "rejected" for r in rets)


class TestHyAlltoall:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)], ids=_id)
    def test_personalized_exchange(self, shape):
        nodes, cores = shape
        size = nodes * cores

        def prog(mpi):
            comm = mpi.world
            ctx = yield from HybridContext.create(comm)
            bufs = yield from alloc_alltoall_buffers(ctx, block_bytes=8)
            out = bufs.my_out_row()
            for dst in range(comm.size):
                out[dst].view(np.float64)[0] = comm.rank * 100 + dst
            yield from hy_alltoall(ctx, bufs)
            inc = bufs.my_in_row()
            return [float(inc[src].view(np.float64)[0])
                    for src in range(comm.size)]

        rets = returns_of(prog, nodes=nodes, cores=cores,
                          nprocs=nodes * cores)
        for rank, incoming in enumerate(rets):
            assert incoming == [
                float(src * 100 + rank) for src in range(size)
            ], rank
