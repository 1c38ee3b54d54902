"""Tests for the MPI-3 shared-memory window model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi.errors import WindowError
from tests.helpers import returns_of, run


class TestAllocation:
    def test_leader_allocates_children_query(self):
        # The paper's allocation pattern (Fig 4 line 13): whole size at
        # the leader, zero at the children.
        def prog(mpi):
            shm = yield from mpi.world.split_type_shared()
            size = 32 if shm.rank == 0 else 0
            win = yield from mpi.win_allocate_shared(shm, size)
            return (win.total_bytes, win.size_of(0), win.size_of(1))

        rets = returns_of(prog, nodes=2, cores=2)
        assert all(r == (32, 32, 0) for r in rets)

    def test_contiguous_layout_across_ranks(self):
        def prog(mpi):
            shm = yield from mpi.world.split_type_shared()
            win = yield from mpi.win_allocate_shared(shm, 8 * (shm.rank + 1))
            return [win.offset_of(r) for r in range(shm.size)]

        rets = returns_of(prog, nodes=1, cores=3, nprocs=3)
        assert rets[0] == [0, 8, 24]  # sizes 8, 16, 24 in rank order

    def test_multi_node_comm_rejected(self):
        def prog(mpi):
            try:
                yield from mpi.win_allocate_shared(mpi.world, 8)
            except WindowError:
                yield from mpi.world.barrier()
                return "rejected"
            return "accepted"

        rets = returns_of(prog, nodes=2, cores=2)
        assert all(r == "rejected" for r in rets)

    def test_negative_size_rejected(self):
        def prog(mpi):
            shm = yield from mpi.world.split_type_shared()
            try:
                yield from mpi.win_allocate_shared(shm, -1)
            except WindowError:
                yield from shm.barrier()
                return "rejected"
            return "accepted"

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert all(r == "rejected" for r in rets)


class TestSharing:
    def test_stores_visible_to_all_members(self):
        def prog(mpi):
            shm = yield from mpi.world.split_type_shared()
            win = yield from mpi.win_allocate_shared(
                shm, 8 * shm.size if shm.rank == 0 else 0
            )
            view = win.whole(np.float64)
            view[shm.rank] = mpi.world.rank * 1.5
            yield from shm.barrier()
            return list(view)

        rets = returns_of(prog, nodes=2, cores=3)
        assert rets[0] == [0.0, 1.5, 3.0]       # node 0: world ranks 0-2
        assert rets[3] == [4.5, 6.0, 7.5]       # node 1: world ranks 3-5

    def test_nodes_have_independent_windows(self):
        def prog(mpi):
            shm = yield from mpi.world.split_type_shared()
            win = yield from mpi.win_allocate_shared(
                shm, 8 if shm.rank == 0 else 0
            )
            if shm.rank == 0:
                win.whole(np.float64)[0] = float(mpi.node + 100)
            yield from shm.barrier()
            return float(win.whole(np.float64)[0])

        rets = returns_of(prog, nodes=2, cores=2)
        assert rets[:2] == [100.0, 100.0]
        assert rets[2:] == [101.0, 101.0]

    def test_segment_view_is_shared_query(self):
        def prog(mpi):
            shm = yield from mpi.world.split_type_shared()
            win = yield from mpi.win_allocate_shared(shm, 16)
            seg = win.segment(shm.rank, np.float64)
            seg[:] = shm.rank + 0.25
            yield from shm.barrier()
            # Read the peer's segment directly (shared_query semantics).
            peer = (shm.rank + 1) % shm.size
            return float(win.segment(peer, np.float64)[0])

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert rets == [1.25, 0.25]

    def test_model_mode_has_no_storage(self):
        def prog(mpi):
            shm = yield from mpi.world.split_type_shared()
            win = yield from mpi.win_allocate_shared(shm, 1 << 20)
            return win.whole() is None and win.segment(0) is None

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2,
                          payload="cost-only")
        assert all(rets)


class TestCostsAndFlags:
    def test_touch_charges_memory_time(self):
        def prog(mpi):
            shm = yield from mpi.world.split_type_shared()
            win = yield from mpi.win_allocate_shared(shm, 64)
            yield from shm.barrier()
            t0 = mpi.now
            yield from win.touch(5000)
            return mpi.now - t0

        rets = returns_of(prog, nodes=1, cores=1, nprocs=1)
        # testing machine: 10 GB/s over 2 streams -> 5 GB/s per stream.
        assert rets[0] == pytest.approx(5000 / 5.0e9)

    def test_flag_store(self):
        def prog(mpi):
            shm = yield from mpi.world.split_type_shared()
            win = yield from mpi.win_allocate_shared(shm, 8)
            if shm.rank == 0:
                win.flag_write("epoch", 7)
                win.flag_add("count", 3)
            yield from shm.barrier()
            return (win.flag_read("epoch"), win.flag_read("count"),
                    win.flag_read("missing"))

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert all(r == (7, 3, 0) for r in rets)
