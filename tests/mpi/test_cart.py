"""Tests for Cartesian topologies and the profiler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi import Bytes
from repro.mpi.cart import CartComm, cart_create, dims_create
from repro.mpi.constants import PROC_NULL
from repro.mpi.errors import MPIError
from repro.mpi.profiler import CommProfile, OpStats, aggregate_profiles
from tests.helpers import returns_of, run


class TestDimsCreate:
    def test_balanced_square(self):
        assert dims_create(16, 2) == [4, 4]

    def test_rectangles(self):
        assert sorted(dims_create(12, 2)) == [3, 4]
        assert dims_create(24, 3) in ([4, 3, 2], [3, 4, 2], [4, 2, 3])
        import math

        assert math.prod(dims_create(24, 3)) == 24

    def test_one_dim(self):
        assert dims_create(7, 1) == [7]

    def test_validation(self):
        with pytest.raises(ValueError):
            dims_create(0, 2)


class TestCartComm:
    def test_coords_roundtrip(self):
        def prog(mpi):
            cart = cart_create(mpi.world, (2, 3))
            yield from mpi.world.barrier()
            c = cart.coords()
            return (c, cart.rank_at(c))

        rets = returns_of(prog, nodes=1, cores=6, nprocs=6)
        for rank, (coords, back) in enumerate(rets):
            assert back == rank
            assert coords == (rank // 3, rank % 3)

    def test_size_mismatch_rejected(self):
        def prog(mpi):
            try:
                cart_create(mpi.world, (2, 2))
            except MPIError:
                yield from mpi.world.barrier()
                return "rejected"
            return "ok"

        rets = returns_of(prog, nodes=1, cores=6, nprocs=6)
        assert all(r == "rejected" for r in rets)

    def test_shift_open_boundary(self):
        def prog(mpi):
            cart = cart_create(mpi.world, (4,), periods=(False,))
            yield from mpi.world.barrier()
            return cart.shift(0, 1)

        rets = returns_of(prog, nodes=1, cores=4, nprocs=4)
        assert rets[0] == (PROC_NULL, 1)
        assert rets[3] == (2, PROC_NULL)

    def test_shift_periodic(self):
        def prog(mpi):
            cart = cart_create(mpi.world, (4,), periods=(True,))
            yield from mpi.world.barrier()
            return cart.shift(0, 1)

        rets = returns_of(prog, nodes=1, cores=4, nprocs=4)
        assert rets[0] == (3, 1)
        assert rets[3] == (2, 0)

    def test_row_col_subcomms(self):
        def prog(mpi):
            cart = cart_create(mpi.world, (2, 3))
            row = yield from cart.sub(1)
            col = yield from cart.sub(0)
            # Row comm ranks share their first coordinate.
            mine = np.array([float(cart.rank)])
            row_ranks = yield from row.allgather(mine)
            col_ranks = yield from col.allgather(mine)
            return (
                [float(np.asarray(b)[0]) for b in row_ranks],
                [float(np.asarray(b)[0]) for b in col_ranks],
            )

        rets = returns_of(prog, nodes=1, cores=6, nprocs=6)
        assert rets[0] == ([0.0, 1.0, 2.0], [0.0, 3.0])
        assert rets[4] == ([3.0, 4.0, 5.0], [1.0, 4.0])

    def test_sub_cached(self):
        def prog(mpi):
            cart = cart_create(mpi.world, (2, 2))
            a = yield from cart.sub(0)
            b = yield from cart.sub(0)
            return a is b

        assert all(returns_of(prog, nodes=1, cores=4, nprocs=4))

    def test_halo_exchange_over_cart(self):
        # Neighbour sendrecv along a periodic ring using shift().
        def prog(mpi):
            cart = cart_create(mpi.world, (4,), periods=(True,))
            src, dst = cart.shift(0, 1)
            got = yield from cart.comm.sendrecv(
                np.array([float(cart.rank)]), dest=dst, source=src,
                sendtag=1, recvtag=1,
            )
            return float(np.asarray(got)[0])

        rets = returns_of(prog, nodes=1, cores=4, nprocs=4)
        assert rets == [3.0, 0.0, 1.0, 2.0]


class TestProfiler:
    def test_ops_recorded(self):
        def prog(mpi):
            comm = mpi.world
            yield from comm.barrier()
            yield from comm.allgather(Bytes(64))
            yield from comm.allgather(Bytes(64))
            yield from comm.bcast(Bytes(32), root=0)
            return None

        result = run(prog, nodes=2, cores=2, payload="cost-only")
        summary = result.comm_summary()
        assert summary["allgather"]["calls"] == 2 * 4
        assert summary["barrier"]["calls"] == 4
        assert summary["bcast"]["calls"] == 4
        assert summary["allgather"]["time"] > 0

    def test_aggregate_uses_max_time(self):
        a, b = CommProfile(), CommProfile()
        a.record("bcast", 10, 1.0)
        b.record("bcast", 10, 3.0)
        merged = aggregate_profiles([a, b])
        assert merged["bcast"].calls == 2
        assert merged["bcast"].bytes == 20
        assert merged["bcast"].time == 3.0

    def test_disabled_profile_records_nothing(self):
        p = CommProfile(enabled=False)
        p.record("x", 1, 1.0)
        assert p.total_calls == 0

    def test_opstats_merge(self):
        s = OpStats(1, 10.0, 2.0).merged(OpStats(2, 5.0, 1.0))
        assert (s.calls, s.bytes, s.time) == (3, 15.0, 2.0)
