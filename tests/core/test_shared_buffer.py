"""Direct unit tests for SharedBuffer geometry and payloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HybridContext
from repro.core.shared_buffer import SharedBuffer
from repro.core.placement import NodeSortedLayout
from repro.machine import Placement
from repro.mpi.datatypes import Bytes
from tests.helpers import returns_of


class TestGeometry:
    def test_slot_offsets_partition_total(self):
        def prog(mpi):
            ctx = yield from HybridContext.create(mpi.world)
            sizes = [8, 24, 16, 32][: mpi.world.size]
            buf = yield from ctx.allgatherv_buffer(sizes)
            yield from ctx.shm.barrier()
            covered = sum(
                buf.size_of_rank(r) for r in range(mpi.world.size)
            )
            return (covered, buf.total_nbytes)

        rets = returns_of(prog, nodes=2, cores=2)
        assert all(c == t for c, t in rets)

    def test_node_regions_tile_buffer(self):
        def prog(mpi):
            ctx = yield from HybridContext.create(mpi.world)
            buf = yield from ctx.allgather_buffer(10)
            yield from ctx.shm.barrier()
            regions = [buf.node_region(n) for n in ctx.layout.nodes]
            return regions

        rets = returns_of(prog, nodes=3, cores=2)
        for regions in rets:
            end = 0
            for off, nbytes in regions:
                assert off == end
                end += nbytes
            assert end == 60

    def test_mismatched_slot_sizes_rejected(self):
        layout = NodeSortedLayout((0, 1), Placement.block(1, 2))
        with pytest.raises(ValueError):
            SharedBuffer(
                win=None, layout=layout, slot_sizes=[8],
                my_rank=0, node=0, data_mode=False,
            )


class TestPayloads:
    def test_node_payload_matches_region_in_model_mode(self):
        def prog(mpi):
            ctx = yield from HybridContext.create(mpi.world)
            buf = yield from ctx.allgather_buffer(100)
            yield from ctx.shm.barrier()
            payload = buf.node_payload()
            _off, nbytes = buf.my_node_region
            return (isinstance(payload, Bytes), payload.nbytes == nbytes)

        rets = returns_of(prog, nodes=2, cores=3, payload="cost-only")
        assert all(r == (True, True) for r in rets)

    def test_node_payload_is_window_view_in_data_mode(self):
        def prog(mpi):
            ctx = yield from HybridContext.create(mpi.world)
            buf = yield from ctx.allgather_buffer(8)
            buf.local_view(np.float64)[:] = mpi.world.rank + 1
            yield from ctx.shm.barrier()
            payload = buf.node_payload()
            # The payload aliases the window: mutating it is visible.
            return [float(x) for x in np.asarray(payload).view(np.float64)]

        rets = returns_of(prog, nodes=2, cores=2)
        assert rets[0] == [1.0, 2.0]
        assert rets[2] == [3.0, 4.0]

    def test_write_region_roundtrip(self):
        def prog(mpi):
            ctx = yield from HybridContext.create(mpi.world)
            buf = yield from ctx.allgather_buffer(8)
            yield from ctx.shm.barrier()
            if ctx.is_leader:
                data = np.array([42.5]).view(np.uint8)
                offset, _n = buf.node_region(ctx.node)
                buf.write_region(offset, data)
            yield from ctx.shm.barrier()
            return float(buf.node_view(np.float64)[buf.my_slot - buf.my_slot])

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert all(r == 42.5 for r in rets)

    def test_write_region_noop_in_model_mode(self):
        def prog(mpi):
            ctx = yield from HybridContext.create(mpi.world)
            buf = yield from ctx.allgather_buffer(8)
            yield from ctx.shm.barrier()
            buf.write_region(0, Bytes(8))  # must not raise
            return buf.node_view() is None

        assert all(returns_of(prog, nodes=1, cores=2, nprocs=2,
                              payload="cost-only"))

    def test_region_payload_arbitrary_window(self):
        def prog(mpi):
            ctx = yield from HybridContext.create(mpi.world)
            buf = yield from ctx.allgather_buffer(8)
            buf.local_view(np.float64)[:] = float(mpi.world.rank)
            yield from ctx.shm.barrier()
            part = buf.region_payload(8, 8)  # rank 1's slot
            return float(np.asarray(part).view(np.float64)[0])

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert all(r == 1.0 for r in rets)


class TestBroadcastBuffers:
    def test_bcast_buffer_single_region(self):
        def prog(mpi):
            ctx = yield from HybridContext.create(mpi.world)
            buf = yield from ctx.bcast_buffer(64)
            yield from ctx.shm.barrier()
            return (buf.total_nbytes, len(buf.node_view(np.float64)))

        rets = returns_of(prog, nodes=2, cores=2)
        assert all(r == (64, 8) for r in rets)

    def test_each_node_gets_its_own_copy(self):
        def prog(mpi):
            ctx = yield from HybridContext.create(mpi.world)
            buf = yield from ctx.bcast_buffer(8)
            yield from ctx.shm.barrier()
            if ctx.is_leader:
                buf.node_view(np.float64)[:] = float(ctx.node + 7)
            yield from ctx.shm.barrier()
            return float(buf.node_view(np.float64)[0])

        rets = returns_of(prog, nodes=2, cores=2)
        assert rets == [7.0, 7.0, 8.0, 8.0]
