"""Unit tests for node/machine models and presets."""

from __future__ import annotations

import pytest

from repro.machine import (
    ComputeModel,
    Machine,
    MachineSpec,
    NodeSpec,
    Placement,
    hazel_hen,
    vulcan,
)
from repro.machine import testing_machine as make_testing_machine
from repro.mpi import Bytes, run_program
from repro.simulator import Engine


class TestSpecs:
    def test_node_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(cores=0).validate()
        with pytest.raises(ValueError):
            NodeSpec(mem_bandwidth=0).validate()
        NodeSpec().validate()

    def test_machine_validation(self):
        with pytest.raises(ValueError):
            MachineSpec(name="x", num_nodes=0).validate()
        with pytest.raises(ValueError):
            MachineSpec(name="x", num_nodes=1, topology_kind="ring").validate()

    def test_topology_factory(self):
        assert (
            hazel_hen(8).build_topology().__class__.__name__
            == "DragonflyTopology"
        )
        assert (
            vulcan(8).build_topology().__class__.__name__
            == "FatTreeTopology"
        )
        assert (
            make_testing_machine(2).build_topology().__class__.__name__
            == "FlatTopology"
        )


class TestPresets:
    def test_paper_node_architecture(self):
        # Both clusters use 24-core Haswell nodes (paper §5).
        for spec in (hazel_hen(4), vulcan(4)):
            assert spec.node.cores == 24
        # They differ in the network.
        assert hazel_hen(4).network.alpha < vulcan(4).network.alpha
        assert hazel_hen(4).network.bandwidth > vulcan(4).network.bandwidth

    def test_testing_machine_round_numbers(self):
        spec = make_testing_machine(2, 4)
        assert spec.network.alpha == 1.0e-6
        assert spec.network.bandwidth == 1.0e9


class TestMachine:
    def test_memory_copy_cost(self, engine, tiny_spec):
        # testing machine: mem_bw 10 GB/s over 2 streams -> 5 GB/s/stream;
        # one copy reads+writes -> 2*n bytes.
        m = Machine(engine, tiny_spec)
        done = []

        def prog():
            yield from m.memory_copy(0, 5000)
            done.append(engine.now)

        engine.spawn(prog())
        engine.run()
        assert done == [pytest.approx(2 * 5000 / 5.0e9)]

    def test_memory_contention_queues(self, engine, tiny_spec):
        # 2 streams: the third concurrent copy waits.
        m = Machine(engine, tiny_spec)
        done = []

        def prog(tag):
            yield from m.memory_copy(0, 5000)
            done.append(tag)

        for tag in range(3):
            engine.spawn(prog(tag))
        engine.run()
        per_copy = 2 * 5000 / 5.0e9
        assert engine.now == pytest.approx(2 * per_copy)

    def test_shared_touch_single_pass(self, engine, tiny_spec):
        m = Machine(engine, tiny_spec)

        def prog():
            yield from m.shared_touch(1, 5000)

        engine.spawn(prog())
        engine.run()
        assert engine.now == pytest.approx(5000 / 5.0e9)

    def test_default_placement_fills_nodes(self, engine, tiny_spec):
        m = Machine(engine, tiny_spec)
        p = m.default_placement(6)
        assert p.counts() == [4, 2]
        with pytest.raises(ValueError):
            m.default_placement(100)

    def test_placement_binding(self, engine, tiny_spec):
        m = Machine(engine, tiny_spec)
        with pytest.raises(RuntimeError):
            _ = m.placement
        p = Placement.block(2, 4)
        m.bind_placement(p)
        assert m.placement is p
        with pytest.raises(ValueError):
            m.bind_placement(Placement.block(5, 2))

    def test_intra_accounting(self, tiny_spec):
        # One on-node eager message: the CICO copy-in and copy-out each
        # count once, with the message's bytes.
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                yield from comm.send(Bytes(100), 1)
            elif comm.rank == 1:
                yield from comm.recv(source=0)

        result = run_program(tiny_spec, 2, prog)
        assert result.intra_copies == 2
        assert result.intra_bytes == 200


class TestComputeModel:
    def test_flops_time_uses_efficiency(self):
        cm = ComputeModel(core_peak_flops=10.0e9)
        assert cm.flops_time(1e9, "gemm") == pytest.approx(1 / (10 * 0.85))
        assert cm.flops_time(1e9, "unknown-kind") == pytest.approx(
            1 / (10 * 0.25)
        )

    def test_gemm_time_small_blocks_less_efficient(self):
        cm = ComputeModel()
        # Same flop count per element ratio, worse efficiency when tiny.
        t_small = cm.gemm_time(8, 8, 8) / (2 * 8**3)
        t_big = cm.gemm_time(128, 128, 128) / (2 * 128**3)
        assert t_small > t_big

    def test_memory_time(self):
        cm = ComputeModel(core_mem_bandwidth=2.0e9)
        assert cm.memory_time(2.0e9) == pytest.approx(1.0)

    def test_negative_rejected(self):
        cm = ComputeModel()
        with pytest.raises(ValueError):
            cm.flops_time(-1)
        with pytest.raises(ValueError):
            cm.memory_time(-1)

    def test_with_efficiency_override(self):
        cm = ComputeModel().with_efficiency(gemm=0.5)
        assert cm.efficiency["gemm"] == 0.5
        assert ComputeModel().efficiency["gemm"] == 0.85
