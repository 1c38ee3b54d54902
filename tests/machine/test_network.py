"""Unit tests for the network cost model."""

from __future__ import annotations

import pytest

from repro.machine import (
    FlatTopology,
    NetworkModel,
    NetworkSpec,
)
from repro.machine import testing_machine as make_testing_spec
from repro.machine.placement import Placement
from repro.mpi import Bytes
from repro.mpi.runtime import MPIJob


def make_net(engine, num_nodes=4, **kw):
    defaults = dict(
        alpha=1.0e-6,
        hop_latency=0.0,
        bandwidth=1.0e9,
        nic_streams=1,
        eager_threshold=4096,
    )
    defaults.update(kw)
    return NetworkModel(engine, NetworkSpec(**defaults), num_nodes=num_nodes)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec(alpha=-1.0).validate()
        with pytest.raises(ValueError):
            NetworkSpec(bandwidth=0.0).validate()
        with pytest.raises(ValueError):
            NetworkSpec(nic_streams=0).validate()
        NetworkSpec().validate()  # defaults are valid


class TestLatency:
    def test_latency_includes_hops(self, engine):
        net = make_net(engine, hop_latency=1.0e-7)
        # Flat topology: 2 hops between distinct nodes.
        assert net.latency(0, 1) == pytest.approx(1.0e-6 + 2.0e-7)

    def test_uncontended_time_eager(self, engine):
        net = make_net(engine)
        t = net.uncontended_time(0, 1, 1000)
        assert t == pytest.approx(1.0e-6 + 1000 / 1.0e9)

    def test_uncontended_time_rendezvous_adds_handshake(self, engine):
        net = make_net(engine)
        small = net.uncontended_time(0, 1, 4096)
        big = net.uncontended_time(0, 1, 4097)
        # Extra round trip (2 * latency) for the rendezvous message.
        assert big - small == pytest.approx(2.0e-6 + 1 / 1.0e9, rel=1e-3)


def run_job(program, nodes=3, cores=1):
    """Run *program* on a testing machine whose network is ``make_net``'s
    (alpha 1 us, 1 GB/s, one NIC stream, eager up to 4096 B), ranks
    placed block-wise; returns ``(network model, JobResult)``."""
    job = MPIJob(make_testing_spec(num_nodes=nodes, cores=cores), program,
                 placement=Placement.block(nodes, cores), payload="cost-only")
    result = job.run()
    return job.machine.network, result


class TestTransmit:
    """A message's trip across the network, on real 1- and 2-message
    jobs (one rank per node unless stated)."""

    def test_transfer_completes_at_model_time(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                yield from comm.send(Bytes(1000), 1)
            elif comm.rank == 1:
                yield from comm.recv(source=0)
                return mpi.now
            return None

        _net, result = run_job(prog, nodes=2)
        # alpha + 1000 B / 1 GB/s
        assert result.returns[1] == pytest.approx(1.0e-6 + 1.0e-6)

    def test_nic_serializes_concurrent_sends(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                yield from comm.waitall([comm.isend(Bytes(1000), 1),
                                         comm.isend(Bytes(1000), 2)])
                return None
            yield from comm.recv(source=0)
            return mpi.now

        _net, result = run_job(prog)
        t1 = 1.0e-6 + 1.0e-6
        # The second send waits for the first's TX serialization (1 us).
        assert result.returns[1:] == [pytest.approx(t1),
                                      pytest.approx(t1 + 1.0e-6)]

    def test_stats_recorded(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                yield from comm.send(Bytes(500), 1)
                yield from comm.send(Bytes(8192), 2)  # rendezvous
            else:
                yield from comm.recv(source=0)

        net, result = run_job(prog)
        assert result.network_messages == net.stats.messages == 2
        assert result.network_bytes == net.stats.bytes == 500 + 8192

    def test_on_node_message_skips_the_network(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                yield from comm.send(Bytes(1000), 1)
            else:
                yield from comm.recv(source=0)

        net, result = run_job(prog, nodes=1, cores=2)
        assert net.stats.messages == result.network_messages == 0
        assert result.intra_copies == 2

    def test_topology_capacity_checked(self, engine):
        with pytest.raises(ValueError):
            NetworkModel(
                engine, NetworkSpec(), num_nodes=8,
                topology=FlatTopology(4),
            )
