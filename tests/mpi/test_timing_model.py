"""Analytic timing assertions: collectives must cost what the model says.

These tests pin the cost composition of key paths with hand-computed
expectations on the round-number testing machine (alpha 1 µs, network
1 GB/s, per-stream memory 5 GB/s, shm hop 0.1 µs), catching accidental
double-charging or dropped cost terms during refactors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.machine import Placement, testing_machine as make_testing_spec
from repro.mpi import Bytes, run_program
from repro.mpi.collectives.tuning import generic_tuning
from tests.helpers import returns_of


def timed_collective(op_name, nbytes, *, nodes=1, cores=4, placement=None,
                     tuning=None):
    def prog(mpi):
        comm = mpi.world
        payload = Bytes(nbytes)
        yield from comm.barrier()
        t0 = mpi.now
        if op_name == "allgather":
            yield from comm.allgather(payload)
        elif op_name == "bcast":
            yield from comm.bcast(payload, root=0)
        elif op_name == "barrier":
            yield from comm.barrier()
        else:
            raise ValueError(op_name)
        return mpi.now - t0

    spec = make_testing_spec(nodes, cores)
    nprocs = None if placement is not None else nodes * cores
    result = run_program(spec, nprocs, prog, payload="cost-only",
                         placement=placement, tuning=tuning)
    return max(result.returns)


class TestBarrierCost:
    def test_single_node_formula(self):
        # shm barrier: base + ceil(log2 p) * flag.
        tuning = generic_tuning()
        for cores in (2, 4, 8):
            t = timed_collective("barrier", 0, cores=cores)
            rounds = math.ceil(math.log2(cores))
            expected = (
                tuning.shm_barrier_base + rounds * tuning.shm_barrier_flag
            )
            assert t == pytest.approx(expected), cores

    def test_barrier_independent_of_prior_payload_size(self):
        a = timed_collective("barrier", 0, cores=8)
        b = timed_collective("barrier", 0, cores=8)
        assert a == b


class TestP2PComposition:
    def test_internode_eager_cost(self):
        # alpha (1 us) + n / 1 GB/s, receiver side.
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                yield from comm.send(Bytes(2000), 1)
                return None
            t0 = mpi.now
            yield from comm.recv(source=0)
            return mpi.now - t0

        rets = returns_of(prog, nodes=2, cores=1, nprocs=2)
        assert rets[1] == pytest.approx(1.0e-6 + 2000 / 1.0e9)

    def test_internode_rendezvous_adds_round_trip(self):
        def make(nbytes):
            def prog(mpi):
                comm = mpi.world
                if comm.rank == 0:
                    yield from comm.send(Bytes(nbytes), 1)
                    return None
                t0 = mpi.now
                yield from comm.recv(source=0)
                return mpi.now - t0

            return prog

        eager = returns_of(make(4096), nodes=2, cores=1, nprocs=2)[1]
        rendezvous = returns_of(make(4097), nodes=2, cores=1, nprocs=2)[1]
        # Handshake = 2 * latency = 2 us on the flat testing network.
        assert rendezvous - eager == pytest.approx(2.0e-6, rel=0.01)

    def test_intranode_lmt_single_copy(self):
        # Large on-node message: latency + ONE contended copy (2n bytes
        # through the 5 GB/s stream).
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                yield from comm.send(Bytes(100_000), 1)
                return None
            t0 = mpi.now
            yield from comm.recv(source=0)
            return mpi.now - t0

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        expected = 1.0e-7 + 2 * 100_000 / 5.0e9
        assert rets[1] == pytest.approx(expected, rel=0.01)


class TestCollectiveComposition:
    def test_allgather_rd_round_structure(self):
        # Flat RD on 1 rank/node machines: each of log2(p) rounds costs
        # one alpha plus the growing transfer; with tiny payloads the
        # total ≈ call_overhead + log2(p) * alpha.
        tuning = generic_tuning()
        placement = Placement.irregular([1] * 8)
        t = timed_collective(
            "allgather", 8, nodes=8, cores=1, placement=placement
        )
        floor = tuning.call_overhead + 3 * 1.0e-6
        assert floor <= t <= floor * 1.6

    def test_bcast_binomial_depth(self):
        placement = Placement.irregular([1] * 8)
        tuning = generic_tuning()
        t = timed_collective(
            "bcast", 64, nodes=8, cores=1, placement=placement
        )
        floor = tuning.call_overhead + 3 * 1.0e-6  # depth log2(8)=3
        assert floor <= t <= floor * 1.6

    def test_hierarchical_allgather_beats_flat_on_nodes(self):
        smp = generic_tuning()
        flat = generic_tuning().with_(smp_aware=False)
        t_smp = timed_collective("allgather", 4096, nodes=2, cores=4,
                                 tuning=smp)
        t_flat = timed_collective("allgather", 4096, nodes=2, cores=4,
                                  tuning=flat)
        # The SMP-aware baseline must be no worse than flat RD here —
        # the honesty condition for the paper comparison.
        assert t_smp <= t_flat * 1.05

    def test_vector_overhead_charged_once(self):
        tuning = generic_tuning()

        def prog(mpi):
            comm = mpi.world
            yield from comm.barrier()
            t0 = mpi.now
            yield from comm.allgatherv(Bytes(8))
            return mpi.now - t0

        placement = Placement.irregular([1, 1])
        spec = make_testing_spec(2, 1)
        t = max(run_program(spec, None, prog, payload="cost-only",
                            placement=placement).returns)
        # allgatherv = call overhead + per-block vector overhead * p
        # + one bruck round (alpha + transfer).
        floor = (
            tuning.call_overhead
            + 2 * tuning.vector_block_overhead
            + 1.0e-6
        )
        assert t == pytest.approx(floor, rel=0.25)


class TestContentionEffects:
    def test_allgather_scales_worse_with_more_on_node_ranks(self):
        # Pure allgather per-byte cost grows with ppn (memory contention).
        def per_rank_time(cores):
            return timed_collective("allgather", 50_000, nodes=1,
                                    cores=cores)

        t4, t8 = per_rank_time(4), per_rank_time(8)
        # Doubling ppn more than doubles the time (superlinear in the
        # contended regime: more data AND more contention).
        assert t8 > 2.0 * t4

    def test_nic_contention_visible_in_fan_in(self):
        # Many nodes sending to one: receiver NIC serializes.
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                reqs = [
                    comm.irecv(source=s, tag=1)
                    for s in range(1, comm.size)
                ]
                t0 = mpi.now
                yield from comm.waitall(reqs)
                return mpi.now - t0
            yield from comm.send(Bytes(4000), 0, tag=1)
            return None

        placement = Placement.irregular([1] * 5)
        spec = make_testing_spec(5, 1)
        result = run_program(spec, None, prog, payload="cost-only",
                             placement=placement)
        t = result.returns[0]
        serialization = 4 * 4000 / 1.0e9  # 4 messages through one NIC
        assert t >= serialization
