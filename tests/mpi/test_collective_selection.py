"""Tests of the runtime algorithm-selection (decision table) via traces."""

from __future__ import annotations

import pytest

from repro.machine import Placement, testing_machine as make_testing_spec
from repro.mpi import Bytes, run_program
from repro.mpi.collectives.tuning import (
    cray_mpich_tuning,
    generic_tuning,
    openmpi_tuning,
    tuning_for_machine,
)


def traced(prog, *, nodes=1, cores=4, tuning=None, placement=None):
    spec = make_testing_spec(nodes, cores)
    nprocs = None if placement is not None else nodes * cores
    result = run_program(
        spec, nprocs, prog, trace=True, payload="cost-only",
        tuning=tuning, placement=placement,
    )
    return result.trace


def algos_of(trace, op):
    return {t["algo"] for t in trace if t["op"] == op}


class TestAllgatherSelection:
    def _prog(self, nbytes):
        def prog(mpi):
            yield from mpi.world.allgather(Bytes(nbytes))

        return prog

    def test_small_pof2_uses_recursive_doubling(self):
        trace = traced(self._prog(64), cores=4)
        assert algos_of(trace, "allgather") == {"recursive_doubling"}

    def test_small_non_pof2_uses_bruck(self):
        trace = traced(self._prog(64), cores=3)
        assert algos_of(trace, "allgather") == {"bruck"}

    def test_large_uses_ring(self):
        tuning = generic_tuning()
        nbytes = tuning.allgather_rd_max_total  # total = 4x -> over cap
        trace = traced(self._prog(nbytes), cores=4)
        assert algos_of(trace, "allgather") == {"ring"}

    def test_multinode_uses_hierarchy(self):
        trace = traced(self._prog(64), nodes=2, cores=2)
        assert algos_of(trace, "allgather") == {"smp_hierarchical"}

    def test_one_rank_per_node_stays_flat(self):
        placement = Placement.irregular([1, 1, 1, 1])
        trace = traced(
            self._prog(64), nodes=4, cores=1, placement=placement
        )
        assert algos_of(trace, "allgather") == {"recursive_doubling"}

    def test_smp_aware_disabled_forces_flat(self):
        tuning = generic_tuning().with_(smp_aware=False)
        trace = traced(self._prog(64), nodes=2, cores=2, tuning=tuning)
        assert algos_of(trace, "allgather") == {"recursive_doubling"}


class TestAllgathervSelection:
    def _prog(self, nbytes):
        def prog(mpi):
            yield from mpi.world.allgatherv(Bytes(nbytes))

        return prog

    def test_never_recursive_doubling(self):
        # Even a power-of-two small case avoids RD (the [29] penalty).
        trace = traced(self._prog(64), cores=4)
        assert algos_of(trace, "allgatherv") == {"bruck_v"}

    def test_large_uses_ring_v(self):
        tuning = generic_tuning()
        trace = traced(
            self._prog(tuning.allgatherv_bruck_max_total), cores=4
        )
        assert algos_of(trace, "allgatherv") == {"ring_v"}


class TestBcastSelection:
    def _prog(self, nbytes):
        def prog(mpi):
            yield from mpi.world.bcast(Bytes(nbytes), root=0)

        return prog

    def test_small_binomial(self):
        trace = traced(self._prog(512), cores=4)
        assert algos_of(trace, "bcast") == {"binomial"}

    def test_medium_scatter_allgather(self):
        trace = traced(self._prog(64 * 1024), cores=4)
        assert algos_of(trace, "bcast") == {"scatter_allgather"}

    def test_huge_pipeline(self):
        trace = traced(self._prog(4 * 1024 * 1024), cores=8)
        assert algos_of(trace, "bcast") == {"pipeline"}

    def test_two_ranks_always_binomial(self):
        trace = traced(self._prog(64 * 1024), cores=2)
        assert algos_of(trace, "bcast") == {"binomial"}


class TestAllreduceSelection:
    def _prog(self, nbytes):
        def prog(mpi):
            from repro.mpi.constants import ReduceOp

            yield from mpi.world.allreduce(Bytes(nbytes), ReduceOp.SUM)

        return prog

    def test_small_recursive_doubling(self):
        trace = traced(self._prog(512), cores=4)
        assert algos_of(trace, "allreduce") == {"recursive_doubling"}

    def test_large_pof2_rabenseifner(self):
        trace = traced(self._prog(256 * 1024), cores=4)
        assert algos_of(trace, "allreduce") == {"rabenseifner"}

    def test_large_non_pof2_uses_ring(self):
        trace = traced(self._prog(256 * 1024), cores=3)
        assert algos_of(trace, "allreduce") == {"ring"}


class TestBarrierSelection:
    def test_single_node_uses_flags(self):
        def prog(mpi):
            yield from mpi.world.barrier()

        trace = traced(prog, nodes=1, cores=4)
        assert algos_of(trace, "barrier") == {"shm_flags"}

    def test_multi_node_uses_hierarchy(self):
        def prog(mpi):
            yield from mpi.world.barrier()

        trace = traced(prog, nodes=2, cores=2)
        assert algos_of(trace, "barrier") == {"smp_hierarchical"}


class TestPersonalities:
    def test_tuning_for_machine(self):
        assert tuning_for_machine("hazel_hen").name == "cray_mpich"
        assert tuning_for_machine("vulcan").name == "openmpi"
        assert tuning_for_machine("anything").name == "generic"

    def test_openmpi_has_higher_overheads(self):
        cray, ompi = cray_mpich_tuning(), openmpi_tuning()
        assert ompi.call_overhead > cray.call_overhead
        assert ompi.vector_block_overhead > cray.vector_block_overhead

    def test_with_override(self):
        t = generic_tuning().with_(smp_aware=False)
        assert not t.smp_aware
        assert generic_tuning().smp_aware
