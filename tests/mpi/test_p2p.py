"""Integration tests for point-to-point messaging semantics and timing."""

from __future__ import annotations

import numpy as np
import pytest

from tests.helpers import returns_of, run
from repro.machine import testing_machine as make_testing_spec
from repro.mpi import ANY_SOURCE, ANY_TAG, Bytes, TruncationError
from repro.mpi.constants import PROC_NULL


class TestBasics:
    def test_send_recv_roundtrip(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                yield from comm.send(np.arange(5.0), 1, tag=3)
                return None
            if comm.rank == 1:
                data = yield from comm.recv(source=0, tag=3)
                return list(np.asarray(data))
            return None

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert rets[1] == [0, 1, 2, 3, 4]

    def test_value_semantics_snapshot_at_send(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                buf = np.arange(4.0)
                req = comm.isend(buf, 1)
                buf[:] = -1  # mutate after isend: receiver must not see it
                yield req.event
                return None
            data = yield from comm.recv(source=0)
            return list(np.asarray(data))

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert rets[1] == [0, 1, 2, 3]

    def test_recv_into_buffer(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                yield from comm.send(np.full(3, 7.0), 1)
                return None
            buf = np.zeros(3)
            out = yield from comm.recv(buf=buf, source=0)
            assert out is buf
            return list(buf)

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert rets[1] == [7.0, 7.0, 7.0]

    def test_truncation_error(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                yield from comm.send(np.zeros(10), 1)
                return "sent"
            try:
                yield from comm.recv(buf=np.zeros(2), source=0)
            except TruncationError:
                return "truncated"
            return "no error"

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert rets[1] == "truncated"

    def test_status_reports_source_tag_size(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 2:
                yield from comm.send(Bytes(64), 0, tag=9)
                return None
            if comm.rank == 0:
                _payload, status = yield from comm.recv_status(
                    source=ANY_SOURCE, tag=ANY_TAG
                )
                return (status.source, status.tag, status.nbytes)
            return None

        rets = returns_of(prog, nodes=1, cores=4, nprocs=4)
        assert rets[0] == (2, 9, 64)

    def test_peer_out_of_range(self):
        def prog(mpi):
            comm = mpi.world
            err = None
            if comm.rank == 0:
                try:
                    comm.isend(Bytes(1), 99)
                except Exception as exc:
                    err = type(exc).__name__
            yield from comm.barrier()
            return err

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert rets[0] == "MPIError"


class TestMatching:
    def test_tag_selectivity(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                yield from comm.send(Bytes(1), 1, tag=10)
                yield from comm.send(Bytes(2), 1, tag=20)
                return None
            first = yield from comm.recv(source=0, tag=20)
            second = yield from comm.recv(source=0, tag=10)
            return (first.nbytes, second.nbytes)

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert rets[1] == (2, 1)

    def test_non_overtaking_same_tag(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                for i in range(4):
                    yield from comm.send(Bytes(i + 1), 1, tag=5)
                return None
            sizes = []
            for _ in range(4):
                p = yield from comm.recv(source=0, tag=5)
                sizes.append(p.nbytes)
            return sizes

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert rets[1] == [1, 2, 3, 4]

    def test_any_source_matches_earliest_post(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank in (1, 2):
                # rank 1 sends at t=0; rank 2 sends later.
                if comm.rank == 2:
                    yield mpi.compute(1e-3)
                yield from comm.send(Bytes(comm.rank), 0, tag=1)
                return None
            if comm.rank == 0:
                a = yield from comm.recv(source=ANY_SOURCE, tag=1)
                b = yield from comm.recv(source=ANY_SOURCE, tag=1)
                return (a.nbytes, b.nbytes)
            return None

        rets = returns_of(prog, nodes=1, cores=4, nprocs=4)
        assert rets[0] == (1, 2)

    def test_proc_null_completes_immediately(self):
        def prog(mpi):
            comm = mpi.world
            yield from comm.send(Bytes(10), PROC_NULL)
            payload = yield from comm.recv(source=PROC_NULL)
            return payload is None

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert all(rets)

    def test_sendrecv_exchange(self):
        def prog(mpi):
            comm = mpi.world
            peer = 1 - comm.rank
            got = yield from comm.sendrecv(
                np.full(2, float(comm.rank)), dest=peer, source=peer
            )
            return float(np.asarray(got)[0])

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert rets == [1.0, 0.0]

    def test_waitall_gathers_everything(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                reqs = [comm.irecv(source=s, tag=s) for s in (1, 2, 3)]
                results = yield from comm.waitall(reqs)
                return [p.nbytes for p, _s in results]
            yield from comm.send(Bytes(comm.rank * 10), 0, tag=comm.rank)
            return None

        rets = returns_of(prog, nodes=1, cores=4, nprocs=4)
        assert rets[0] == [10, 20, 30]


class TestProtocolTiming:
    """Eager vs rendezvous behaviour, intra vs inter node costs."""

    def test_eager_sender_completes_before_recv_posted(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                t0 = mpi.now
                yield from comm.send(Bytes(100), 1)  # eager (< threshold)
                return mpi.now - t0
            yield mpi.compute(1.0)  # receiver is late
            yield from comm.recv(source=0)
            return None

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert rets[0] < 0.5  # sender did NOT wait the receiver's 1 s

    def test_rendezvous_sender_blocks_until_recv(self):
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                t0 = mpi.now
                yield from comm.send(Bytes(100_000), 1)  # > threshold
                return mpi.now - t0
            yield mpi.compute(1.0)
            yield from comm.recv(source=0)
            return None

        rets = returns_of(prog, nodes=1, cores=2, nprocs=2)
        assert rets[0] >= 1.0  # sender waited for the late receiver

    def test_internode_slower_than_intranode(self):
        def make(nodes, cores):
            def prog(mpi):
                comm = mpi.world
                if comm.rank == 0:
                    yield from comm.send(Bytes(1000), comm.size - 1)
                    return None
                if comm.rank == comm.size - 1:
                    t0 = mpi.now
                    yield from comm.recv(source=0)
                    return mpi.now - t0
                return None

            return prog

        intra = returns_of(make(1, 2), nodes=1, cores=2, nprocs=2)[-1]
        inter = returns_of(make(2, 1), nodes=2, cores=1, nprocs=2)[-1]
        assert inter > intra

    def test_intra_eager_pays_two_copies(self):
        # CICO: 0.1us latency + copy-in + copy-out, each 2*n/5GB/s.
        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                yield from comm.send(Bytes(4000), 1)
                return None
            t0 = mpi.now
            yield from comm.recv(source=0)
            return mpi.now - t0

        spec = make_testing_spec(1, 2)
        rets = returns_of(prog, nodes=1, cores=2, nprocs=2, spec=spec)
        expected = 1.0e-7 + 2 * (2 * 4000 / 5.0e9)
        assert rets[1] == pytest.approx(expected)

    def test_job_reports_unmatched_messages(self):
        from repro.mpi.errors import MPIError

        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                # Eager send that nobody receives.
                yield from comm.send(Bytes(1), 1)
            return None

        with pytest.raises(MPIError, match="unmatched"):
            run(prog, nodes=1, cores=2, nprocs=2)

    @pytest.mark.parametrize("nbytes", [64, 1 << 20],
                             ids=["eager", "rendezvous"])
    @pytest.mark.parametrize("nodes", [1, 2], ids=["on_node", "off_node"])
    def test_unreceived_isend_reports_unmatched(self, nbytes, nodes):
        # An isend nobody receives is a program bug the job reports by
        # count, whatever the protocol: a rendezvous send waiting for
        # its match is not a deadlocked process.
        from repro.mpi.errors import MPIError

        def prog(mpi):
            comm = mpi.world
            if comm.rank == 0:
                comm.isend(Bytes(nbytes), comm.size - 1)
            return None
            yield

        with pytest.raises(MPIError, match=r"^job finished with 1 "
                                           r"unmatched send\(s\)"):
            run(prog, nodes=nodes, cores=2 // nodes, nprocs=2)
