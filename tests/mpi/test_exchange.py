"""``Comm.exchange``: one send+receive round, and ``AllOf``'s counter.

An exchange posts the receive, then the send, straight to the message
engine and returns one gate event whose value is the received payload;
the gate is the only waitable a round builds.  It must take exactly the
engine entries of ``irecv`` + ``isend`` + ``yield AllOf([...])`` — the
tests below run both spellings side by side.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.helpers import run
from repro.mpi import Bytes, MPIError, TruncationError
from repro.mpi.constants import ANY_SOURCE, PROC_NULL
from repro.simulator import AllOf, Engine, Event
from repro.simulator.engine import _Countdown


def _round(comm, payload, dest, source, tag=0, buf=None, spelled="exchange"):
    """Coroutine: one round, spelled with ``exchange`` or by hand."""
    if spelled == "exchange":
        return (yield comm.exchange(payload, dest, source, tag, buf=buf))
    rreq = comm.irecv(buf, source, tag)
    sreq = comm.isend(payload, dest, tag)
    results = yield AllOf([rreq.event, sreq.event])
    return results[0][0]


def _both(program, **options):
    """Run *program* both ways; returns the two JobResults."""
    return [run(program, program_kwargs={"spelled": spelled}, **options)
            for spelled in ("exchange", "by_hand")]


def _program(body):
    def program(mpi, spelled):
        return (yield from body(mpi.world, spelled))
    return program


class TestValue:
    def test_value_is_the_received_payload(self):
        def body(comm, spelled):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            got = yield from _round(comm, np.full(3, float(comm.rank)),
                                    right, left, spelled=spelled)
            return list(got)

        ex, hand = _both(_program(body), nodes=2, cores=2)
        assert ex.returns == [[3.0] * 3, [0.0] * 3, [1.0] * 3, [2.0] * 3]
        assert ex.returns == hand.returns
        assert ex.events_processed == hand.events_processed
        assert ex.elapsed == hand.elapsed

    def test_recvtag_and_buffer(self):
        def prog(mpi):
            comm = mpi.world
            peer = 1 - comm.rank
            buf = np.zeros(2)
            got = yield comm.exchange(np.full(2, 5.0 + comm.rank), peer,
                                      peer, tag=3 + comm.rank,
                                      recvtag=4 - comm.rank, buf=buf)
            assert got is buf
            return list(buf)

        assert run(prog, nodes=1, cores=2).returns == [[6.0, 6.0],
                                                       [5.0, 5.0]]

    def test_truncating_buffer_fails_the_gate(self):
        def body(comm, spelled):
            peer = 1 - comm.rank
            buf = np.zeros(2) if comm.rank == 0 else None
            try:
                yield from _round(comm, np.arange(8.0), peer, peer,
                                  buf=buf, spelled=spelled)
            except TruncationError:
                return "truncated"
            return "ok"

        ex, hand = _both(_program(body), nodes=1, cores=2)
        assert ex.returns == ["truncated", "ok"]
        assert (ex.returns, ex.events_processed, ex.elapsed) == (
            hand.returns, hand.events_processed, hand.elapsed)


class TestPeers:
    def test_proc_null_sides(self):
        # A chain: rank 0 receives from nobody, the last rank sends to
        # nobody; a rank with both sides null moves nothing.
        def body(comm, spelled):
            rank, size = comm.rank, comm.size
            right = rank + 1 if rank + 1 < size else PROC_NULL
            left = rank - 1 if rank else PROC_NULL
            got = yield from _round(comm, Bytes(64 * (rank + 1)), right,
                                    left, spelled=spelled)
            nothing = yield from _round(comm, Bytes(8), PROC_NULL,
                                        PROC_NULL, spelled=spelled)
            return None if got is None else got.nbytes, nothing

        ex, hand = _both(_program(body), nodes=2, cores=2)
        assert ex.returns == [(None, None), (64, None), (128, None),
                              (192, None)]
        assert (ex.returns, ex.events_processed, ex.elapsed) == (
            hand.returns, hand.events_processed, hand.elapsed)

    @pytest.mark.parametrize("dest, source, outcome", [
        # The receive from rank 0 (itself) is posted before the send to
        # a bad peer raises, so the job ends with it unmatched.
        (7, 0, "unmatched recv"),
        (-5, 0, "unmatched recv"),
        # A bad source raises before anything is posted.
        (0, 7, "out of range"),
    ])
    def test_out_of_range_peer_raises_like_isend_irecv(self, dest, source,
                                                       outcome):
        def body(comm, spelled):
            try:
                yield from _round(comm, Bytes(8), dest, source,
                                  spelled=spelled)
            except MPIError as exc:
                return str(exc)
            return None

        def run_one(spelled):
            try:
                return run(_program(body), nodes=1, cores=1,
                           program_kwargs={"spelled": spelled}).returns
            except MPIError as exc:
                return [str(exc)]

        ex, hand = run_one("exchange"), run_one("by_hand")
        assert outcome in ex[0]
        assert ex == hand


class TestOneWaitable:
    """A round's only waitable is its gate: both halves complete one
    round object, never an :class:`Event` or a :class:`_Countdown`."""

    ROUNDS = 3

    @staticmethod
    def _peers(case, rank, size):
        if case == "ring":
            return (rank + 1) % size, (rank - 1) % size
        if case == "chain":  # PROC_NULL dest at the end, source at 0
            return (rank + 1 if rank + 1 < size else PROC_NULL,
                    rank - 1 if rank else PROC_NULL)
        if case == "any_source":
            return (rank + 1) % size, ANY_SOURCE
        return PROC_NULL, PROC_NULL

    @pytest.mark.parametrize("case",
                             ["ring", "chain", "any_source", "null"])
    def test_one_event_per_round_and_no_countdown(self, case, monkeypatch):
        built = {"events": 0, "countdowns": 0}

        def counting(cls, key):
            init = cls.__init__

            def wrapper(self, *args, **kwargs):
                built[key] += 1
                init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", wrapper)

        counting(Event, "events")
        counting(_Countdown, "countdowns")

        def prog(mpi, rounds):
            comm = mpi.world
            dest, source = self._peers(case, comm.rank, comm.size)
            for _ in range(rounds):
                yield comm.exchange(Bytes(64), dest, source, 0)

        def events_of(rounds):
            built["events"] = 0
            run(prog, nodes=2, cores=2, replay=False,
                program_kwargs={"rounds": rounds})
            return built["events"]

        # Four ranks, each round one gate per rank.
        assert events_of(self.ROUNDS) - events_of(0) == self.ROUNDS * 4
        assert built["countdowns"] == 0


class TestCountdown:
    """``AllOf`` semantics, carried by the counter class."""

    def test_allof_subscribes_one_countdown(self):
        eng = Engine()
        a, b = eng.event("a"), eng.event("b")

        def waiter():
            return (yield AllOf([a, b]))

        proc = eng.spawn(waiter())
        eng.step()  # the first step subscribes
        assert type(a.callbacks[0]) is _Countdown
        assert a.callbacks[0] is b.callbacks[0]
        b.succeed("B")
        a.succeed("A")
        eng.run()
        assert proc.value == ["A", "B"]  # input order, not firing order

    def test_first_failure_wins(self):
        eng = Engine()
        a, b, c = (eng.event(n) for n in "abc")

        def waiter():
            try:
                yield AllOf([a, b, c])
            except ValueError as exc:
                return str(exc)

        proc = eng.spawn(waiter())
        eng.step()
        c.fail(ValueError("c first"))
        a.fail(ValueError("a second"))
        b.succeed(None)
        eng.run()
        assert proc.value == "c first"

    def test_already_processed_child_is_deferred(self):
        eng = Engine()
        done = eng.event("done")
        done.succeed("early")
        eng.run()  # processed before anyone waits
        assert done.processed
        before = eng.event_count
        late = eng.event("late")

        def waiter():
            return (yield AllOf([done, late]))

        proc = eng.spawn(waiter())
        eng.step()  # first step: subscribes, defers the processed child
        late.succeed("late")
        eng.run()
        assert proc.value == ["early", "late"]
        # first step + deferred child + late + gate + process finish
        assert eng.event_count - before == 5

    def test_empty_allof_succeeds_with_no_values(self):
        eng = Engine()

        def waiter():
            return (yield AllOf([]))

        proc = eng.spawn(waiter())
        eng.run()
        assert proc.value == []
