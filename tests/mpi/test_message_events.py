"""Engine entries per primitive, pinned to literals.

``event_count`` counts every queue entry the engine processes.  A
host-side change to the message path must leave it bit-identical (see
"The determinism invariant" in docs/performance.md), and a change that
deliberately cuts events must show up here as a per-row diff.  The
tables:

* entries per point-to-point message, from a ping-pong minus an empty
  job: eager and rendezvous; same socket, cross socket and off node;
  one socket and two sockets under every registered transport;
* entries per dispatch of five collectives at 4x12 ``hazel_hen``,
  4 KiB, empty job subtracted;
* entries per dispatch of every flat algorithm built from send+receive
  rounds (:meth:`Comm.exchange`), and of one ``sendrecv`` shift;
* entries per replayed repetition of an aligned OSU loop, pure,
  hybrid and irregular pure;
* entries of the exchange rounds that leave the matched path (a
  ``PROC_NULL`` side, an ``ANY_SOURCE`` receive, a caught truncation),
  with the time and order in which every rank's round resolves;
* the SHA-256 of the p2p-detail span stream of one mixed program (an
  unexpected message, an ``ANY_SOURCE`` fan-in, a truncating receive
  and an off-node rendezvous), and of a run of ``sendrecv`` shifts,
  which pin order, not just counts;
* the SHA-256 of the entry timeline (``engine.now`` at every entry the
  engine takes) of that mixed program and of each 4x12 dispatch job,
  which pins when every entry runs, not just how many there are.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque

import numpy as np
import pytest

from repro.bench.osu import hybrid_allgather_program, pure_allgather_program
from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen, hazel_hen_2s
from repro.machine.transport import TRANSPORTS
from repro.mpi import ANY_SOURCE, Bytes, TruncationError, run_program
from repro.mpi.constants import PROC_NULL
from repro.simulator import Engine
from tests.helpers import UNDER_VERIFY

EAGER, RENDEZVOUS = 64, 65536  # hazel_hen's eager threshold is 8 KiB
REPS = 4

# Two nodes of three ranks; "scatter" puts ranks 0 and 2 on socket 0 and
# rank 1 on socket 1 of node 0, and rank 3 on node 1.
PLACEMENT = Placement.block(2, 3).with_socket_mode("scatter")
PEERS = {"same_socket": 2, "cross_socket": 1, "off_node": 3}

MACHINES = {"1s": hazel_hen(2)}
MACHINES.update({f"2s-{name}": hazel_hen_2s(2, name) for name in TRANSPORTS})

#: Entries per message at the commit that introduced this table.
PER_MESSAGE = {
    "1s": {
        "eager": {"same_socket": 17, "cross_socket": 17, "off_node": 17},
        "rendezvous": {"same_socket": 13, "cross_socket": 13, "off_node": 19},
    },
    "2s-cma_single_copy": {
        "eager": {"same_socket": 13, "cross_socket": 13, "off_node": 17},
        "rendezvous": {"same_socket": 13, "cross_socket": 13, "off_node": 19},
    },
    "2s-pip_direct": {
        "eager": {"same_socket": 13, "cross_socket": 13, "off_node": 17},
        "rendezvous": {"same_socket": 13, "cross_socket": 13, "off_node": 19},
    },
    "2s-shm_two_copy": {
        "eager": {"same_socket": 17, "cross_socket": 17, "off_node": 17},
        "rendezvous": {"same_socket": 13, "cross_socket": 13, "off_node": 19},
    },
}

#: Entries per dispatch at 4x12 hazel_hen, 4 KiB, empty job subtracted.
PER_DISPATCH = {"allgather": 8892, "bcast": 847, "barrier": 232,
                "allreduce": 1692, "alltoall": 41022}

#: Every flat send+receive round, at a ``hazel_hen`` shape where the
#: default table picks it: ``(op, nodes, ranks per node, bytes per rank)
#: -> (algorithm, entries per dispatch)``, empty job subtracted.
#: ``sendrecv`` is one ring shift of the world.
PER_ROUND = {
    ("allgather", 8, 1, 4096): ("recursive_doubling", 456),
    ("allgather", 6, 1, 4096): ("bruck", 330),
    ("allgather", 6, 1, 65536): ("ring", 606),
    ("allreduce", 6, 1, 4096): ("recursive_doubling", 218),
    ("allreduce", 8, 1, 131072): ("rabenseifner", 968),
    ("allreduce", 6, 1, 131072): ("ring", 1206),
    ("reduce_scatter", 4, 12, 4096): ("pairwise", 40698),
    ("reduce_scatter", 4, 8, 8192): ("recursive_halving", 2928),
    ("alltoall", 4, 12, 4096): ("pairwise", 41022),
    ("alltoall", 4, 12, 512): ("bruck", 4848),
    ("barrier", 8, 1, 0): ("dissemination", 392),
    ("sendrecv", 4, 12, 4096): (None, 864),
}

#: Entries per replayed repetition of an aligned OSU loop
#: (``replay="loop"``, 256 bytes per rank), from the event counts of a
#: K- and a (K+M)-repetition job: per rank its align's wake and its
#: park's wake, and once per irregular dispatch ``allgatherv``'s size
#: gate; ``REPETITION_SHAPES`` holds each case's placement, program and
#: its extra arguments (one ``hazel_hen`` node per placement node).
PER_REPETITION = {
    "pure": 96,         # 4x12: 2 x 48
    "hybrid": 96,       # 4x12: 2 x 48
    "irregular": 109,   # 14+12+13+15: 2 x 54 + 1
}
REPETITION_SHAPES = {
    "pure": (Placement.block(4, 12), pure_allgather_program, {}),
    "hybrid": (Placement.block(4, 12), hybrid_allgather_program, {}),
    "irregular": (Placement.irregular((14, 12, 13, 15)),
                  pure_allgather_program, {"irregular": True}),
}

SENDRECV = {
    "events": 289,
    "elapsed": "1.4440400003756793e-05",
    "returns": "[[3.0, 2.0, 2.0, None], [0.0, 3.0, 3.0, 0.0], "
               "[1.0, 0.0, 0.0, 1.0], [2.0, 1.0, 1.0, 2.0]]",
    "span_sha256":
        "528e7b26d91eedc96d8967273a4adeac661fdc9705e926a951a6d1a561fb02d3",
}

#: Exchange rounds off the matched path, at 2x2 ``hazel_hen``: the job's
#: entries, and per rank the ``(time, resume order)`` of each round.
FALLBACK = {
    "any_source": (154, [
        [("4.406400001322197e-06", 4), ("1.796360000216879e-05", 7)],
        [("1.0128000003106763e-06", 1), ("1.796360000216879e-05", 8)],
        [("2.462800001268306e-06", 2), ("1.6570000001436824e-05", 5)],
        [("3.0128000005902322e-06", 3), ("1.6570000001436824e-05", 6)],
    ]),
    "null_dest": (92, [
        [("3.406400001182419e-06", 3), ("1.4160000002760853e-05", 6)],
        [("4.406400001322197e-06", 4), ("1.5160000002900631e-05", 8)],
        [("2.0064000008090943e-06", 1), ("1.4160000002760853e-05", 5)],
        [("3.0064000009488723e-06", 2), ("1.5160000002900631e-05", 7)],
    ]),
    "null_source": (94, [
        [("6.400000529538374e-09", 1), ("1.275360000185799e-05", 5)],
        [("1.0064000006693163e-06", 2), ("1.3753600001997768e-05", 7)],
        [("2.000000000279556e-06", 3), ("1.275360000185799e-05", 6)],
        [("3.000000000419334e-06", 4), ("1.3753600001997768e-05", 8)],
    ]),
    "truncate": (166, [
        [("3.406400001182419e-06", 3), ("1.4160000002760853e-05", 5)],
        [("4.406400001322197e-06", 4), ("1.5160000002900631e-05", 7)],
        [("2.0064000008090943e-06", 1), ("1.4160000002760853e-05", 6)],
        [("3.0064000009488723e-06", 2), ("1.5160000002900631e-05", 8)],
    ]),
}

MIXED = {
    "events": 118,
    "elapsed": "1.577600000324253e-05",
    "returns": "[[6.0, [2, 3, 1, 'truncated']], None, None, None]",
    "span_sha256":
        "2407b1bafe698fe6d230033ea9ba8abe019e6065cabde071419007f8896fe26e",
}

#: Entry timelines: ``(entries, SHA-256 of their times)`` of the mixed
#: program and of each 4x12 4 KiB dispatch job (empty job included).
TIMELINE = {
    "mixed": (118, "bf25b10bc6a115763e89372a5c6f1fa1"
                   "1ddfa7fb92e75485c5f474e10df63fd3"),
    "allgather": (8988, "5a0f6c9fbf11c21622b3b189bbdbafc3"
                        "3fba20afb669f1355e9fd4f620626daa"),
    "alltoall": (41118, "dc12a6811c63466949905e296139300e"
                        "3ee0122542e6240d587e5a723a66ac0d"),
    "allreduce": (1788, "8b0ef672c874e8f883c164c6d82f3fad"
                        "e234d865dc62cbe65d4a80a6ef6f8021"),
    "barrier": (328, "c9b508abf17afe5dec0a18559818f25e"
                     "316e1ae88164c6eb94007ef09a0b7d70"),
    "bcast": (943, "651f0d63513c05fa34ebfa0dd488995f"
                   "c1ee44505133965eb6ff168acdd85e3f"),
}


def _empty(mpi):
    return None
    yield


def _pingpong(mpi, peer, nbytes):
    comm, payload = mpi.world, Bytes(nbytes)
    for _ in range(REPS):
        if comm.rank == 0:
            yield from comm.send(payload, peer)
            yield from comm.recv(source=peer)
        elif comm.rank == peer:
            yield from comm.recv(source=0)
            yield from comm.send(payload, 0)


def _collective(mpi, op, nbytes=4096):
    comm, payload = mpi.world, Bytes(nbytes)
    if op == "alltoall":
        yield from comm.alltoall([payload] * comm.size)
    elif op == "bcast":
        yield from comm.bcast(payload, root=0)
    elif op == "barrier":
        yield from comm.barrier()
    elif op == "sendrecv":
        yield from comm.sendrecv(payload, (comm.rank + 1) % comm.size,
                                 (comm.rank - 1) % comm.size)
    else:
        yield from getattr(comm, op)(payload)


def _events(spec, placement, program, **kwargs):
    return run_program(spec, None, program, placement=placement,
                       payload="cost-only", replay=False,
                       program_kwargs=kwargs).events_processed


def per_message(machine: str) -> dict:
    """``{protocol: {peer: entries per message}}`` on one machine."""
    spec = MACHINES[machine]
    empty = _events(spec, PLACEMENT, _empty)
    table = {}
    for protocol, nbytes in (("eager", EAGER), ("rendezvous", RENDEZVOUS)):
        row = table[protocol] = {}
        for where, peer in PEERS.items():
            total = _events(spec, PLACEMENT, _pingpong, peer=peer,
                            nbytes=nbytes)
            entries, rest = divmod(total - empty, 2 * REPS)
            assert rest == 0, (machine, protocol, where)
            row[where] = entries
    return table


def per_dispatch(op: str) -> int:
    spec, placement = hazel_hen(4), Placement.block(4, 12)
    return (_events(spec, placement, _collective, op=op)
            - _events(spec, placement, _empty))


def per_round(op: str, nodes: int, ppn: int, nbytes: int) -> tuple:
    """``(algorithm the table picks, entries per dispatch)``."""
    spec, placement = hazel_hen(nodes), Placement.block(nodes, ppn)
    traced = run_program(spec, None, _collective, placement=placement,
                         payload="cost-only", replay=False, trace=True,
                         program_kwargs={"op": op, "nbytes": nbytes})
    algos = {rec["algo"] for rec in traced.trace or () if rec["op"] == op}
    assert len(algos) <= 1, algos
    entries = (_events(spec, placement, _collective, op=op, nbytes=nbytes)
               - _events(spec, placement, _empty))
    return (algos.pop() if algos else None), entries


def per_repetition(case: str, first: int = 2, more: int = 3) -> int:
    """Entries per replayed repetition: the event counts of a *first*-
    and a (*first* + *more*)-repetition job, their difference per
    repetition (every repetition after the warm-up is a hit)."""
    placement, program, kwargs = REPETITION_SHAPES[case]
    spec = hazel_hen(len(placement.counts()))
    counts = []
    for reps in (first, first + more):
        result = run_program(
            spec, None, program, placement=placement, payload="cost-only",
            replay="loop", program_kwargs={
                "nbytes_per_rank": 256, "reps": reps, "warmup": 1, **kwargs},
        )
        assert result.replay_hits == reps, (case, reps)
        counts.append(result.events_processed)
    entries, rest = divmod(counts[1] - counts[0], more)
    assert rest == 0, case
    return entries


def _mixed(mpi):
    comm = mpi.world
    rank = comm.rank
    if rank == 1:
        # Unexpected: sent long before rank 0 posts the receive.
        yield from comm.send(np.arange(4.0), 0, tag=1)
    if rank == 0:
        yield mpi.compute(5e-6)
        first = yield from comm.recv(source=1, tag=1)
        # ANY_SOURCE fan-in from every other rank.
        got = []
        for _ in range(comm.size - 1):
            payload, status = yield from comm.recv_status(
                source=ANY_SOURCE, tag=2)
            got.append(status.source)
        # Truncating receive: 8 doubles into a 2-double buffer.
        try:
            yield from comm.recv(buf=np.zeros(2), source=1, tag=3)
        except TruncationError:
            got.append("truncated")
        # Off-node rendezvous.
        yield from comm.send(Bytes(RENDEZVOUS), comm.size - 1, tag=4)
        return [float(first.sum()), got]
    yield from comm.send(np.full(2, float(rank)), 0, tag=2)
    if rank == 1:
        yield from comm.send(np.arange(8.0), 0, tag=3)
    if rank == comm.size - 1:
        yield from comm.recv(source=0, tag=4)
    return None


def _sendrecv_rounds(mpi):
    # Three shifts by growing distance, the last one rendezvous-sized
    # and off node for every rank, then one with a PROC_NULL side.
    comm = mpi.world
    rank, size = comm.rank, comm.size
    got = []
    for shift, nbytes in ((1, 64), (2, 4096), (size // 2, RENDEZVOUS)):
        payload = yield from comm.sendrecv(
            np.full(nbytes // 8, float(rank)), (rank + shift) % size,
            (rank - shift) % size, sendtag=shift, recvtag=shift)
        got.append(float(payload[0]))
    edge = yield from comm.sendrecv(
        np.full(2, float(rank)), rank + 1 if rank + 1 < size else PROC_NULL,
        rank - 1 if rank else PROC_NULL)
    got.append(None if edge is None else float(edge[0]))
    return got


def _fallback_rounds(mpi, case, order):
    # Partners sit on different nodes; each rank starts skewed, so some
    # messages arrive before their receive is posted.  Two rounds: an
    # eager one, then a rendezvous-sized one.
    comm = mpi.world
    rank, size = comm.rank, comm.size
    peer = (rank + size // 2) % size
    lower = rank < peer
    yield mpi.compute(1e-6 * rank)
    seen = []
    for nbytes in (64, RENDEZVOUS):
        payload = np.full(nbytes // 8, float(rank))
        if case == "any_source":
            gate = comm.exchange(payload, (rank + 1) % size, ANY_SOURCE, 0)
        elif case == "truncate":
            buf = np.zeros(2) if lower else None
            gate = comm.exchange(payload, peer, peer, 0, buf=buf)
        elif lower:  # the lower rank's exchange has the PROC_NULL side
            gate = (comm.exchange(payload, PROC_NULL, peer, 0)
                    if case == "null_dest"
                    else comm.exchange(payload, peer, PROC_NULL, 0))
        elif case == "null_dest":
            gate = comm.isend(payload, peer, 0).event
        else:
            gate = comm.irecv(None, peer, 0).event
        try:
            yield gate
        except TruncationError:
            pass
        order.append(rank)
        seen.append((repr(mpi.now), len(order)))
    return seen


def fallback_rounds(case: str) -> tuple:
    """``(entries, [[(time, resume order) per round] per rank])``."""
    result = run_program(hazel_hen(2), None, _fallback_rounds,
                         placement=Placement.block(2, 2), replay=False,
                         program_kwargs={"case": case, "order": []})
    return result.events_processed, result.returns


def sendrecv_rounds() -> dict:
    return _summary(run_program(hazel_hen(2), None, _sendrecv_rounds,
                                placement=Placement.block(2, 2),
                                trace="p2p", replay=False))


def mixed() -> dict:
    return _summary(run_program(hazel_hen(2), None, _mixed,
                                placement=Placement.block(2, 2),
                                trace="p2p", replay=False))


def _summary(result) -> dict:
    return {
        "events": result.events_processed,
        "elapsed": repr(result.elapsed),
        "returns": repr(result.returns),
        "span_sha256": hashlib.sha256(json.dumps(
            result.trace, sort_keys=True, default=repr).encode()
        ).hexdigest(),
    }


class _Timeline(deque):
    """The engine's same-time FIFO, noting ``engine.now`` each time it
    hands out an entry: every entry the engine takes leaves through
    :meth:`popleft`."""

    def __init__(self, engine):
        super().__init__()
        self.engine = engine
        self.times = []

    def popleft(self):
        self.times.append(self.engine.now)
        return super().popleft()


@pytest.fixture
def timelines(monkeypatch):
    """Every engine built while the test runs records its timeline."""
    made = []
    init = Engine.__init__

    def recording(self):
        init(self)
        self._deferred = _Timeline(self)
        self._defer = self._deferred.append
        made.append(self._deferred)

    monkeypatch.setattr(Engine, "__init__", recording)
    return made


def timeline(timelines, case: str) -> tuple:
    """``(entries, SHA-256 of the repr of each entry's time)`` of one
    job: the mixed program or a 4x12 dispatch."""
    if case == "mixed":
        mixed()
    else:
        _events(hazel_hen(4), Placement.block(4, 12), _collective, op=case)
    (line,) = timelines
    return len(line.times), hashlib.sha256(
        "\n".join(map(repr, line.times)).encode()).hexdigest()


def test_every_machine_is_pinned():
    assert sorted(PER_MESSAGE) == sorted(MACHINES)


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_entries_per_message(machine):
    assert per_message(machine) == PER_MESSAGE[machine]


@pytest.mark.parametrize("op", sorted(PER_DISPATCH))
def test_entries_per_dispatch(op):
    assert per_dispatch(op) == PER_DISPATCH[op]


@UNDER_VERIFY
@pytest.mark.parametrize("case", sorted(PER_REPETITION))
def test_entries_per_replayed_repetition(case):
    assert per_repetition(case) == PER_REPETITION[case]


def test_mixed_program_span_stream():
    assert mixed() == MIXED


@pytest.mark.parametrize("case", sorted(TIMELINE))
def test_entry_timeline(timelines, case):
    assert timeline(timelines, case) == TIMELINE[case]


@pytest.mark.parametrize("shape", sorted(PER_ROUND), ids=lambda shape:
                         "-".join(map(str, shape)))
def test_entries_per_round(shape):
    assert per_round(*shape) == PER_ROUND[shape]


@pytest.mark.parametrize("case", sorted(FALLBACK))
def test_fallback_exchange_rounds(case):
    assert fallback_rounds(case) == FALLBACK[case]


def test_sendrecv_span_stream():
    assert sendrecv_rounds() == SENDRECV
