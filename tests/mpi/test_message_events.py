"""Engine entries per primitive, pinned to literals.

``event_count`` counts every queue entry the engine processes.  A
host-side change to the message path must leave it bit-identical (see
"The determinism invariant" in docs/performance.md), and a change that
deliberately cuts events must show up here as a per-row diff.  Three
tables:

* entries per point-to-point message, from a ping-pong minus an empty
  job: eager and rendezvous; same socket, cross socket and off node;
  one socket and two sockets under every registered transport;
* entries per dispatch of five collectives at 4x12 ``hazel_hen``,
  4 KiB, empty job subtracted;
* the SHA-256 of the p2p-detail span stream of one mixed program (an
  unexpected message, an ``ANY_SOURCE`` fan-in, a truncating receive
  and an off-node rendezvous), which pins order, not just counts.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.machine.placement import Placement
from repro.machine.presets import hazel_hen, hazel_hen_2s
from repro.machine.transport import TRANSPORTS
from repro.mpi import ANY_SOURCE, Bytes, TruncationError, run_program

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

MIXED = {
    "events": 118,
    "elapsed": "1.577600000324253e-05",
    "returns": "[[6.0, [2, 3, 1, 'truncated']], None, None, None]",
    "span_sha256":
        "2407b1bafe698fe6d230033ea9ba8abe019e6065cabde071419007f8896fe26e",
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


def _collective(mpi, op):
    comm, payload = mpi.world, Bytes(4096)
    if op == "alltoall":
        yield from comm.alltoall([payload] * comm.size)
    elif op == "bcast":
        yield from comm.bcast(payload, root=0)
    elif op == "barrier":
        yield from comm.barrier()
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


def mixed() -> dict:
    result = run_program(hazel_hen(2), None, _mixed,
                         placement=Placement.block(2, 2), trace="p2p",
                         replay=False)
    return {
        "events": result.events_processed,
        "elapsed": repr(result.elapsed),
        "returns": repr(result.returns),
        "span_sha256": hashlib.sha256(json.dumps(
            result.trace, sort_keys=True, default=repr).encode()
        ).hexdigest(),
    }


def test_every_machine_is_pinned():
    assert sorted(PER_MESSAGE) == sorted(MACHINES)


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_entries_per_message(machine):
    assert per_message(machine) == PER_MESSAGE[machine]


@pytest.mark.parametrize("op", sorted(PER_DISPATCH))
def test_entries_per_dispatch(op):
    assert per_dispatch(op) == PER_DISPATCH[op]


def test_mixed_program_span_stream():
    assert mixed() == MIXED
