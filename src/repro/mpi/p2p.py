"""Point-to-point messaging: matching, protocols, and timing.

One :class:`MessageEngine` per job owns every in-flight message.  The
protocol model follows what MPICH/Open MPI/Cray MPI actually do:

**Inter-node**

* *eager* (``nbytes <= eager_threshold``): the sender injects immediately
  and completes once its NIC has serialized the message; delivery happens
  whether or not the receive is posted (unexpected-message queue).
* *rendezvous* (large): the transfer starts only after the matching
  receive is posted, costs an RTS/CTS handshake (one extra round trip),
  and both sides complete at transfer end.

**Intra-node** (the traffic hybrid MPI+MPI eliminates)

* *eager / CICO*: sender pays one latency hop plus a copy into the
  shared staging area (contended node memory), then completes; the
  receiver later pays the copy *out* of staging.  Two full copies total.
* *rendezvous / LMT single-copy*: for large messages both sides
  synchronize and a single direct copy moves the data.

Those are the default ``shm_two_copy`` transport's copy counts; the
machine's :class:`~repro.machine.transport.Transport` sets them.  Every
message is one :class:`_Message` whose steps are scheduled callbacks.

Every payload is snapshotted at send time (value semantics), and receives
enforce buffer sizes (:class:`~repro.mpi.errors.TruncationError`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.machine.model import Machine
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.datatypes import Bytes, clone, copy_into, nbytes_of, snapshot
from repro.mpi.errors import MPIError, TruncationError
from repro.simulator import Engine, Event
from repro.simulator.engine import _PENDING
from repro.simulator.resources import _Transfer

__all__ = ["MessageEngine", "Request", "Status"]


class Status(NamedTuple):
    """Completion metadata of a receive (MPI_Status analogue)."""

    source: int  # comm rank of the sender
    tag: int
    nbytes: int


class Request:
    """Handle for a non-blocking operation.

    ``yield req.event`` (or :meth:`Comm.wait` / :meth:`Comm.waitall`)
    suspends until completion.  For receives, ``req.event``'s value is a
    ``(payload, Status)`` pair.
    """

    __slots__ = ("event", "kind")

    def __init__(self, event: Event, kind: str):
        self.event = event
        self.kind = kind

    @property
    def complete(self) -> bool:
        """True once the operation has finished."""
        return self.event.triggered

    def __repr__(self) -> str:
        return f"<Request {self.kind} complete={self.complete}>"


class _Round:
    """The completion of one :meth:`~repro.mpi.comm.Comm.exchange`
    round, shared by its two halves.

    Each half completes by deferring the bound step :meth:`_half` into
    the queue slot its :class:`Event` would take, so the round has the
    entries of ``irecv`` + ``isend`` + a wait on both.  The second
    completion succeeds *gate* with the received payload; a receive
    truncated by its buffer defers :meth:`_truncated` instead, which
    fails *gate* unless it already resolved.
    """

    __slots__ = ("gate", "left", "value")

    def __init__(self, gate: Event):
        self.gate = gate
        self.left = 2
        #: The received payload, or the receive's TruncationError.
        self.value: Any = None

    def _half(self) -> None:
        gate = self.gate
        if gate._state == _PENDING:
            self.left -= 1
            if not self.left:
                gate.succeed(self.value)

    def _truncated(self) -> None:
        gate = self.gate
        if gate._state == _PENDING:
            gate.fail(self.value)


class _Message:
    """One point-to-point message: the send record and two chains of
    bound-method steps.  The *sender* chain starts at post time
    (:meth:`_send`), or at the match (:meth:`_match`) for a rendezvous,
    and ends by completing ``sender_done`` and scheduling the arrival.
    The *delivery* chain starts when a receive matches
    (:meth:`_deliver`), waits for the arrival, pays the copy-out and
    completes the receive.  Each chain's last entry, :meth:`_retire`,
    takes it off :attr:`MessageEngine.in_flight`.  A completion
    triggers the half's :class:`Event` (``isend``/``irecv``) or defers
    the step of its :class:`_Round` (``Comm.exchange``) into the same
    queue slot.

    On node the transport gives the copy chain: ``eager_copies`` staged
    copies (the last is the receiver's copy-out) or ``rdv_copies`` once
    matched, the first crossing the socket link for a cross-socket
    pair.  Off node the bytes hold the sender's TX and receiver's RX.

    Every step takes exactly the queue entry its generator-process
    predecessor took, in the same order (see "The determinism
    invariant" in docs/performance.md), so some entries do nothing: a
    rendezvous message's post-time step, an eager one's match step, and
    a resume whose awaited step had already run.
    """

    __slots__ = (
        "me", "src_world", "src_comm_rank", "dst_world", "tag", "payload",
        "nbytes", "eager", "intra", "src_node", "dst_node", "sender_done",
        "recv", "arrival", "left", "chan", "first",
    )

    def __init__(self, me, src_world, src_comm_rank, dst_world, tag,
                 payload, nbytes, eager, src_node, dst_node, sender_done):
        self.me = me
        self.src_world = src_world
        self.src_comm_rank = src_comm_rank
        self.dst_world = dst_world
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.eager = eager
        self.intra = src_node == dst_node
        self.src_node = src_node
        self.dst_node = dst_node
        self.sender_done = sender_done
        self.recv: _RecvRec | None = None
        self.arrival = _NOT_ARRIVED

    # -- sender chain ----------------------------------------------------
    def _send(self) -> None:
        if self.eager:
            self._start()

    def _match(self) -> None:
        if not self.eager:
            self._start()

    def _start(self) -> None:
        me = self.me
        if self.intra:
            src_sock = me._socket_of[self.src_world]
            dst_sock = me._socket_of[self.dst_world]
            latency = me._shm_latency
            if self.eager:
                self.left = me._eager_copies - 1
                chan = me._socket_mem[self.src_node][src_sock]
            else:
                self.left = me._rdv_copies
                chan = me._socket_mem[self.src_node][dst_sock]
            self.chan = self.first = chan
            if src_sock != dst_sock:
                latency += me._xsocket_latency
                self.first = me._xsocket[self.src_node]
            me.engine.call_later(latency, self._copy)
        elif self.eager:
            self.left = _RX_PENDING
            self._nics(self._tx_done, self._rx_done)
        else:
            pair = (self.src_node, self.dst_node)
            me.engine.call_later((me._routes.get(pair) or me._route(pair))[1],
                                 self._handshaken)

    def _copy(self) -> None:
        """The next staged copy of the sender's chain, or, after the
        last one, the end of the send."""
        left = self.left
        if not left:
            self._sent()
            return
        self.left = left - 1
        machine = self.me.machine
        nbytes = self.nbytes
        machine.intra_copies += 1
        machine.intra_bytes += nbytes
        chan = self.first
        self.first = self.chan
        _Transfer(chan, 2.0 * nbytes, self._copy)

    def _nics(self, tx_then, rx_then) -> None:
        me = self.me
        _Transfer(me._tx[self.src_node], self.nbytes, tx_then)
        _Transfer(me._rx[self.dst_node], self.nbytes, rx_then)

    def _tx_done(self) -> None:
        # Eager: the sender completes once its NIC has injected.  This
        # and _sent spell the completion out: it runs once per message.
        done = self.sender_done
        if type(done) is Event:
            done.succeed()
        else:
            self.me.engine._defer(done._half)
        if self.left == _RX_DONE:
            # The RX completion already ran: resuming takes an entry.
            self.me.engine._defer(self._propagate)
        else:
            self.left = _TX_WAITING

    def _rx_done(self) -> None:
        if self.left == _TX_WAITING:
            self._propagate()
        else:
            self.left = _RX_DONE

    def _handshaken(self) -> None:
        self.left = 2
        self._nics(self._rdv_half, self._rdv_half)

    def _rdv_half(self) -> None:
        # Rendezvous: both NICs must finish; the second is the gate.
        self.left -= 1
        if not self.left:
            self.me.engine._defer(self._propagate)

    def _propagate(self) -> None:
        me = self.me
        pair = (self.src_node, self.dst_node)
        me.engine.call_later((me._routes.get(pair) or me._route(pair))[0],
                             self._landed)

    def _landed(self) -> None:
        stats = self.me._net_stats
        stats.messages += 1
        stats.bytes += self.nbytes
        if self.eager:
            self._arrive()
        else:
            self._sent()

    def _sent(self) -> None:
        done = self.sender_done
        if type(done) is Event:
            done.succeed()
        else:
            self.me.engine._defer(done._half)
        self._arrive()

    def _arrive(self) -> None:
        defer = self.me.engine._defer
        defer(self._arrived)
        defer(self._retire)

    def _arrived(self) -> None:
        if self.arrival == _AWAITED:
            self._receive()
        else:
            self.arrival = _ARRIVED

    # -- delivery chain --------------------------------------------------
    def _deliver(self) -> None:
        if self.arrival == _ARRIVED:
            # Arrived before it was received: resuming takes an entry.
            self.me.engine._defer(self._receive)
        else:
            self.arrival = _AWAITED

    def _receive(self) -> None:
        if not (self.intra and self.eager):
            self._copied()
            return
        # The receiver's copy-out: the last staged copy.  A single-copy
        # transport's only copy IS the data movement, so it crosses the
        # socket link for a cross-socket pair; with two-copy CICO the
        # copy-in already crossed and the copy-out stays on the
        # receiver's socket.
        me = self.me
        dst_sock = me._socket_of[self.dst_world]
        if (me._eager_copies == 1
                and me._socket_of[self.src_world] != dst_sock):
            chan = me._xsocket[self.dst_node]
        else:
            chan = me._socket_mem[self.dst_node][dst_sock]
        machine = me.machine
        machine.intra_copies += 1
        machine.intra_bytes += self.nbytes
        _Transfer(chan, 2.0 * self.nbytes, self._copied)

    def _copied(self) -> None:
        recv = self.recv
        done = recv.done
        defer = self.me.engine._defer
        try:
            payload = copy_into(recv.buf, self.payload)
        except ValueError as exc:
            err = TruncationError(str(exc))
            if type(done) is Event:
                done.fail(err)
            else:
                done.value = err
                defer(done._truncated)
        else:
            if type(done) is Event:
                done.succeed((payload, Status(self.src_comm_rank, self.tag,
                                              self.nbytes)))
            else:
                done.value = payload
                defer(done._half)
        defer(self._retire)

    def _retire(self) -> None:
        self.me.in_flight -= 1


# _Message.arrival: where the arrival stands relative to the delivery.
_NOT_ARRIVED, _ARRIVED, _AWAITED = 0, 1, 2
# _Message.left of an off-node eager message: which NIC finished first.
_RX_PENDING, _RX_DONE, _TX_WAITING = 0, 1, 2


class _RecvRec:
    __slots__ = ("source", "tag", "buf", "done", "posted", "dst_world")

    def __init__(self, source: int, tag: int, buf: Any, done: Event | _Round,
                 posted: float = 0.0, dst_world: int = -1):
        self.source = source
        self.tag = tag
        self.buf = buf
        self.done = done
        self.posted = posted
        self.dst_world = dst_world


@dataclass
class _MatchQueue:
    """Per-(comm, destination) matching state."""

    pending_sends: deque = field(default_factory=deque)
    pending_recvs: deque = field(default_factory=deque)


class MessageEngine:
    """Owns message matching and transfer scheduling for one job.

    Sends take value semantics from :func:`clone` (deep copy) in data
    mode and from :func:`snapshot` (size-preserving, storage-free)
    otherwise — every byte count and therefore every virtual-time
    charge is the same, only Python-level copying is elided.
    """

    def __init__(self, engine: Engine, machine: Machine, tracer=None,
                 data_mode: bool = True):
        self.engine = engine
        self.machine = machine
        # At trace detail "p2p" the match step records receive queue
        # waits (time between posting a receive and the matching send).
        self.tracer = tracer if tracer is not None and tracer.wants("p2p") \
            else None
        self._snapshot = clone if data_mode else snapshot
        self._queues: dict[tuple[int, int], _MatchQueue] = {}
        self.sent_messages = 0
        self.sent_bytes = 0.0
        #: Unmatched sends + receives across all queues, maintained O(1)
        #: (the replay layer's quiescence predicate polls this on every
        #: parked dispatch; the per-queue scan of pending_counts() stays
        #: for diagnostics).
        self.pending_total = 0
        #: Message step chains scheduled but not finished (sender and
        #: delivery count one each); replay vetoes while non-zero.
        self.in_flight = 0
        # What every message reads of the machine, read once per job:
        # the placement is bound before the job builds this engine.
        self._eager_threshold = machine.spec.network.eager_threshold
        self._node_of = machine.placement._node_of
        self._socket_of = [machine.socket_of(rank) for rank in
                           range(machine.placement.num_ranks)]
        node, tp, net = machine.spec.node, machine.transport, machine.network
        self._shm_latency = node.shm_latency * tp.latency_scale
        self._xsocket_latency = node.xsocket_latency
        self._eager_copies, self._rdv_copies = tp.eager_copies, tp.rdv_copies
        self._socket_mem, self._xsocket = machine._socket_mem, machine._xsocket
        self._tx, self._rx, self._net_stats = net._tx, net._rx, net.stats
        #: ``(latency, rendezvous handshake)`` per node pair a message
        #: crossed, filled on first use (:meth:`_route`).
        self._routes: dict[tuple[int, int], tuple[float, float]] = {}

    def _route(self, pair: tuple[int, int]) -> tuple[float, float]:
        net = self.machine.network
        route = self._routes[pair] = (net.latency(*pair),
                                      net.rendezvous_latency(*pair))
        return route

    # -- send ------------------------------------------------------------
    def post_send(
        self,
        comm_id: int,
        src_world: int,
        src_comm_rank: int,
        dst_world: int,
        payload: Any,
        tag: int,
        done: _Round | None = None,
    ) -> Event | _Round:
        """Post a send; returns the sender-completion event, or *done*,
        the :class:`_Round` it completes instead."""
        node_of = self._node_of
        if type(payload) is Bytes:
            nbytes = payload.nbytes  # a size marker is its own snapshot
        else:
            nbytes = nbytes_of(payload)
            payload = self._snapshot(payload)
        if done is None:
            # Event names are static: per-message f-strings cost more
            # than the rest of the bookkeeping combined at paper scale.
            done = Event(self.engine, "send.done")
        msg = _Message(
            self, src_world, src_comm_rank, dst_world, tag, payload, nbytes,
            nbytes <= self._eager_threshold, node_of[src_world],
            node_of[dst_world], done,
        )
        self.sent_messages += 1
        self.sent_bytes += nbytes
        key = (comm_id, dst_world)
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = _MatchQueue()
        q.pending_sends.append(msg)
        self.pending_total += 1
        self.in_flight += 1
        self.engine._defer(msg._send)
        if q.pending_recvs:
            self._try_match(q)
        return done

    # -- recv ------------------------------------------------------------
    def post_recv(
        self,
        comm_id: int,
        dst_world: int,
        source: int,
        tag: int,
        buf: Any,
        done: _Round | None = None,
    ) -> Event | _Round:
        """Post a receive; the returned event's value is (payload, Status).

        With *done*, the receive completes that :class:`_Round` instead
        (no event, no Status) and returns it."""
        if done is None:
            done = Event(self.engine, "recv")
        rec = _RecvRec(source, tag, buf, done, self.engine.now, dst_world)
        key = (comm_id, dst_world)
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = _MatchQueue()
        q.pending_recvs.append(rec)
        self.pending_total += 1
        if q.pending_sends:
            self._try_match(q)
        return done

    # -- matching ----------------------------------------------------------
    def _try_match(self, q: _MatchQueue) -> None:
        # Pair the earliest-posted receive with the earliest-posted
        # matching send (MPI non-overtaking order).  One forward pass over
        # the receives suffices: succeed()/spawn() are deferred (nothing
        # is appended mid-scan), and consuming a send can never enable an
        # *earlier* receive that already failed to match.  Called only
        # with both queues non-empty.
        sends = q.pending_sends
        recvs = q.pending_recvs
        if len(recvs) == 1 and len(sends) == 1:
            # Single pending pair — by far the dominant case in the
            # collective sweeps (every post_send/post_recv immediately
            # matches its counterpart).  Inline the match predicate and
            # skip the scan copy.
            recv = recvs[0]
            send = sends[0]
            if (recv.source == ANY_SOURCE
                    or recv.source == send.src_comm_rank) and (
                    recv.tag == ANY_TAG or recv.tag == send.tag):
                recvs.popleft()
                sends.popleft()
                self.pending_total -= 2
                self._start_delivery(send, recv)
            return
        for recv in list(recvs):
            source, tag = recv.source, recv.tag
            for send in sends:
                if (source == ANY_SOURCE or source == send.src_comm_rank) and (
                        tag == ANY_TAG or tag == send.tag):
                    recvs.remove(recv)
                    sends.remove(send)
                    self.pending_total -= 2
                    self._start_delivery(send, recv)
                    break
            if not sends:
                return

    def _start_delivery(self, send: _Message, recv: _RecvRec) -> None:
        if self.tracer is not None:
            now = self.engine.now
            self.tracer.append({
                "t": now,
                "rank": recv.dst_world,
                "kind": "queue_wait",
                "wait": now - recv.posted,
                "nbytes": send.nbytes,
            })
        send.recv = recv
        self.in_flight += 1
        defer = self.engine._defer
        defer(send._match)
        defer(send._deliver)

    # -- diagnostics -------------------------------------------------------
    def pending_counts(self) -> tuple[int, int]:
        """(unmatched sends, unmatched recvs) across all queues."""
        s = sum(len(q.pending_sends) for q in self._queues.values())
        r = sum(len(q.pending_recvs) for q in self._queues.values())
        return s, r

    def assert_drained(self) -> None:
        """Raise if any message was never matched (program bug)."""
        s, r = self.pending_counts()
        if s or r:
            raise MPIError(
                f"job finished with {s} unmatched send(s) and {r} "
                f"unmatched recv(s)"
            )
