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
from repro.mpi.datatypes import clone, copy_into, nbytes_of, snapshot
from repro.mpi.errors import MPIError, TruncationError
from repro.simulator import Engine, Event
from repro.simulator.engine import _PENDING

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
            machine = me.machine
            node = machine.spec.node
            tp = machine.transport
            src_sock = machine.socket_of(self.src_world)
            dst_sock = machine.socket_of(self.dst_world)
            latency = node.shm_latency * tp.latency_scale
            if self.eager:
                self.left = tp.eager_copies - 1
                chan = machine._socket_mem[self.src_node][src_sock]
            else:
                self.left = tp.rdv_copies
                chan = machine._socket_mem[self.src_node][dst_sock]
            self.chan = self.first = chan
            if src_sock != dst_sock:
                latency += node.xsocket_latency
                self.first = machine._xsocket[self.src_node]
            me.engine.call_later(latency, self._copy)
        elif self.eager:
            self.left = _RX_PENDING
            self._nics(self._tx_done, self._rx_done)
        else:
            me.engine.call_later(me.machine.network.rendezvous_latency(
                self.src_node, self.dst_node), self._handshaken)

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
        chan.transfer(2.0 * nbytes, self._copy)

    def _nics(self, tx_then, rx_then) -> None:
        net = self.me.machine.network
        net._tx[self.src_node].transfer(self.nbytes, tx_then)
        net._rx[self.dst_node].transfer(self.nbytes, rx_then)

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
        me.engine.call_later(me.machine.network.latency(
            self.src_node, self.dst_node), self._landed)

    def _landed(self) -> None:
        stats = self.me.machine.network.stats
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
        machine = self.me.machine
        dst_sock = machine.socket_of(self.dst_world)
        if (machine.transport.eager_copies == 1
                and machine.socket_of(self.src_world) != dst_sock):
            chan = machine._xsocket[self.dst_node]
        else:
            chan = machine._socket_mem[self.dst_node][dst_sock]
        machine.intra_copies += 1
        machine.intra_bytes += self.nbytes
        chan.transfer(2.0 * self.nbytes, self._copied)

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
        # Hot-path caches (one attribute hop instead of three per send).
        self._eager_threshold = machine.spec.network.eager_threshold

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
        # set by the runtime at job start
        node_of = self.machine._placement._node_of
        nbytes = nbytes_of(payload)
        if done is None:
            # Event names are static: per-message f-strings cost more
            # than the rest of the bookkeeping combined at paper scale.
            done = Event(self.engine, "send.done")
        msg = _Message(
            self, src_world, src_comm_rank, dst_world, tag,
            self._snapshot(payload), nbytes, nbytes <= self._eager_threshold,
            node_of[src_world], node_of[dst_world], done,
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
        self._try_match(q)
        return done

    # -- matching ----------------------------------------------------------
    @staticmethod
    def _matches(recv: _RecvRec, send: _Message) -> bool:
        src_ok = recv.source == ANY_SOURCE or recv.source == send.src_comm_rank
        tag_ok = recv.tag == ANY_TAG or recv.tag == send.tag
        return src_ok and tag_ok

    def _try_match(self, q: _MatchQueue) -> None:
        # Pair the earliest-posted receive with the earliest-posted
        # matching send (MPI non-overtaking order).  One forward pass over
        # the receives suffices: succeed()/spawn() are deferred (nothing
        # is appended mid-scan), and consuming a send can never enable an
        # *earlier* receive that already failed to match.
        sends = q.pending_sends
        recvs = q.pending_recvs
        if not sends or not recvs:
            return
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
            chosen = None
            for send in sends:
                if self._matches(recv, send):
                    chosen = send
                    break
            if chosen is not None:
                recvs.remove(recv)
                sends.remove(chosen)
                self.pending_total -= 2
                self._start_delivery(chosen, recv)
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
