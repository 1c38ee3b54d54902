"""Communicators: per-rank views over a shared group state.

A communicator is split into:

* :class:`_CommShared` — one object per communicator *instance*, shared
  by all member ranks: the group, the id used for message matching, and
  the rendezvous "gates" that implement communicator-creation collectives
  (``split``, ``split_type``, ``dup``) and shared-window allocation.
* :class:`Comm` — the per-rank handle the application holds; it knows its
  own rank and drives coroutines against the shared state.

All blocking methods return a coroutine: drive it with ``yield from``
inside a rank program.  A blocking collective returns its dispatch
coroutine itself, with no frame of its own on the rank's resumes.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.mpi import collectives as _coll
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    MAX_INTERNAL_TAG,
    PROC_NULL,
    UNDEFINED,
    ReduceOp,
)
from repro.mpi.datatypes import nbytes_of
from repro.mpi.errors import MPIError
from repro.mpi.group import Group
from repro.mpi.nonblocking import CollRequest, spawn_collective
from repro.mpi.p2p import Request, Status, _Round
from repro.simulator import AllOf, AnyOf, Event
from repro.simulator.engine import _PENDING, _TRIGGERED

__all__ = ["Comm"]


class _CommShared:
    """State shared by every rank's view of one communicator."""

    __slots__ = ("id", "group", "size", "job", "name", "cache", "_gates",
                 "_align", "_children")

    def __init__(self, job: Any, group: Group, name: str):
        self.id: int = job.next_comm_id()
        self.group = group
        self.size = len(group)
        self.job = job
        self.name = name
        # Communicator-wide cache for data derived purely from globally
        # known state (group + placement): node maps, comm shapes, slot
        # layouts.  Computing these per *rank* is O(p) each and turns the
        # per-job setup O(p^2) at paper scale — one shared copy suffices.
        self.cache: dict[Any, Any] = {}
        #: Gates in progress: key -> (event, {rank: value}).
        self._gates: dict[Any, tuple[Event, dict[int, Any]]] = {}
        #: The align in progress (at most one: nobody leaves an align
        #: before every member entered it).
        self._align: _AlignGate | None = None
        # Registry of deterministically-derived child communicators
        # (internal hierarchies): key -> _CommShared.  Membership is a
        # pure function of globally-known state (placement + group), so
        # no rendezvous is needed — whichever rank asks first creates the
        # shared object, later ranks look it up.  This keeps concurrent
        # non-blocking collectives safe: no ordering-sensitive gates.
        self._children: dict[Any, "_CommShared"] = {}

    def deterministic_child(self, key: Any, world_ranks: tuple[int, ...],
                            name: str) -> "_CommShared":
        """Shared state of a child comm derived from global knowledge."""
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _CommShared(
                self.job, Group(world_ranks), name
            )
        elif child.group.world_ranks() != tuple(world_ranks):
            raise MPIError(
                f"deterministic child {key!r} of {self.name!r} requested "
                f"with inconsistent membership"
            )
        return child

    def arrive(
        self,
        key: Any,
        rank: int,
        value: Any,
        reducer: Callable[[dict[int, Any]], Any],
    ) -> Event:
        """Rendezvous: collect one value per rank; the last arrival runs
        *reducer* over ``{rank: value}`` and the one shared event fires
        with its result (a ``{rank: result}`` map for :meth:`Comm._gate`,
        the agreed total for :meth:`Comm.allgatherv`'s size gate).
        """
        st = self._gates.get(key)
        if st is None:
            st = self._gates[key] = (Event(self.job.engine, name="gate"), {})
        event, values = st
        if rank in values:
            raise MPIError(f"rank {rank} arrived twice at gate {key!r}")
        values[rank] = value
        if len(values) == self.size:
            del self._gates[key]
            event.succeed(reducer(values))
        return event

    def align_arrive(self, seq: int, rank: int) -> Event:
        """Rendezvous with *rank-order* wakes (see :meth:`Comm.align`):
        align number *seq* of the arriving handle.

        Unlike :meth:`arrive` — one shared event whose waiters resume in
        arrival order — every rank gets its own event, in its slot, and
        the last arrival queues them, triggered, in slot order at the
        current timestep, so all ranks (the last arriver included: its
        own triggered event sits in its rank-order queue slot by the
        time it yields) resume in the canonical permutation.  The slots
        are pooled (:meth:`Engine.pooled`).
        """
        st = self._align
        if st is None:
            st = self._align = _AlignGate(seq, self.size)
        elif st.seq != seq:
            raise MPIError(f"rank {rank} entered align #{seq} of "
                           f"{self.name!r} during align #{st.seq}")
        slots = st.slots
        if slots[rank] is not None:
            raise MPIError(f"rank {rank} arrived twice at align #{seq}")
        eng = self.job.engine
        # Engine.pooled() inlined; the value an align wakes with is unread.
        pool = eng._pause_pool
        ev = slots[rank] = pool.pop() if pool else eng.pooled()
        ev._state = _PENDING
        st.left -= 1
        if not st.left:
            self._align = None
            for slot in slots:
                slot._state = _TRIGGERED
            eng._deferred.extend(slots)
        return ev


class _AlignGate:
    __slots__ = ("seq", "slots", "left")

    def __init__(self, seq: int, size: int):
        self.seq = seq
        self.slots: list[Event | None] = [None] * size
        self.left = size


class Comm:
    """A per-rank communicator handle.

    Attributes
    ----------
    rank:
        This process's rank within the communicator.
    size:
        Number of member processes.
    ctx:
        The owning rank context.
    """

    __slots__ = (
        "_shared", "ctx", "rank", "_coll_seq", "_gate_seq", "_hier",
        "_world_ranks",
    )

    def __init__(self, shared: _CommShared, ctx: Any):
        self._shared = shared
        self.ctx = ctx
        self.rank = shared.group.rank_of(ctx.world_rank)
        if self.rank == UNDEFINED:
            raise MPIError(
                f"world rank {ctx.world_rank} is not in communicator "
                f"{shared.name!r}"
            )
        self._coll_seq = 0
        self._gate_seq = 0
        self._hier: dict[str, Any] = {}
        # comm rank -> world rank, cached for the p2p fast path (the
        # group is immutable).
        self._world_ranks = shared.group.world_ranks()

    @property
    def hier_cache(self) -> dict[str, Any]:
        """Per-rank cache of internal hierarchy sub-communicators."""
        return self._hier

    @property
    def shared_cache(self) -> dict[Any, Any]:
        """Communicator-wide cache for group-pure derived data (shared by
        all ranks — store nothing rank-dependent here)."""
        return self._shared.cache

    # -- basic queries -----------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in this communicator."""
        return len(self._world_ranks)

    @property
    def name(self) -> str:
        """Communicator debug name."""
        return self._shared.name

    @property
    def group(self) -> Group:
        """The underlying group."""
        return self._shared.group

    @property
    def id(self) -> int:
        """Runtime-unique communicator id (matching namespace)."""
        return self._shared.id

    def world_rank_of(self, comm_rank: int) -> int:
        """Translate a rank of this communicator to a world rank."""
        return self._shared.group.world_rank(comm_rank)

    def node_of(self, comm_rank: int) -> int:
        """Machine node hosting *comm_rank*."""
        return self.ctx.placement.node_of(self.world_rank_of(comm_rank))

    # -- point-to-point ------------------------------------------------------
    def _p2p_begin(self, op: str, peer: int, payload: Any = None):
        """Open a p2p wait span (trace detail ``"p2p"`` only).

        The payload is sized lazily — only when the span is actually
        recorded — so untraced runs never pay for ``nbytes_of``.
        """
        tracer = self.ctx.trace
        if tracer is None or not tracer.wants("p2p"):
            return None
        return tracer.begin({
            "t": self.ctx.engine.now,
            "rank": self.ctx.world_rank,
            "comm": self.name,
            "kind": "p2p",
            "op": op,
            "peer": peer,
            "nbytes": nbytes_of(payload) if payload is not None else 0,
        })

    def _p2p_end(self, span) -> None:
        if span is not None:
            self.ctx.trace.end(span, self.ctx.engine.now)

    def send(self, payload: Any, dest: int, tag: int = 0):
        """Blocking send (coroutine)."""
        if dest == PROC_NULL:
            return
        span = self._p2p_begin("send", dest, payload)
        req = self.isend(payload, dest, tag)
        yield req.event
        self._p2p_end(span)

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; returns a :class:`Request`."""
        if dest == PROC_NULL:
            ev = Event(self.ctx.engine, name="send.null")
            ev.succeed(None)
            return Request(ev, "send")
        ranks = self._world_ranks
        if not 0 <= dest < len(ranks):
            self._check_peer(dest)
        ctx = self.ctx
        done = ctx.msg_engine.post_send(
            self._shared.id, ctx.world_rank, self.rank, ranks[dest],
            payload, tag,
        )
        return Request(done, "send")

    def recv(self, buf: Any = None, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive (coroutine); returns the payload."""
        payload, _status = yield from self.recv_status(buf, source, tag)
        return payload

    def recv_status(
        self, buf: Any = None, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ):
        """Blocking receive returning ``(payload, Status)``."""
        if source == PROC_NULL:
            return None, Status(source=PROC_NULL, tag=tag, nbytes=0)
        span = self._p2p_begin("recv", source)
        req = self.irecv(buf, source, tag)
        payload, status = yield req.event
        if span is not None:
            span["nbytes"] = status.nbytes
        self._p2p_end(span)
        return payload, status

    def irecv(
        self, buf: Any = None, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Request:
        """Non-blocking receive; completion value is ``(payload, Status)``."""
        if source == PROC_NULL:
            ev = Event(self.ctx.engine, name="recv.null")
            ev.succeed((None, Status(source=PROC_NULL, tag=tag, nbytes=0)))
            return Request(ev, "recv")
        if source != ANY_SOURCE and not 0 <= source < len(self._world_ranks):
            self._check_peer(source)
        ctx = self.ctx
        ev = ctx.msg_engine.post_recv(
            self._shared.id, ctx.world_rank, source, tag, buf,
        )
        return Request(ev, "recv")

    def sendrecv(
        self,
        sendpayload: Any,
        dest: int,
        source: int = ANY_SOURCE,
        recvbuf: Any = None,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ):
        """Simultaneous send and receive (coroutine); returns payload."""
        span = self._p2p_begin("sendrecv", dest, sendpayload)
        payload = yield self.exchange(sendpayload, dest, source, sendtag,
                                      recvtag, recvbuf)
        self._p2p_end(span)
        return payload

    def exchange(self, payload: Any, dest: int, source: int, tag: int,
                 recvtag: int | None = None, buf: Any = None) -> Event:
        """One send+receive round: post a receive from *source* (tag
        *recvtag*, default *tag*, into *buf*), then a send of *payload*
        to *dest*; returns the event to ``yield`` on.

        The event succeeds, with the received payload as its value, once
        both halves completed; a failing half — a receive truncated by
        *buf* — fails it.  It is the round's only waitable: both halves
        complete one :class:`~repro.mpi.p2p._Round`, each in the queue
        slot its ``irecv``/``isend`` event would take, so the engine
        entries are those of ``irecv`` + ``isend`` + a wait on both.
        ``PROC_NULL`` or out-of-range peers behave exactly as there.

        >>> from repro.machine.presets import testing_machine
        >>> from repro.mpi import Bytes, run_program
        >>> def shift(mpi):
        ...     comm = mpi.world
        ...     right = (comm.rank + 1) % comm.size
        ...     left = (comm.rank - 1) % comm.size
        ...     got = yield comm.exchange(Bytes(comm.rank), right, left, 0)
        ...     return got.nbytes
        >>> run_program(testing_machine(), 3, shift).returns
        [2, 0, 1]
        """
        ctx = self.ctx
        ranks = self._world_ranks
        size = len(ranks)
        gate = Event(ctx.engine, "gate")
        done = _Round(gate)
        me = ctx.msg_engine
        if 0 <= source < size or source == ANY_SOURCE:
            me.post_recv(self._shared.id, ctx.world_rank, source,
                         tag if recvtag is None else recvtag, buf, done)
        elif source == PROC_NULL:
            ctx.engine._defer(done._half)
        else:
            self._check_peer(source)
        if 0 <= dest < size:
            me.post_send(self._shared.id, ctx.world_rank, self.rank,
                         ranks[dest], payload, tag, done)
        elif dest == PROC_NULL:
            ctx.engine._defer(done._half)
        else:
            self._check_peer(dest)
        return gate

    @staticmethod
    def wait(request: Request):
        """Wait for one request (coroutine); returns its value."""
        value = yield request.event
        return value

    @staticmethod
    def waitall(requests: list[Request]):
        """Wait for all requests (coroutine); returns values in order."""
        values = yield AllOf([r.event for r in requests])
        return values

    @staticmethod
    def test(request: Request) -> bool:
        """True once *request* has completed (never blocks).

        >>> from repro.simulator import Engine, Event
        >>> from repro.mpi.p2p import Request
        >>> eng = Engine()
        >>> req = Request(Event(eng, name="x"), "recv")
        >>> Comm.test(req)
        False
        >>> _ = req.event.succeed(None)
        >>> Comm.test(req)
        True
        """
        return request.complete

    @staticmethod
    def testall(requests: list[Request]) -> bool:
        """True once *every* request has completed (never blocks).

        Like ``MPI_Testall``'s flag; vacuously true for an empty list.

        >>> from repro.simulator import Engine, Event
        >>> from repro.mpi.p2p import Request
        >>> eng = Engine()
        >>> evs = [Event(eng, name=str(i)) for i in range(2)]
        >>> reqs = [Request(ev, "recv") for ev in evs]
        >>> Comm.testall(reqs)
        False
        >>> _ = evs[0].succeed(None)
        >>> Comm.testall(reqs)
        False
        >>> _ = evs[1].succeed(None)
        >>> Comm.testall(reqs)
        True
        """
        return all(r.complete for r in requests)

    @staticmethod
    def waitany(requests: list[Request]):
        """Coroutine: wait until *one* request completes.

        Returns ``(index, value)`` of the first completion (an already
        completed request wins immediately, lowest index first).

        >>> from repro.simulator import Engine, Event
        >>> from repro.mpi.p2p import Request
        >>> eng = Engine()
        >>> evs = [Event(eng, name=str(i)) for i in range(2)]
        >>> reqs = [Request(ev, "recv") for ev in evs]
        >>> waiter = eng.spawn(Comm.waitany(reqs))
        >>> _ = evs[1].succeed("halo")
        >>> eng.run()
        >>> waiter.value
        (1, 'halo')
        """
        if not requests:
            raise MPIError("waitany requires at least one request")
        index, value = yield AnyOf([r.event for r in requests])
        return index, value

    @staticmethod
    def waitsome(requests: list[Request]):
        """Coroutine: wait until *at least one* request completes.

        Returns ``(indices, values)`` of **all** requests complete at
        that moment, in index order (``MPI_Waitsome``).

        >>> from repro.simulator import Engine, Event
        >>> from repro.mpi.p2p import Request
        >>> eng = Engine()
        >>> evs = [Event(eng, name=str(i)) for i in range(3)]
        >>> reqs = [Request(ev, "recv") for ev in evs]
        >>> _ = evs[2].succeed("c")
        >>> _ = evs[0].succeed("a")
        >>> waiter = eng.spawn(Comm.waitsome(reqs))
        >>> eng.run()
        >>> waiter.value
        ([0, 2], ['a', 'c'])
        """
        if not requests:
            raise MPIError("waitsome requires at least one request")
        yield AnyOf([r.event for r in requests])
        indices = [i for i, r in enumerate(requests) if r.complete]
        return indices, [requests[i].event.value for i in indices]

    # -- collectives ---------------------------------------------------------
    # A blocking collective returns its one dispatch coroutine, the
    # ``run_*`` body of :mod:`repro.mpi.collectives`, which draws the
    # tag, sizes the payload, selects, runs the algorithm and charges the
    # rank's profile itself.  When the job replays
    # (:mod:`repro.mpi.collectives.replay`), the session gets that
    # coroutine's function and arguments instead and builds it only on
    # its live branch, so a hit draws, sizes and builds nothing (every
    # rank of a hit skips its draw alike, so later tags still match);
    # the public call's argument tuple keys the dispatch.  Non-blocking
    # collectives draw their tag at issue and pass no call: they still
    # park (the decision is collective) but never replay.
    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return MAX_INTERNAL_TAG + self._coll_seq

    def barrier(self):
        """Barrier over all member ranks (coroutine)."""
        sess = self.ctx.job.replay
        if sess is None:
            return _coll.run_barrier(self)
        return sess.run(self, "barrier", (), _coll.run_barrier, (self,))

    def align(self):
        """Coroutine: zero-virtual-cost rendezvous of all member ranks.

        Every rank resumes at the *last* arrival's timestep — in **rank
        order**, not arrival order — without simulating any
        communication (unlike :meth:`barrier`, which models a real
        dissemination/gather-release exchange).  Benchmark harnesses use
        this to realign rank clocks between repetitions so that each
        repetition enters its collective simultaneously *and in the same
        canonical permutation*: same-timestep resource-queue grants
        depend on arrival order, so rank-order wakes make every aligned
        repetition byte-identical — which is exactly what lets the
        replay cache (:mod:`repro.mpi.collectives.replay`) memoize the
        steady state under a single key instead of chasing a rotating
        arrival permutation.  An align is measurement scaffolding, not a
        modelled operation: it adds nothing to virtual time, traffic
        counters, or the trace.
        """
        self._gate_seq += 1
        yield self._shared.align_arrive(self._gate_seq, self.rank)

    def bcast(self, payload: Any, root: int = 0):
        """Broadcast from *root*; returns the payload on every rank."""
        sess = self.ctx.job.replay
        if sess is None:
            return _coll.run_bcast(self, payload, root)
        return sess.run(self, "bcast", (payload, root), _coll.run_bcast,
                        (self, payload, root))

    def gather(self, payload: Any, root: int = 0):
        """Gather to *root*; returns list of payloads (None elsewhere)."""
        sess = self.ctx.job.replay
        if sess is None:
            return _coll.run_gather(self, payload, root)
        return sess.run(self, "gather", (payload, root), _coll.run_gather,
                        (self, payload, root))

    def gatherv(self, payload: Any, root: int = 0):
        """Irregular gather to *root* (per-rank sizes may differ)."""
        sess = self.ctx.job.replay
        if sess is None:
            return _coll.run_gather(self, payload, root, None, "gatherv")
        return sess.run(self, "gatherv", (payload, root), _coll.run_gather,
                        (self, payload, root, None, "gatherv"))

    def scatter(self, payloads: list[Any] | None, root: int = 0):
        """Scatter list *payloads* (significant at root); returns own part."""
        sess = self.ctx.job.replay
        if sess is None:
            return _coll.run_scatter(self, payloads, root)
        return sess.run(self, "scatter", (payloads, root), _coll.run_scatter,
                        (self, payloads, root))

    def allgather(self, payload: Any):
        """Regular allgather; returns the list of per-rank payloads."""
        sess = self.ctx.job.replay
        if sess is None:
            return _coll.run_allgather(self, payload)
        return sess.run(self, "allgather", (payload,), _coll.run_allgather,
                        (self, payload))

    def allgatherv(self, payload: Any):
        """Irregular allgather (per-rank sizes may differ).

        A size-agreement gate (zero virtual time) precedes the body, so
        the profiler charges the *actual* summed per-rank bytes rather
        than ``local_size * comm_size`` — the two differ exactly when the
        v-variant matters (irregular nodes, Fig 10)."""
        return self._allgatherv("allgatherv", payload,
                                self._next_coll_tag(), (payload,))

    def _allgatherv(self, name: str, payload: Any, tag: int, call):
        """Coroutine of :meth:`allgatherv` and :meth:`iallgatherv`: arrive
        at the size gate, one shared event, which the body waits for; a
        replayed rank parks at once instead (:meth:`ReplaySession.run`)."""
        total = nbytes_of(payload)
        if self.size > 1:
            total = self._shared.arrive(("agv_total", tag), self.rank, total,
                                        _coll._sum_of)
        sess = self.ctx.job.replay
        if sess is None:
            return _coll.run_allgatherv(total, self, payload, tag, name)
        return sess.run(self, name, call, _coll.run_allgatherv,
                        (total, self, payload, tag, name))

    def reduce(self, payload: Any, op: ReduceOp = ReduceOp.SUM, root: int = 0):
        """Reduce to *root*; returns the reduction there, None elsewhere."""
        sess = self.ctx.job.replay
        if sess is None:
            return _coll.run_reduce(self, payload, op, root)
        return sess.run(self, "reduce", (payload, op, root), _coll.run_reduce,
                        (self, payload, op, root))

    def _reduction(self, coll: str, payload: Any, op: ReduceOp):
        """Coroutine of the rootless reduction *coll* (the registry op)."""
        sess = self.ctx.job.replay
        if sess is None:
            return _coll.run_reduction(self, coll, payload, op)
        return sess.run(self, coll, (payload, op), _coll.run_reduction,
                        (self, coll, payload, op))

    def allreduce(self, payload: Any, op: ReduceOp = ReduceOp.SUM):
        """Allreduce; returns the reduction on every rank."""
        return self._reduction("allreduce", payload, op)

    def alltoall(self, payloads: list[Any]):
        """All-to-all personalized exchange; returns received list."""
        sess = self.ctx.job.replay
        if sess is None:
            return _coll.run_alltoall(self, payloads)
        return sess.run(self, "alltoall", (payloads,), _coll.run_alltoall,
                        (self, payloads))

    def scan(self, payload: Any, op: ReduceOp = ReduceOp.SUM):
        """Inclusive prefix reduction."""
        return self._reduction("scan", payload, op)

    def exscan(self, payload: Any, op: ReduceOp = ReduceOp.SUM):
        """Exclusive prefix reduction (None on rank 0)."""
        return self._reduction("exscan", payload, op)

    def reduce_scatter(self, payload: Any, op: ReduceOp = ReduceOp.SUM):
        """Block reduce-scatter: returns this rank's reduced block."""
        return self._reduction("reduce_scatter", payload, op)

    # -- non-blocking collectives ------------------------------------------
    def _icoll(self, name: str, fn, *args) -> CollRequest:
        """Spawn collective ``fn(self, *args, tag, name)`` as a background
        process (MPI-3 style), its tag drawn now, at issue.

        Non-blocking collectives appear in the profile under their own
        ``i``-prefixed op names (time = issue-to-completion span).  The
        engine interleaves all live processes, so the pending collective
        progresses whenever this rank is suspended (compute delays
        included) — asynchronous progress for free.  Span contexts and
        the ordering rules live in :mod:`repro.mpi.nonblocking`."""
        args = (self, *args, self._next_coll_tag(), name)
        sess = self.ctx.job.replay
        if sess is None:
            return spawn_collective(self, name, fn(*args))
        return spawn_collective(self, name,
                                sess.run(self, name, None, fn, args))

    def ibarrier(self) -> CollRequest:
        """Non-blocking barrier; wait on the returned request."""
        return self._icoll("ibarrier", _coll.run_barrier)

    def ibcast(self, payload: Any, root: int = 0) -> CollRequest:
        """Non-blocking broadcast; request value is the payload."""
        return self._icoll("ibcast", _coll.run_bcast, payload, root)

    def iallgather(self, payload: Any) -> CollRequest:
        """Non-blocking allgather; request value is the payload list."""
        return self._icoll("iallgather", _coll.run_allgather, payload)

    def iallgatherv(self, payload: Any) -> CollRequest:
        """Non-blocking irregular allgather; request value is the list.

        The size-agreement gate is :meth:`allgatherv`'s, arrived at
        inside the background process, so issuing never blocks; the
        profiler still charges the agreed per-rank byte sum."""
        tag = self._next_coll_tag()

        def run():
            return (yield from self._allgatherv("iallgatherv", payload,
                                                tag, None))

        return spawn_collective(self, "iallgatherv", run())

    def ireduce(self, payload: Any, op: ReduceOp = ReduceOp.SUM,
                root: int = 0) -> CollRequest:
        """Non-blocking reduce; request value is the reduction at *root*
        (None elsewhere)."""
        return self._icoll("ireduce", _coll.run_reduce, payload, op, root)

    def iallreduce(self, payload: Any,
                   op: ReduceOp = ReduceOp.SUM) -> CollRequest:
        """Non-blocking allreduce; request value is the result."""
        return self._icoll("iallreduce", _coll.run_reduction, "allreduce",
                           payload, op)

    # -- communicator management ----------------------------------------------
    def _gate(self, op: str, value: Any, reducer):
        """Coroutine helper: rendezvous all ranks of this comm."""
        self._shared.job.gates += 1
        self._gate_seq += 1
        key = (op, self._gate_seq)
        results = yield self._shared.arrive(key, self.rank, value, reducer)
        return results[self.rank]

    def split(self, color: int, key: int = 0):
        """``MPI_Comm_split`` (coroutine): returns the new :class:`Comm`
        for this rank, or None when *color* is ``UNDEFINED``."""
        job = self._shared.job
        parent_group = self._shared.group

        def reducer(values: dict[int, tuple[int, int]]) -> dict[int, Any]:
            by_color: dict[int, list[tuple[int, int]]] = {}
            for rank, (col, k) in values.items():
                if col == UNDEFINED:
                    continue
                by_color.setdefault(col, []).append((k, rank))
            shared_of_color: dict[int, _CommShared] = {}
            for col, members in by_color.items():
                members.sort()
                world = [parent_group.world_rank(r) for _k, r in members]
                shared_of_color[col] = _CommShared(
                    job, Group(world), name=f"{self.name}.split({col})"
                )
            return {
                rank: (None if col == UNDEFINED else shared_of_color[col])
                for rank, (col, _k) in values.items()
            }

        shared = yield from self._gate("split", (color, key), reducer)
        if shared is None:
            return None
        return Comm(shared, self.ctx)

    def split_type_shared(self, key: int = 0):
        """``MPI_Comm_split_type(..., MPI_COMM_TYPE_SHARED, ...)``:
        split into per-node (shared-memory) communicators."""
        node = self.ctx.placement.node_of(self.ctx.world_rank)
        return (yield from self.split(color=node, key=key))

    def subcomm(self, key: Any, members: list[int]):
        """Non-collective child communicator from globally-known state.

        *members* lists the parent-comm ranks of the child, identically
        derivable on every rank (e.g. "the ranks on my node" from the
        placement).  Used by internal hierarchical collectives, where a
        rendezvous-based split would be unsafe under concurrent
        non-blocking collectives.  Returns None when this rank is not a
        member.
        """
        world = tuple(self.world_rank_of(r) for r in members)
        if self.ctx.world_rank not in world:
            return None
        shared = self._shared.deterministic_child(
            key, world, name=f"{self.name}.sub{key}"
        )
        return Comm(shared, self.ctx)

    def dup(self):
        """Duplicate the communicator (fresh matching namespace)."""
        job = self._shared.job
        group = self._shared.group

        def reducer(values: dict[int, Any]) -> dict[int, Any]:
            shared = _CommShared(job, group, name=f"{self.name}.dup")
            return {rank: shared for rank in values}

        shared = yield from self._gate("dup", None, reducer)
        return Comm(shared, self.ctx)

    # -- internals ------------------------------------------------------------
    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise MPIError(
                f"peer rank {peer} out of range for {self.name!r} "
                f"(size {self.size})"
            )

    def __repr__(self) -> str:
        return f"<Comm {self.name!r} rank={self.rank}/{self.size}>"
