"""On-node synchronization policies for the hybrid collectives.

The paper (§4, §6) inserts explicit synchronization around the bridge
exchange to guarantee data integrity of the shared window:

* a *pre* sync — leaders wait until all children initialized their
  partitions;
* a *post* sync — children wait until leaders finished the inter-node
  exchange;
* for single-node runs only one sync is needed (the buffer is complete
  once everyone wrote).

Two mechanisms are modelled:

* :class:`BarrierSync` — ``MPI_Barrier`` on the shared-memory
  communicator (the paper's *heavy-weight* default: log2(ppn)
  dissemination rounds of on-node latency).
* :class:`FlagSync` — the *light-weight* shared-flag scheme sketched in
  §6/§7 ([8]): children store to a counter cache line that the leader
  watches; the leader stores an epoch number children wait on.  Cost is
  a couple of cache-line transfers, independent of message size and only
  weakly dependent on ppn.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.simulator import Event

__all__ = ["SyncPolicy", "BarrierSync", "FlagSync"]


class SyncPolicy(ABC):
    """Strategy object: how on-node processes synchronize an epoch."""

    @abstractmethod
    def pre_exchange(self, hybrid):
        """Coroutine run *before* the bridge exchange (all node ranks)."""

    @abstractmethod
    def post_exchange(self, hybrid):
        """Coroutine run *after* the bridge exchange (all node ranks)."""

    @abstractmethod
    def single(self, hybrid):
        """Coroutine for the single-sync cases (one node, or broadcast)."""


class BarrierSync(SyncPolicy):
    """Heavy-weight: MPI_Barrier over the shared-memory communicator."""

    name = "barrier"

    def replay_signature(self) -> tuple:
        """Everything that determines this policy's simulated cost (see
        :func:`repro.mpi.collectives.replay.sync_signature`)."""
        return ("barrier",)

    def pre_exchange(self, hybrid):
        return hybrid.shm.barrier()

    def post_exchange(self, hybrid):
        return hybrid.shm.barrier()

    def single(self, hybrid):
        return hybrid.shm.barrier()


class _FlagCell:
    """A shared counter cell with event-based waiters (one per node)."""

    __slots__ = ("value", "waiters")

    def __init__(self) -> None:
        self.value = 0
        self.waiters: list[tuple[int, Event]] = []

    def add(self, delta: int) -> int:
        self.value += delta
        self._wake()
        return self.value

    def store(self, value: int) -> None:
        self.value = value
        self._wake()

    def _wake(self) -> None:
        still = []
        for threshold, ev in self.waiters:
            if self.value >= threshold:
                ev.succeed(self.value)
            else:
                still.append((threshold, ev))
        self.waiters = still

    def reached(self, engine, threshold: int) -> Event:
        ev = Event(engine, name=f"flag>={threshold}")
        if self.value >= threshold:
            ev.succeed(self.value)
        else:
            self.waiters.append((threshold, ev))
        return ev


class FlagSync(SyncPolicy):
    """Light-weight: shared-flag signalling (paper §6 'light-weight means').

    Cost model: every flag store/observed-update is one cache-line
    transfer (``flag_latency`` seconds, default 60 ns on-node).  Children
    increment an arrival counter; the leader waits for ``ppn-1`` arrivals,
    performs the exchange, then stores the epoch number that releases the
    children.  There is no log-factor: pre-sync costs one line transfer
    per child (overlapped), post-sync one leader store observed by each
    child.
    """

    name = "flags"

    def __init__(self, flag_latency: float = 6.0e-8):
        if flag_latency < 0:
            raise ValueError("flag_latency must be non-negative")
        self.flag_latency = flag_latency
        self._cells: dict[Any, dict[str, _FlagCell]] = {}
        self._epochs: dict[Any, int] = {}

    def replay_signature(self) -> tuple:
        """Everything that determines this policy's simulated cost."""
        return ("flags", self.flag_latency)

    # Each HybridContext gets its own cell namespace, keyed by the shm
    # communicator's shared identity.
    def _cell(self, hybrid, name: str) -> _FlagCell:
        key = hybrid.shm.id
        cells = self._cells.setdefault(key, {})
        cell = cells.get(name)
        if cell is None:
            cell = cells[name] = _FlagCell()
        return cell

    def _next_epoch(self, hybrid, phase: str) -> int:
        key = (hybrid.shm.id, phase, hybrid.shm.rank)
        # Per-rank epoch counters advance in lock-step because every rank
        # executes the same sequence of collective calls.
        mine = self._epochs.get(key, 0) + 1
        self._epochs[key] = mine
        return mine

    def pre_exchange(self, hybrid):
        engine = hybrid.shm.ctx.engine
        epoch = self._next_epoch(hybrid, "pre")
        arrive = self._cell(hybrid, "arrive")
        ppn = hybrid.shm.size
        yield engine.timeout(self.flag_latency)  # publish my write
        if hybrid.is_leader:
            yield arrive.reached(engine, (ppn - 1) * epoch)
        else:
            arrive.add(1)

    def post_exchange(self, hybrid):
        engine = hybrid.shm.ctx.engine
        epoch = self._next_epoch(hybrid, "post")
        release = self._cell(hybrid, "release")
        if hybrid.is_leader:
            yield engine.timeout(self.flag_latency)
            release.store(epoch)
        else:
            yield release.reached(engine, epoch)
            yield engine.timeout(self.flag_latency)  # observe the line

    def single(self, hybrid):
        # One full arrive+release round trip: everyone signals readiness,
        # leader releases.
        yield from self.pre_exchange(hybrid)
        yield from self.post_exchange(hybrid)
