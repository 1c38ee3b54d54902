"""Analytic closed-form latency model — the "fast lane" beside the DES.

The discrete-event simulator prices a collective by running it; this
module prices the same collective with closed-form alpha-beta/hop-latency
arithmetic ("A Model for Communication in Clusters of Multi-core
Machines" formulation), reusing the exact protocol rules the simulator
implements:

* inter-node messages pay ``L = alpha + hops * hop_latency`` plus
  serialization ``n/B`` on the endpoint NICs (``nic_streams`` concurrent
  transfers before FIFO queueing); rendezvous messages
  (``n > eager_threshold``) pay an extra ``2L`` handshake;
* intra-node messages pay ``shm_latency`` (scaled by the transport's
  ``latency_scale``) plus the transport's staged memory copies — two
  for the eager CICO path of ``shm_two_copy``, one for ``cma_single_copy``
  / ``pip_direct`` and for every rendezvous (LMT) path — each copy
  moving ``2n`` bytes through a socket memory channel (``mem_streams``
  concurrent copies per socket before queueing); on multi-socket nodes
  exactly one copy of a cross-socket message crosses the xsocket link
  (``xsocket_streams`` concurrent transfers) and the message pays an
  extra ``xsocket_latency``;
* concurrent same-shaped transfers on one channel complete in FIFO
  waves: ``k`` transfers on ``s`` slots finish after ``ceil(k/s)``
  transfer times.

Per-algorithm evaluators compose these primitives into the round
structure of every registered collective algorithm, including the
leader-based hierarchical stages (on-node funnel → inter-leader bridge
→ on-node release) and the hybrid ``hy_*`` shared-window exchanges.
For small communicators (``p <= exact_limit``) per-round send/recv
censuses over the actual rank→node map are used, so irregular
placements are priced exactly; larger communicators are priced by
**node class** — the run-length classes of the per-node rank counts
(Fig 10 at a million ranks is two: 41 666 × 24 and 1 × 16).  Every
per-node quantity is evaluated once per class, bit-identical to pricing
node by node, so a 1M-rank point costs O(classes + log p) Python work
instead of hours of simulation.

The conformance suite (``tests/analysis/test_model_conformance.py``)
asserts model-vs-DES divergence bounds for every registered (op, algo)
pair; see ``docs/modeling.md`` for the formulas and tolerance table.

>>> t = predict("testing", None, "bcast", "binomial", 8, 8, 1024)
>>> 0.0 < t < 1.0
True
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, groupby, repeat
from typing import Callable, Iterable, Mapping, Sequence

from repro.machine.placement import Placement
from repro.machine.topology import topology_for
from repro.mpi.collectives.registry import (
    BRIDGE_ALLGATHERV,
    BRIDGE_ALLREDUCE,
    BRIDGE_BCAST,
    SHM_BCAST,
    CollRequest,
    Shape,
    table_choice,
)
from repro.mpi.collectives.tuning import CollectiveTuning, tuning_for_machine

__all__ = [
    "CostModel",
    "MODEL_VERSION",
    "predict",
    "predict_overlap",
    "predict_comm",
    "model_for_comm",
    "crossover_points",
    "MODEL_FORMS",
]

#: Version of the closed-form model's *predictions*.  Bump whenever a
#: formula change alters any predicted latency — the content-addressed
#: result cache (:mod:`repro.bench.sweep`) folds this into the cache key
#: of every model-engine point, so cached predictions invalidate
#: automatically when the formulas move.
MODEL_VERSION = "7.1"


# ---------------------------------------------------------------------------
# Representative hop counts
# ---------------------------------------------------------------------------

def _rep_hops(topology, kind: str, node_ids: Sequence[int] | None,
              n: int) -> int:
    """Worst pairwise hops over the *n* nodes *node_ids* (``None`` means
    ``0..n-1``): exact over a small set on a *topology* instance, else
    the diameter of the *kind*'s topology over the nodes' span."""
    if n <= 1:
        return 0
    if topology is not None and n <= 64:
        ids = node_ids if node_ids is not None else range(n)
        worst = 0
        for i in range(n):
            for j in range(i + 1, n):
                worst = max(worst, topology.hops(ids[i], ids[j]))
        return worst
    span = max(node_ids) + 1 if node_ids else n
    return topology_for(kind, span).diameter_hops()


def _is_pof2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def _ceil_log2(n: int) -> int:
    return max(1, math.ceil(math.log2(max(n, 2))))


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------

class CostModel:
    """Closed-form latency evaluator for one (machine, placement) pair.

    Parameters
    ----------
    spec:
        :class:`~repro.machine.model.MachineSpec` supplying link
        alpha/beta, NIC streams, eager threshold and node memory costs.
    counts:
        Per-node rank counts in block order (``Placement.irregular``
        semantics); an int means one node with that many ranks.  Kept
        as :attr:`classes`, the run-length ``(count, nodes)`` pairs in
        node order — ``[24, 24, 16]`` is ``((24, 2), (16, 1))``.
    tuning:
        :class:`CollectiveTuning` personality; defaults to the spec's
        machine personality.
    topology:
        Hop-count provider — a Topology instance (exact pairwise hops
        for small node sets), a kind string, or None for the spec's
        ``topology_kind``.
    node_ids:
        Machine node indices hosting the ranks (default ``0..N-1``).
    exact_limit:
        Communicator sizes up to this bound use exact per-round
        send/recv censuses; larger ones are priced per node class.
    socket_mode:
        Slot→socket mapping of the placement being priced (one of
        :attr:`~repro.machine.placement.Placement.SOCKET_MODES`); only
        meaningful when the node spec declares ``sockets > 1``.
    """

    def __init__(self, spec, counts, tuning: CollectiveTuning | None = None,
                 topology=None, node_ids: Sequence[int] | None = None,
                 exact_limit: int = 256, socket_mode: str = "compact"):
        if isinstance(counts, int):
            counts = (counts,)
        self.classes = tuple((int(c), len(list(run)))
                             for c, run in groupby(counts))
        if not self.classes or min(c for c, _k in self.classes) < 1:
            raise ValueError("counts must be non-empty positive ints")
        if socket_mode not in Placement.SOCKET_MODES:
            raise ValueError(
                f"unknown socket_mode {socket_mode!r} "
                f"(have: {', '.join(Placement.SOCKET_MODES)})"
            )
        self._class_sizes = [k for _c, k in self.classes]
        self.spec = spec
        self.p = sum(c * k for c, k in self.classes)
        self.N = sum(self._class_sizes)
        self.q = max(c for c, _k in self.classes)
        self.tuning = tuning or tuning_for_machine(spec.name)
        node = spec.node
        net = spec.network
        #: On-node transport (copy counts + latency scale); for the
        #: default ``shm_two_copy`` every formula below reduces exactly
        #: to the pre-transport model.
        self.tp = node.transport_spec
        self.shm_lat = node.shm_latency * self.tp.latency_scale
        #: Seconds per byte of one staged copy (reads + writes the data).
        self.copy_beta = node.copy_beta
        #: Per-socket memory streams (the census unit) and their pooled
        #: node-wide count (the arithmetic-mode unit; equal on flat nodes).
        self.mem_streams = node.mem_streams
        self.sockets = node.sockets
        self.pool_streams = node.mem_streams * node.sockets
        self.socket_mode = socket_mode
        self.cores_per_socket = node.cores_per_socket
        self.x_lat = node.xsocket_latency if node.sockets > 1 else 0.0
        #: Seconds per byte of one staged copy over the xsocket link.
        self.x_beta = node.xsocket_beta
        self.x_streams = node.xsocket_streams
        self.alpha = net.alpha
        self.B = net.bandwidth
        self.nic_streams = net.nic_streams
        self.eager = net.eager_threshold
        ids = tuple(node_ids) if node_ids is not None else None
        kind = topology if isinstance(topology, str) else spec.topology_kind
        hops = _rep_hops(None if isinstance(topology, str) else topology,
                         kind, ids, len(ids) if ids is not None else self.N)
        self.hops = hops
        #: One-way message latency (software + routing).
        self.L = net.one_way_latency(hops)
        self.rdv = net.rendezvous_latency_for(hops)
        self.exact_limit = exact_limit
        self.exact = self.p <= exact_limit
        if self.exact:
            node_of = []
            sock_of = []
            first = 0
            for c, k in self.classes:
                node_of.extend(n for n in range(first, first + k)
                               for _ in range(c))
                sock_of.extend([self._sock_slot(s, c) for s in range(c)] * k)
                first += k
            self._node_of = node_of
            self._sock_of = sock_of
        else:
            self._node_of = None
            self._sock_of = None
        self._memo: dict = {}

    # -- socket census -----------------------------------------------------

    def _sock_slot(self, slot: int, ppn: int) -> int:
        """Socket of on-node *slot* under :attr:`socket_mode` (mirrors
        :meth:`repro.machine.placement.Placement.socket_of`)."""
        s = self.sockets
        if s <= 1:
            return 0
        if self.socket_mode == "compact":
            return min(slot // self.cores_per_socket, s - 1)
        if self.socket_mode == "scatter":
            return slot % s
        return min(slot * s // max(ppn, 1), s - 1)    # balanced

    def _per_node(self, per_class: Iterable[float]) -> Iterable[float]:
        """A per-class value once per node, in node order, expanded in C:
        what a float ``sum`` over nodes consumes when its left-to-right
        order is part of the pinned result."""
        return chain.from_iterable(map(repeat, per_class, self._class_sizes))

    def _ncross(self, pairs: Iterable[tuple[int, int]], q: int) -> int:
        """Cross-socket pair count among on-node slot *pairs* of a
        node hosting *q* ranks."""
        if self.sockets <= 1:
            return 0
        return sum(
            1 for a, b in pairs
            if self._sock_slot(a, q) != self._sock_slot(b, q)
        )

    # -- primitives -------------------------------------------------------

    def copy(self, m: float) -> float:
        """One staged memory copy of *m* bytes (uncontended)."""
        return m * self.copy_beta

    def xcopy(self, m: float) -> float:
        """One staged copy of *m* bytes over the xsocket link."""
        return m * self.x_beta

    def _k_of(self, m: float) -> int:
        """Staged copies per on-node message of *m* bytes under the
        node's transport (eager vs rendezvous path)."""
        return (self.tp.eager_copies if m <= self.eager
                else self.tp.rdv_copies)

    def shm_round(self, m: float, conc: int, ncross: int = 0) -> float:
        """Completion time of *conc* concurrent on-node messages of *m*
        bytes each, started together on one node's memory system.
        *ncross* of them cross sockets: their first staged copy moves
        over the xsocket link and they pay ``xsocket_latency`` extra."""
        if conc <= 0:
            return 0.0
        k = self._k_of(m)
        c = self.copy(m)
        if ncross <= 0:
            # Same-domain round: copies refill freed slots, so the last
            # completion is governed by total copy count, floored by the
            # k sequential per-message hops.
            s = self.pool_streams
            waves = max(k, math.ceil(k * conc / s))
            return self.shm_lat + waves * c
        lat = self.shm_lat + self.x_lat
        # First copies: crossing messages queue on the xsocket link
        # while same-socket ones start on the memory channels.
        nloc = conc - ncross
        t = math.ceil(ncross / self.x_streams) * self.xcopy(m)
        if nloc > 0:
            t = max(t, math.ceil(nloc / self.pool_streams) * c)
        if k > 1:
            # Remaining copies all land on the socket memory channels.
            t += max(k - 1,
                     math.ceil((k - 1) * conc / self.pool_streams)) * c
        return lat + t

    def net_round(self, m: float, conc: int) -> float:
        """Completion (at the receiver) of *conc* concurrent inter-node
        messages of *m* bytes per endpoint NIC."""
        if conc <= 0:
            return 0.0
        waves = max(1, math.ceil(conc / self.nic_streams))
        t = waves * (m / self.B) + self.L
        if m > self.eager:
            t += self.rdv
        return t

    # -- dependency-graph primitives --------------------------------------
    #
    # Round-sum forms overcharge algorithms whose messages pipeline: an
    # eager sender is free after injecting its payload, so consecutive
    # tree levels or ring hops pay the one-way latency once per
    # dependency chain, not once per round.  The evaluators below walk
    # the actual send/recv dependency structure with per-message
    # protocol costs (contention appears as channel-throughput floors).

    def _send_pair(self, intra: bool, m: float, start: float,
                   recv_post: float,
                   cross: bool = False) -> tuple[float, float]:
        """(sender-free, receiver-done) absolute times of one message
        whose send starts at *start* with the recv posted at
        *recv_post*.  *cross* marks an intra-node pair living on
        different sockets (its first copy crosses the xsocket link)."""
        if intra:
            lat = self.shm_lat + (self.x_lat if cross else 0.0)
            c = self.copy(m)
            first = self.xcopy(m) if cross else c
            if m <= self.eager:
                k = self.tp.eager_copies
                if k >= 2:
                    # Sender stages k-1 copies (the first may cross);
                    # the receiver pays the final copy-out.
                    avail = start + lat + first + (k - 2) * c
                    return (avail, max(avail, recv_post) + c)
                # Single-copy transport: the sender is free after the
                # latency hop; the receiver's one copy moves the data.
                avail = start + lat
                return (avail, max(avail, recv_post) + first)
            k = self.tp.rdv_copies                     # LMT direct copy
            match = max(start, recv_post)
            done = match + lat + first + (k - 1) * c
            return (done, done)
        if m <= self.eager:
            avail = start + m / self.B + self.L
            return (start + m / self.B, max(avail, recv_post))
        match = max(start, recv_post)                  # rendezvous
        done = match + self.rdv + self.L + m / self.B
        return (done, done)

    def _edge_cost(self, intra: bool, m: float,
                   cross: bool = False) -> float:
        """Store-and-forward cost of one pipelined hop (recv pre-posted)."""
        if intra:
            k = self._k_of(m)
            first = self.xcopy(m) if cross else self.copy(m)
            return (self.shm_lat + (self.x_lat if cross else 0.0)
                    + first + (k - 1) * self.copy(m))
        t = m / self.B + self.L
        if m > self.eager:
            t += self.rdv
        return t

    def _pair_cross(self, sock_of, node_of, a: int, b: int) -> bool:
        """Whether vranks *a*, *b* form a cross-socket intra-node pair."""
        return (sock_of is not None and node_of[a] == node_of[b]
                and sock_of[a] != sock_of[b])

    def _dp_down_tree(self, node_of: Sequence[int],
                      m_of: Callable[[int], float],
                      sock_of: Sequence[int] | None = None) -> float:
        """Binomial top-down tree rooted at vrank 0 (bcast/scatter):
        completion time.  ``m_of(cnt)`` is the bytes sent to a subtree
        of *cnt* ranks."""
        p = len(node_of)
        if p <= 1:
            return 0.0
        free = [0.0] * p
        ready = [math.inf] * p
        ready[0] = 0.0
        masks = []
        mask = 1
        while mask < p:
            masks.append(mask)
            mask <<= 1
        for mask in reversed(masks):
            for r in range(0, p, 2 * mask):
                dst = r + mask
                if dst >= p or ready[r] == math.inf:
                    continue
                start = max(free[r], ready[r])
                cnt = min(mask, p - dst)
                sf, rd = self._send_pair(
                    node_of[r] == node_of[dst], m_of(cnt), start, 0.0,
                    cross=self._pair_cross(sock_of, node_of, r, dst),
                )
                free[r] = sf
                ready[dst] = rd
        return max(max(ready), max(free))

    def _dp_up_tree(self, node_of: Sequence[int],
                    m_of: Callable[[int], float],
                    sock_of: Sequence[int] | None = None) -> float:
        """Binomial bottom-up tree rooted at vrank 0 (gather/reduce):
        root completion.  ``m_of(cnt)`` is the bytes a sender holding
        *cnt* blocks forwards."""
        p = len(node_of)
        if p <= 1:
            return 0.0
        t = [0.0] * p
        mask = 1
        while mask < p:
            for r in range(0, p, 2 * mask):
                src = r + mask
                if src >= p:
                    continue
                cnt = min(mask, p - src)
                sf, rd = self._send_pair(
                    node_of[r] == node_of[src], m_of(cnt), t[src], t[r],
                    cross=self._pair_cross(sock_of, node_of, r, src),
                )
                t[r] = rd
                t[src] = sf
            mask <<= 1
        return t[0]

    def _dp_shift(self, node_of: Sequence[int], dists: Iterable[int],
                  m: float, wrap: bool = False,
                  sock_of: Sequence[int] | None = None) -> float:
        """Rounds where rank ``r`` sends to ``r + d`` and receives from
        ``r - d`` (Hillis-Steele scan shape), honoring per-rank
        dependencies between rounds.  Concurrent inter-node sends from
        one node queue on its NIC FIFO: the j-th transfer (in sender
        start order) pays ``(j // nic_streams + 1)`` bandwidth terms."""
        p = len(node_of)
        t = [0.0] * p
        for d in dists:
            msgs = []
            for r in range(p):
                dst = r + d
                if dst >= p:
                    if not wrap:
                        continue
                    dst %= p
                msgs.append((r, dst, node_of[r] == node_of[dst],
                             self._pair_cross(sock_of, node_of, r, dst)))
            k = self._k_of(m)
            order: dict[tuple[int, int], int] = {}
            seen: Counter = Counter()
            for r, dst, intra, cross in sorted(
                    msgs, key=lambda e: t[e[0]]):
                node = node_of[r]
                key = (2, node) if cross else \
                    (1, node) if intra else (0, node)
                order[(r, dst)] = seen[key]
                seen[key] += (1 if cross else k) if intra else 1
            nt = list(t)
            for r, dst, intra, cross in msgs:
                sf, rd = self._send_pair(intra, m, t[r], t[dst],
                                         cross=cross)
                if cross:
                    extra = (order[(r, dst)] // self.x_streams) \
                        * self.xcopy(m)
                elif intra:
                    extra = (order[(r, dst)] // self.pool_streams) \
                        * self.copy(m)
                else:
                    extra = (order[(r, dst)] // self.nic_streams) \
                        * (m / self.B)
                sf += extra
                rd += extra
                if sf > nt[r]:
                    nt[r] = sf
                if rd > nt[dst]:
                    nt[dst] = rd
            t = nt
        return max(t)

    def _ring_time(self, node_of: Sequence[int], m: float,
                   phases: int = 1) -> float:
        """Neighbor ring exchange of ``(p - 1) * phases`` rounds with
        per-round blocks of *m* bytes (allgather/allreduce rings).

        The ring is a pipeline, not a sequence of synchronized rounds:
        completion is the worst block's path sum around the ring,
        floored by each memory channel's and NIC's throughput."""
        p = len(node_of)
        if p <= 1 or m < 0:
            return 0.0
        sock_of = self._sock_of if node_of is self._node_of else None
        rounds = (p - 1) * phases
        edges = []
        intra_per_node: Counter = Counter()
        cross_per_node: Counter = Counter()
        has_inter = False
        for r in range(p):
            nxt = (r + 1) % p
            intra = node_of[r] == node_of[nxt]
            cross = self._pair_cross(sock_of, node_of, r, nxt)
            edges.append(self._edge_cost(intra, m, cross=cross))
            if cross:
                cross_per_node[node_of[r]] += 1
            elif intra:
                intra_per_node[node_of[r]] += 1
            else:
                has_inter = True
        path = (sum(edges) - min(edges)) * phases
        k = self._k_of(m)
        c = self.copy(m)
        floor = 0.0
        for cnt in intra_per_node.values():
            f = rounds * cnt * k * c / self.pool_streams + k * c
            if f > floor:
                floor = f
        for cnt in cross_per_node.values():
            f = rounds * cnt * self.xcopy(m) / self.x_streams + self.xcopy(m)
            if f > floor:
                floor = f
        if has_inter:
            f = rounds * (m / self.B) + self.L
            if m > self.eager:
                f += self.rdv
            if f > floor:
                floor = f
        return max(path, floor)

    def _pairwise_time(self, node_of: Sequence[int], m: float,
                       xor: bool = False) -> float:
        """``p - 1`` rounds where rank ``r`` exchanges *m* bytes with
        ``r + s`` (or ``r ^ s``): per-rank uncontended chains, floored
        by channel throughput (rounds desynchronize, so FIFO slots
        pipeline across rounds instead of adding per-round waves)."""
        p = len(node_of)
        if p <= 1:
            return 0.0
        sock_of = self._sock_of if node_of is self._node_of else None
        chains = [0.0] * p
        intra_msgs: Counter = Counter()
        cross_msgs: Counter = Counter()
        nic_tx: Counter = Counter()
        for s in range(1, p):
            # Per-round census of cross-socket sends: concurrent
            # messages wave on each node's xsocket link within the
            # round, so a cross edge in a chain pays the wave factor.
            xconc: Counter = Counter()
            if sock_of is not None:
                for r in range(p):
                    dst = (r ^ s) if xor else (r + s) % p
                    if dst >= p:
                        continue
                    if self._pair_cross(sock_of, node_of, r, dst):
                        xconc[node_of[r]] += 1
            for r in range(p):
                dst = (r ^ s) if xor else (r + s) % p
                if dst >= p:
                    continue
                xw = (math.ceil(xconc[node_of[r]] / self.x_streams) - 1
                      if xconc[node_of[r]] else 0) * self.xcopy(m)
                crossed = self._pair_cross(sock_of, node_of, r, dst)
                send_cost = self._edge_cost(
                    node_of[r] == node_of[dst], m, cross=crossed)
                if crossed:
                    send_cost += xw
                src = (r ^ s) if xor else (r - s) % p
                if src < p:
                    crossed_r = self._pair_cross(sock_of, node_of, r, src)
                    recv_cost = self._edge_cost(
                        node_of[r] == node_of[src], m, cross=crossed_r)
                    if crossed_r:
                        recv_cost += xw
                else:
                    recv_cost = 0.0
                chains[r] += max(send_cost, recv_cost)
                if node_of[r] == node_of[dst]:
                    if self._pair_cross(sock_of, node_of, r, dst):
                        cross_msgs[node_of[r]] += 1
                    else:
                        intra_msgs[node_of[r]] += 1
                else:
                    nic_tx[node_of[r]] += 1
        t = max(chains)
        k = self._k_of(m)
        c = self.copy(m)
        floor = 0.0
        for cnt in intra_msgs.values():
            f = cnt * k * c / self.pool_streams + k * c
            if f > floor:
                floor = f
        for cnt in cross_msgs.values():
            f = cnt * self.xcopy(m) / self.x_streams + self.xcopy(m)
            if f > floor:
                floor = f
        for cnt in nic_tx.values():
            f = cnt * (m / self.B) / self.nic_streams + self.L
            if m > self.eager:
                f += self.rdv
            if f > floor:
                floor = f
        return max(t, floor)

    # -- round censuses ---------------------------------------------------

    def _pairs_round(self, pairs: Iterable[tuple[int, int]],
                     m: float) -> float:
        """Exact completion of one symmetric round given (src, dst) pairs."""
        node_of = self._node_of
        sock_of = self._sock_of
        same: dict[tuple[int, int], int] = {}
        cross: dict[int, int] = {}
        tx: dict[int, int] = {}
        rx: dict[int, int] = {}
        for s_r, d_r in pairs:
            if s_r == d_r:
                continue
            ns, nd = node_of[s_r], node_of[d_r]
            if ns == nd:
                ss, sd = sock_of[s_r], sock_of[d_r]
                if ss == sd:
                    key = (ns, ss)
                    same[key] = same.get(key, 0) + 1
                else:
                    cross[ns] = cross.get(ns, 0) + 1
            else:
                tx[ns] = tx.get(ns, 0) + 1
                rx[nd] = rx.get(nd, 0) + 1
        t = 0.0
        k = self._k_of(m)
        c = self.copy(m)
        for cnt in same.values():
            # All k copies stay on this socket's memory channel.
            waves = max(k, math.ceil(k * cnt / self.mem_streams))
            v = self.shm_lat + waves * c
            if v > t:
                t = v
        for cnt in cross.values():
            # First copies queue on the node's xsocket link; remaining
            # copies spread over the destination sockets' channels.
            v = (self.shm_lat + self.x_lat
                 + math.ceil(cnt / self.x_streams) * self.xcopy(m))
            if k > 1:
                v += max(k - 1,
                         math.ceil((k - 1) * cnt / self.pool_streams)) * c
            if v > t:
                t = v
        conc = 0
        for side in (tx, rx):
            for cnt in side.values():
                if cnt > conc:
                    conc = cnt
        if conc:
            v = self.net_round(m, conc)
            if v > t:
                t = v
        return t

    def xor_round(self, d: int, m: float) -> float:
        """Round where rank ``r`` exchanges *m* bytes with ``r ^ d``."""
        p, q = self.p, self.q
        if d <= 0 or d >= p and self.exact is False:
            pass
        if self.exact:
            pairs = [(r, r ^ d) for r in range(p) if r ^ d < p]
            return self._pairs_round(pairs, m)
        if self.N == 1:
            return self.shm_round(m, p)
        if d >= q:
            return self.net_round(m, q)
        if q % (2 * d) == 0:
            return self.shm_round(m, q)
        # Misaligned node boundary: part of the node crosses over.
        return max(self.shm_round(m, q), self.net_round(m, min(q, 2 * d)))

    def shift_round(self, s: int, m: float, wrap: bool = True) -> float:
        """Round where rank ``r`` sends *m* bytes to ``r + s`` (mod p when
        *wrap*) and receives symmetrically."""
        p, q = self.p, self.q
        k = s % p if wrap else s
        if k == 0:
            return 0.0
        if self.exact:
            if wrap:
                pairs = [(r, (r + k) % p) for r in range(p)]
            else:
                pairs = [(r, r + k) for r in range(p - k)]
            return self._pairs_round(pairs, m)
        k = min(k, p - k) if wrap else k  # census is direction-symmetric
        if self.N == 1:
            return self.shm_round(m, p if wrap else p - k)
        if k >= q:
            return self.net_round(m, q)
        return max(self.shm_round(m, q - k), self.net_round(m, k))

    # -- inner-stage selection (the registry's decision table) ----------

    @property
    def shape(self) -> Shape:
        """The communicator shape this model prices — equal to
        ``comm_shape`` of the simulated world it mirrors."""
        return Shape(self.p, self.N, self.q, self.sockets)

    def table_algo(self, op: str, nbytes: float, root: int = 0) -> str:
        """The algorithm the simulator's decision table dispatches for
        one call of *op* moving *nbytes* (read as :meth:`predict` reads
        it) on the communicator this model prices — from the request
        that op's dispatch builds."""
        n = 0 if op in ("scatter", "barrier") else int(nbytes)
        total = n * self.p if op in _ALLGATHER_FAMILY else n
        req = CollRequest(op, n, total, root if op in _ROOTED else None)
        return table_choice(op, self.shape, req, self.tuning).name

    def _stage_algo(self, op: str, shape: Shape, n: float, total: float,
                    candidates: tuple[str, ...]) -> str:
        """The algorithm the registry's table picks for an inner stage
        over a communicator of *shape* moving *n* bytes per rank
        (*total* overall) — what the simulated stage dispatches."""
        req = CollRequest(op, n, total)
        return table_choice(op, shape, req, self.tuning, candidates).name

    # -- on-node stage evaluators (over q ranks of one node) --------------

    def _tree_round(self, mask: int, q: int,
                    xfree: bool = False) -> tuple[int, int]:
        """(conc, ncross) of one binomial-tree distance-*mask* round
        over *q* on-node slots.  *xfree* marks a socket-internal domain
        (slots live on one socket, so no edge ever crosses)."""
        if self.sockets == 1:
            return max(1, q // (2 * mask)), 0
        pairs = [(r, r + mask)
                 for r in range(0, q, 2 * mask) if r + mask < q]
        if xfree:
            return max(1, len(pairs)), 0
        return max(1, len(pairs)), self._ncross(pairs, q)

    def _shm_gather_binomial(self, n: float, q: int, mult: int = 1,
                             xfree: bool = False) -> float:
        """gather_binomial on a shared-memory comm: per-rank block *n*.
        *mult* concurrent instances share the node (the per-socket
        gathers of the 3-level forms)."""
        t = 0.0
        mask = 1
        while mask < q:
            m = min(mask, max(1, q - mask)) * n
            conc, ncross = self._tree_round(mask, q, xfree)
            t += self.shm_round(m, conc * mult, ncross * mult)
            mask <<= 1
        return t

    def _shm_reduce_binomial(self, n: float, q: int) -> float:
        t = 0.0
        mask = 1
        while mask < q:
            conc, ncross = self._tree_round(mask, q)
            t += self.shm_round(n, conc, ncross)
            mask <<= 1
        return t

    def _shm_bcast_binomial(self, m: float, q: int, mult: int = 1,
                            xfree: bool = False) -> float:
        t = 0.0
        masks = []
        mask = 1
        while mask < q:
            masks.append(mask)
            mask <<= 1
        for mask in reversed(masks):
            conc, ncross = self._tree_round(mask, q, xfree)
            t += self.shm_round(m, conc * mult, ncross * mult)
        return t

    def _ring_ncross(self, q: int) -> int:
        """Cross-socket edge count of the on-node neighbor ring."""
        if self.sockets == 1:
            return 0
        return self._ncross([(r, (r + 1) % q) for r in range(q)], q)

    def _shm_allgather_ring(self, block: float, q: int, mult: int = 1,
                            xfree: bool = False) -> float:
        if q <= 1:
            return 0.0
        ncross = 0 if xfree else self._ring_ncross(q)
        return (q - 1) * self.shm_round(block, q * mult, ncross * mult)

    def _shm_bcast_stage(self, m: float, q: int, mult: int = 1,
                         xfree: bool = False) -> float:
        """On-node release broadcast of *m* bytes (policy-selected);
        *mult* concurrent instances share the node."""
        if q <= 1:
            return 0.0
        node = Shape(q, 1, q, self.sockets)
        if self._stage_algo("bcast", node, m, m, SHM_BCAST) == "binomial":
            return self._shm_bcast_binomial(m, q, mult, xfree)
        # scatter_allgather on-node: binomial scatter + ring allgather.
        block = m / q
        t = 0.0
        masks = []
        mask = 1
        while mask < q:
            masks.append(mask)
            mask <<= 1
        for mask in reversed(masks):
            bundle = min(mask, max(1, q - mask)) * block
            conc, ncross = self._tree_round(mask, q, xfree)
            t += self.shm_round(bundle, conc * mult, ncross * mult)
        t += self._shm_allgather_ring(block, q, mult, xfree)
        return t

    # -- bridge stage evaluators (N leaders, one per node, all inter) -----

    def _bridge_agv(self, block_of: Callable[[int], float], total: float,
                    conc: int = 1, t: float = 0.0) -> float:
        """*t* plus the inter-leader allgatherv (policy-selected for
        *total* bytes) in which a node of ``c`` ranks contributes
        ``block_of(c)`` bytes and *conc* parallel bridges share each
        NIC.  Rounds are added onto *t* one by one, the order callers
        that accumulate a running time are pinned to."""
        N = self.N
        if N <= 1:
            return t
        blocks = [block_of(c) for c, _k in self.classes]
        bridge = Shape(N, N, 1, self.sockets)
        if self._stage_algo("allgatherv", bridge, total / N, total,
                            BRIDGE_ALLGATHERV) == "bruck_v":
            avg = sum(self._per_node(blocks)) / N
            pof = 1
            while pof < N:
                t += self.net_round(min(pof, N - pof) * avg, conc)
                pof <<= 1
            return t
        times = [self.net_round(b, conc) for b in blocks]
        return t + (sum(self._per_node(times)) - min(times))

    def _bridge_bcast(self, n: float, nnodes: int) -> float:
        if nnodes <= 1:
            return 0.0
        bridge = Shape(nnodes, nnodes, 1, self.sockets)
        algo = self._stage_algo("bcast", bridge, n, n, BRIDGE_BCAST)
        if algo == "binomial":
            if nnodes <= self.exact_limit:
                # Leaders sit on distinct nodes: all-inter DP tree.
                return self._dp_down_tree(list(range(nnodes)),
                                          lambda cnt: n)
            return _ceil_log2(nnodes) * self.net_round(n, 1)
        if algo == "pipeline":
            chunk = max(1, self.tuning.bcast_pipeline_chunk)
            c = min(n, chunk)
            chunks = max(1, math.ceil(n / chunk))
            return ((nnodes - 1) * self.net_round(c, 1)
                    + (chunks - 1) * (c / self.B))
        # scatter_allgather over the bridge.
        block = n / nnodes
        t = 0.0
        masks = []
        mask = 1
        while mask < nnodes:
            masks.append(mask)
            mask <<= 1
        for mask in reversed(masks):
            bundle = min(mask, max(1, nnodes - mask)) * block
            t += self.net_round(bundle, 1)
        t += (nnodes - 1) * self.net_round(block, 1)
        return t

    def _bridge_allreduce(self, n: float, nnodes: int) -> float:
        if nnodes <= 1:
            return 0.0
        bridge = Shape(nnodes, nnodes, 1, self.sockets)
        algo = self._stage_algo("allreduce", bridge, n, n, BRIDGE_ALLREDUCE)
        if algo == "recursive_doubling":
            return _ceil_log2(nnodes) * self.net_round(n, 1)
        if algo == "rabenseifner":
            t = 0.0
            m = n / 2.0
            d = nnodes // 2
            while d >= 1:
                t += self.net_round(m, 1)
                m /= 2.0
                d //= 2
            m = n / nnodes
            d = 1
            while d < nnodes:
                t += self.net_round(m * d, 1)
                d <<= 1
            return t
        return 2 * (nnodes - 1) * self.net_round(n / nnodes, 1)

    # -- dispatch overheads ----------------------------------------------

    def _dispatch_overhead(self, op: str) -> float:
        if op == "barrier" or op.startswith("hy_"):
            return 0.0  # charged inside the evaluators where applicable
        oh = self.tuning.call_overhead
        if op in ("allgatherv", "gatherv"):
            oh += self.tuning.vector_block_overhead * self.p
        return oh

    # ------------------------------------------------------------------
    # Per-algorithm forms (latency of the dispatched collective, i.e.
    # max completion over ranks from a barrier-aligned start)
    # ------------------------------------------------------------------

    # allgather family ----------------------------------------------------

    def _t_ag_rd(self, n, total, root):
        t = 0.0
        d = 1
        k = 0
        while d < self.p:
            t += self.xor_round(d, n * (1 << k))
            d <<= 1
            k += 1
        return t

    def _t_ag_bruck(self, n, total, root):
        t = 0.0
        pof = 1
        while pof < self.p:
            cnt = min(pof, self.p - pof)
            t += self.shift_round(pof, cnt * n)
            pof <<= 1
        return t

    def _ring_arith(self, m: float, phases: int) -> float:
        """O(1) ring-pipeline form for large uniform placements."""
        p, N, q = self.p, self.N, self.q
        if p <= 1:
            return 0.0
        rounds = (p - 1) * phases
        ei = self._edge_cost(True, m)
        k = self._k_of(m)
        c = self.copy(m)
        if N == 1:
            path = (p * ei - ei) * phases
            floor = rounds * p * k * c / self.pool_streams + k * c
            return max(path, floor)
        ee = self._edge_cost(False, m)
        path = ((p - N) * ei + N * ee - min(ei, ee)) * phases
        floor = rounds * max(0, q - 1) * k * c / self.pool_streams + k * c
        nic = rounds * (m / self.B) + self.L
        if m > self.eager:
            nic += self.rdv
        return max(path, floor, nic)

    def _t_ag_ring(self, n, total, root):
        if self.exact:
            return self._ring_time(self._node_of, n)
        return self._ring_arith(n, 1)

    def _t_agv_gather_bcast(self, n, total, root):
        # gather_binomial then bcast_binomial of the concatenation —
        # direct calls, no inner dispatch overhead.
        t = self._t_gather_binomial(n, total, root)
        t += self._t_bcast_binomial(total, total, root)
        return t

    def _t_ag_smp(self, n, total, root):
        q, N = self.q, self.N
        t = 0.0
        if q > 1:
            t += self._shm_gather_binomial(n, q)
        if N > 1:
            t += self.tuning.vector_block_overhead * N
            t += self._bridge_agv(lambda c: c * n, total)
        t += self._shm_bcast_stage(total, q)
        return t

    def _t_ag_multileader(self, n, total, root):
        q, N = self.q, self.N
        k = max(1, min(self.tuning.multileader_k, q))
        q_slice = math.ceil(q / k)
        t = 0.0
        if q_slice > 1:
            # k slice gathers run concurrently on each node's memory.
            mask = 1
            while mask < q_slice:
                m = min(mask, max(1, q_slice - mask)) * n
                conc = max(1, q_slice // (2 * mask)) * k
                t += self.shm_round(m, conc)
                mask <<= 1
        if N > 1:
            # k parallel bridges, each moving a slice of the node block.
            t += self.tuning.vector_block_overhead * N
            t = self._bridge_agv(lambda c: math.ceil(c / k) * n, total, k, t)
        if k > 1:
            # Leaders merge their bridge results on-node (ring allgather).
            slots = [min(i * q_slice, q - 1) for i in range(k)]
            ring = [(slots[i], slots[(i + 1) % k]) for i in range(k)]
            t += (k - 1) * self.shm_round(total / k, k,
                                          self._ncross(ring, q))
        t += self._shm_bcast_stage(total, q_slice)
        return t

    def _t_ag_smp3(self, n, total, root):
        """allgather/smp_3level: socket gathers, cross-socket leader
        gather, bridge exchange, cross-socket leader bcast, socket
        bcasts.  The socket-internal stages run ``S`` instances
        concurrently (one per socket); the leader stages move whole
        socket blocks over the xsocket link."""
        q, N, S = self.q, self.N, self.sockets
        qs = max(1, math.ceil(q / S))
        t = 0.0
        if qs > 1:
            t += self._shm_gather_binomial(n, qs, mult=S, xfree=True)
        # Socket leaders gather blocks to the node leader — every edge
        # crosses sockets (one leader per socket).
        mask = 1
        while mask < S:
            m = min(mask, max(1, S - mask)) * qs * n
            conc = max(1, S // (2 * mask))
            t += self.shm_round(m, conc, ncross=conc)
            mask <<= 1
        if N > 1:
            t += self.tuning.vector_block_overhead * N
            t += self._bridge_agv(lambda c: c * n, total)
        # Node leader releases the full result back across sockets
        # (binomial over the S leaders; S <= 2 in every preset, where
        # the table always picks binomial).
        masks = []
        mask = 1
        while mask < S:
            masks.append(mask)
            mask <<= 1
        for mask in reversed(masks):
            conc = max(1, S // (2 * mask))
            t += self.shm_round(total, conc, ncross=conc)
        t += self._shm_bcast_stage(total, qs, mult=S, xfree=True)
        return t

    # bcast ---------------------------------------------------------------

    def _t_bcast_binomial(self, n, total, root):
        p, q, N = self.p, self.q, self.N
        if self.exact:
            return self._dp_down_tree(self._node_of, lambda cnt: n,
                                      sock_of=self._sock_of)
        t = 0.0
        masks = []
        mask = 1
        while mask < p:
            masks.append(mask)
            mask <<= 1
        for mask in reversed(masks):
            if N > 1 and mask >= q:
                t += self.net_round(n, 1)
            else:
                conc = max(1, min(q, p) // (2 * mask)) if mask < q else 1
                t += self.shm_round(n, conc)
        return t

    def _t_bcast_scatter_allgather(self, n, total, root):
        p, q, N = self.p, self.q, self.N
        block = n / p
        if self.exact:
            return (self._dp_down_tree(self._node_of,
                                       lambda cnt: cnt * block,
                                       sock_of=self._sock_of)
                    + self._ring_time(self._node_of, block))
        t = 0.0
        masks = []
        mask = 1
        while mask < p:
            masks.append(mask)
            mask <<= 1
        for mask in reversed(masks):
            bundle = min(mask, max(1, p - mask)) * block
            if N > 1 and mask >= q:
                t += self.net_round(bundle, 1)
            else:
                conc = max(1, min(q, p) // (2 * mask)) if mask < q else 1
                t += self.shm_round(bundle, conc)
        t += self._ring_arith(block, 1)
        return t

    def _t_bcast_pipeline(self, n, total, root):
        p, N = self.p, self.N
        chunk = max(1, self.tuning.bcast_pipeline_chunk)
        c = min(n, chunk)
        chunks = max(1, math.ceil(n / chunk))
        # Fill: the first chunk rides the whole chain.
        fill = ((p - N) * self.shm_round(c, 1)
                + (N - 1) * self.net_round(c, 1))
        # Steady state: per-chunk interval of the slowest stage.  On a
        # node hosting q forwarding ranks each chunk transits 2q staged
        # copies through the shared memory system.
        steady_intra = 0.0
        if self.q > 1 or N == 1:
            per_msg = self._k_of(c)
            copies = per_msg * max(1, self.q - (0 if N > 1 else 1))
            waves = max(per_msg, math.ceil(copies / self.pool_streams))
            steady_intra = waves * self.copy(c)
        steady_net = c / self.B if N > 1 else 0.0
        steady = max(steady_intra, steady_net)
        # Zero-byte terminator chases the last chunk down the chain.
        term = self.shm_lat if N == 1 else self.L
        return fill + (chunks - 1) * steady + term

    def _t_bcast_smp(self, n, total, root):
        t = self._bridge_bcast(n, self.N)
        t += self._shm_bcast_stage(n, self.q)
        return t

    # gather / scatter ----------------------------------------------------

    def _t_gather_binomial(self, n, total, root):
        p, q, N = self.p, self.q, self.N
        if self.exact:
            return self._dp_up_tree(self._node_of, lambda cnt: cnt * n,
                                    sock_of=self._sock_of)
        t = 0.0
        mask = 1
        while mask < p:
            m = min(mask, max(1, p - mask)) * n
            if N > 1 and mask >= q:
                t += self.net_round(m, 1)
            else:
                conc = max(1, min(q, p) // (2 * mask)) if mask < q else 1
                t += self.shm_round(m, conc)
            mask <<= 1
        return t

    def _t_gather_linear(self, n, total, root):
        p, N = self.p, self.N
        q_root = self.classes[0][0]
        t = 0.0
        if q_root > 1:
            xl = self._ncross([(0, s) for s in range(1, q_root)], q_root)
            t = self.shm_round(n, q_root - 1, xl)
        if N > 1:
            t = max(t, self.net_round(n, p - q_root))
        return t

    def _t_scatter_binomial(self, n, total, root):
        p, q, N = self.p, self.q, self.N
        if self.exact:
            return self._dp_down_tree(self._node_of, lambda cnt: cnt * n,
                                      sock_of=self._sock_of)
        t = 0.0
        masks = []
        mask = 1
        while mask < p:
            masks.append(mask)
            mask <<= 1
        for mask in reversed(masks):
            m = min(mask, max(1, p - mask)) * n
            if N > 1 and mask >= q:
                t += self.net_round(m, 1)
            else:
                conc = max(1, min(q, p) // (2 * mask)) if mask < q else 1
                t += self.shm_round(m, conc)
        return t

    def _t_scatter_linear(self, n, total, root):
        return self._t_gather_linear(n, total, root)

    # reductions ----------------------------------------------------------

    def _t_reduce_binomial(self, n, total, root):
        p, q, N = self.p, self.q, self.N
        if self.exact:
            return self._dp_up_tree(self._node_of, lambda cnt: n,
                                    sock_of=self._sock_of)
        t = 0.0
        mask = 1
        while mask < p:
            if N > 1 and mask >= q:
                t += self.net_round(n, 1)
            else:
                conc = max(1, min(q, p) // (2 * mask)) if mask < q else 1
                t += self.shm_round(n, conc)
            mask <<= 1
        return t

    def _t_reduce_smp(self, n, total, root):
        t = self._shm_reduce_binomial(n, self.q)
        if self.N > 1:
            if self.N <= self.exact_limit:
                t += self._dp_up_tree(list(range(self.N)), lambda cnt: n)
            else:
                t += _ceil_log2(self.N) * self.net_round(n, 1)
        return t

    def _t_ar_rd(self, n, total, root):
        p = self.p
        pof2 = 1 << (p.bit_length() - 1)
        rem = p - pof2
        t = 0.0
        if rem:
            if self.exact:
                t += self._pairs_round([(2 * i, 2 * i + 1)
                                        for i in range(rem)], n)
            else:
                t += self.shm_round(n, max(1, min(rem, self.q // 2)))
        if pof2 > 1:
            if self.exact and rem:
                core = ([2 * i + 1 for i in range(rem)]
                        + list(range(2 * rem, p)))
                d = 1
                while d < pof2:
                    pairs = [(core[i], core[i ^ d]) for i in range(pof2)]
                    t += self._pairs_round(pairs, n)
                    d <<= 1
            else:
                d = 1
                while d < pof2:
                    t += self.xor_round(d, n)
                    d <<= 1
        if rem:
            # Unfold mirrors the fold.
            if self.exact:
                t += self._pairs_round([(2 * i + 1, 2 * i)
                                        for i in range(rem)], n)
            else:
                t += self.shm_round(n, max(1, min(rem, self.q // 2)))
        return t

    def _t_ar_rabenseifner(self, n, total, root):
        p = self.p
        if not _is_pof2(p):
            return self._t_ar_rd(n, total, root)
        t = 0.0
        m = n / 2.0
        d = p // 2
        while d >= 1:
            t += self.xor_round(d, m)
            m /= 2.0
            d //= 2
        block = n / p
        d = 1
        while d < p:
            t += self.xor_round(d, block * d)
            d <<= 1
        return t

    def _t_ar_ring(self, n, total, root):
        if self.exact:
            return self._ring_time(self._node_of, n / self.p, phases=2)
        return self._ring_arith(n / self.p, 2)

    def _t_ar_smp(self, n, total, root):
        t = self._shm_reduce_binomial(n, self.q)
        t += self._bridge_allreduce(n, self.N)
        t += self._shm_bcast_stage(n, self.q)
        return t

    def _t_rs_halving(self, n, total, root):
        p = self.p
        if not _is_pof2(p):
            return self._t_rs_pairwise(n, total, root)
        t = 0.0
        m = n / 2.0
        d = p // 2
        while d >= 1:
            t += self.xor_round(d, m)
            m /= 2.0
            d //= 2
        return t

    def _t_rs_pairwise(self, n, total, root):
        p, q = self.p, self.q
        block = n / p
        if self.exact:
            return self._pairwise_time(self._node_of, block)
        if self.N == 1:
            return (p - 1) * self.shm_round(block, p)
        t = 0.0
        for s in range(1, min(q, p)):
            t += max(self.shm_round(block, q - s), self.net_round(block, s))
        if p > q:
            t += (p - q) * self.net_round(block, q)
        return t

    def _t_scan_linear(self, n, total, root):
        if self.exact:
            t = 0.0
            sock_of = self._sock_of
            for r in range(self.p - 1):
                if self._node_of[r] == self._node_of[r + 1]:
                    x = (1 if sock_of is not None
                         and sock_of[r] != sock_of[r + 1] else 0)
                    t += self.shm_round(n, 1, x)
                else:
                    t += self.net_round(n, 1)
            return t
        return ((self.p - self.N) * self.shm_round(n, 1)
                + (self.N - 1) * self.net_round(n, 1))

    def _t_scan_binomial(self, n, total, root):
        dists = []
        d = 1
        while d < self.p:
            dists.append(d)
            d <<= 1
        if self.exact:
            return self._dp_shift(self._node_of, dists, n, wrap=False,
                                  sock_of=self._sock_of)
        return sum(self.shift_round(d, n, wrap=False) for d in dists)

    _t_exscan_binomial = _t_scan_binomial

    # alltoall ------------------------------------------------------------

    def _t_a2a_bruck(self, n, total, root):
        p = self.p
        t = 0.0
        k = 0
        pof = 1
        while pof < p:
            if self.exact:
                cnt = sum((j >> k) & 1 for j in range(p))
            else:
                cnt = p // 2
            t += self.shift_round(pof, cnt * n)
            pof <<= 1
            k += 1
        return t

    def _t_a2a_pairwise(self, n, total, root):
        p, q = self.p, self.q
        if self.exact:
            return self._pairwise_time(self._node_of, n, xor=_is_pof2(p))
        if _is_pof2(p):
            if self.N == 1:
                return (p - 1) * self.shm_round(n, p)
            intra_shifts = min(q, p) - 1
            return (intra_shifts * self.shm_round(n, q)
                    + (p - 1 - intra_shifts) * self.net_round(n, q))
        if self.N == 1:
            return (p - 1) * self.shm_round(n, p)
        t = 0.0
        for s in range(1, min(q, p)):
            t += max(self.shm_round(n, q - s), self.net_round(n, s))
        if p > q:
            t += (p - q) * self.net_round(n, q)
        return t

    # barrier -------------------------------------------------------------

    def _shm_flags(self, q: int) -> float:
        t = self.tuning
        rounds = max(1, math.ceil(math.log2(max(q, 2))))
        return t.shm_barrier_base + rounds * t.shm_barrier_flag

    def _t_barrier_shm_flags(self, n, total, root):
        return self._shm_flags(self.p)

    def _t_barrier_dissemination(self, n, total, root):
        t = self.tuning.call_overhead
        if self.p == 1:
            return t
        dists = []
        d = 1
        while d < self.p:
            dists.append(d)
            d <<= 1
        if self.exact:
            return t + self._dp_shift(self._node_of, dists, 0.0,
                                      wrap=True, sock_of=self._sock_of)
        return t + sum(self.shift_round(d, 0.0) for d in dists)

    def _t_barrier_smp(self, n, total, root):
        t = 0.0
        if self.q > 1:
            t += self._shm_flags(self.q)
        if self.N > 1:
            d = 1
            while d < self.N:
                t += self.net_round(0.0, 1)
                d <<= 1
        if self.q > 1:
            t += self.tuning.shm_barrier_flag  # release flag store
        return t

    # hybrid MPI+MPI ------------------------------------------------------

    def _t_hy_ag_shared_window(self, n, total, root):
        if self.N == 1:
            return self._shm_flags(self.q)
        t = 2 * self._shm_flags(self.q)
        t += self.tuning.call_overhead
        t += self.tuning.vector_block_overhead * self.N
        t += self._bridge_agv(lambda c: c * n, total)
        return t

    def _t_hy_ag_pipelined(self, n, total, root):
        if self.N == 1:
            return self._shm_flags(self.q)
        t = 2 * self._shm_flags(self.q)
        chunk = 128 * 1024
        blocks = [c * n for c, _k in self.classes]
        chunk_counts = [max(1, math.ceil(b / chunk)) for b in blocks]
        c = min(max(blocks), chunk)
        tot_chunks = sum(cc * k for cc, k in
                         zip(chunk_counts, self._class_sizes))
        fill = (self.N - 1) * self.net_round(c, 1)
        steady = max(0, tot_chunks - min(chunk_counts) - (self.N - 2)) \
            * (c / self.B)
        return t + fill + steady

    def _t_hy_bcast_shared_window(self, n, total, root):
        t = 0.0
        if self.N > 1:
            t += self.tuning.call_overhead
            t += self._bridge_bcast(n, self.N)
        t += self._shm_flags(self.q)
        return t

    def _t_hy_ag_shared_window_3l(self, n, total, root):
        """hy_allgather/shared_window_3l: the two-level sync envelope
        plus ``S`` per-socket bridges exchanging socket blocks in
        parallel (sharing the NIC), closed by the socket-leader
        completion round."""
        if self.N == 1:
            return self._shm_flags(self.q)
        S = max(1, self.sockets)
        t = 2 * self._shm_flags(self.q)
        t += self.tuning.call_overhead
        t += self.tuning.vector_block_overhead * self.N
        t = self._bridge_agv(lambda c: math.ceil(c / S) * n, total / S, S, t)
        if S > 1:
            # Socket leaders report completion to the node leader.
            t += self.shm_round(0.0, S - 1, ncross=S - 1)
        return t


#: (op, algo) -> evaluator method name.  Every registered algorithm of
#: the collective registry has an entry; the conformance suite asserts
#: this stays true.
MODEL_FORMS: Mapping[tuple[str, str], str] = {
    ("allgather", "recursive_doubling"): "_t_ag_rd",
    ("allgather", "bruck"): "_t_ag_bruck",
    ("allgather", "ring"): "_t_ag_ring",
    ("allgather", "smp_hierarchical"): "_t_ag_smp",
    ("allgather", "multileader"): "_t_ag_multileader",
    ("allgather", "smp_3level"): "_t_ag_smp3",
    ("allgatherv", "bruck_v"): "_t_ag_bruck",
    ("allgatherv", "ring_v"): "_t_ag_ring",
    ("allgatherv", "gather_bcast"): "_t_agv_gather_bcast",
    ("allgatherv", "smp_hierarchical"): "_t_ag_smp",
    ("bcast", "binomial"): "_t_bcast_binomial",
    ("bcast", "scatter_allgather"): "_t_bcast_scatter_allgather",
    ("bcast", "pipeline"): "_t_bcast_pipeline",
    ("bcast", "smp_hierarchical"): "_t_bcast_smp",
    ("gather", "binomial"): "_t_gather_binomial",
    ("gather", "linear"): "_t_gather_linear",
    ("gatherv", "binomial"): "_t_gather_binomial",
    ("gatherv", "linear"): "_t_gather_linear",
    ("scatter", "binomial"): "_t_scatter_binomial",
    ("scatter", "linear"): "_t_scatter_linear",
    ("reduce", "binomial"): "_t_reduce_binomial",
    ("reduce", "smp_hierarchical"): "_t_reduce_smp",
    ("allreduce", "recursive_doubling"): "_t_ar_rd",
    ("allreduce", "rabenseifner"): "_t_ar_rabenseifner",
    ("allreduce", "ring"): "_t_ar_ring",
    ("allreduce", "smp_hierarchical"): "_t_ar_smp",
    ("reduce_scatter", "recursive_halving"): "_t_rs_halving",
    ("reduce_scatter", "pairwise"): "_t_rs_pairwise",
    ("scan", "linear"): "_t_scan_linear",
    ("scan", "binomial"): "_t_scan_binomial",
    ("exscan", "binomial"): "_t_exscan_binomial",
    ("alltoall", "bruck"): "_t_a2a_bruck",
    ("alltoall", "pairwise"): "_t_a2a_pairwise",
    ("barrier", "shm_flags"): "_t_barrier_shm_flags",
    ("barrier", "smp_hierarchical"): "_t_barrier_smp",
    ("barrier", "dissemination"): "_t_barrier_dissemination",
    ("hy_allgather", "shared_window"): "_t_hy_ag_shared_window",
    ("hy_allgather", "pipelined_ring"): "_t_hy_ag_pipelined",
    ("hy_allgather", "shared_window_3l"): "_t_hy_ag_shared_window_3l",
    ("hy_bcast", "shared_window"): "_t_hy_bcast_shared_window",
}

_ALLGATHER_FAMILY = frozenset({"allgather", "allgatherv", "hy_allgather"})
_ROOTED = frozenset({"bcast", "gather", "gatherv", "scatter", "reduce",
                     "hy_bcast"})


def _predict_impl(model: CostModel, op: str, algo: str, nbytes: float,
                  total: float | None, root: int) -> float:
    try:
        method = MODEL_FORMS[(op, algo)]
    except KeyError:
        raise KeyError(
            f"no analytic form for ({op!r}, {algo!r}); known ops: "
            f"{sorted({o for o, _a in MODEL_FORMS})}"
        ) from None
    n = float(nbytes)
    if total is None:
        total = n * model.p if op in _ALLGATHER_FAMILY else n
    t = getattr(model, method)(n, float(total), root)
    return t + model._dispatch_overhead(op)


def _model_predict(self: CostModel, op: str, algo: str, nbytes: float,
                   total: float | None = None, root: int = 0) -> float:
    """Latency (seconds) of one dispatched (op, algo) collective call."""
    key = (op, algo, float(nbytes), total, root)
    hit = self._memo.get(key)
    if hit is None:
        hit = self._memo[key] = _predict_impl(self, op, algo, nbytes,
                                              total, root)
    return hit


CostModel.predict = _model_predict


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------

def _resolve_spec(machine, num_nodes: int):
    """Accept a MachineSpec, a Machine, or a preset name."""
    if isinstance(machine, str):
        from repro.machine import presets, testing_machine

        if machine == "testing":
            return testing_machine(num_nodes=num_nodes)
        factory = getattr(presets, machine, None)
        if factory is None:
            raise ValueError(f"unknown machine preset {machine!r}")
        return factory(num_nodes)
    spec = getattr(machine, "spec", machine)
    return spec


def _counts_of(nranks: int, ppn) -> tuple[int, ...]:
    if not isinstance(ppn, int):
        counts = tuple(map(int, ppn))
        if sum(counts) != nranks:
            raise ValueError(
                f"per-node counts {counts} sum to {sum(counts)}, "
                f"expected nranks={nranks}"
            )
        return counts
    if ppn < 1 or nranks < 1:
        raise ValueError("nranks and ppn must be >= 1")
    full, rem = divmod(nranks, ppn)
    return tuple([ppn] * full + ([rem] if rem else []))


def predict(machine, topology, op: str, algo: str, nranks: int, ppn,
            nbytes: float, *, tuning: CollectiveTuning | None = None,
            root: int = 0, socket_mode: str = "compact") -> float:
    """Closed-form latency (seconds) of one collective call.

    Parameters mirror the simulator's configuration: *machine* is a
    :class:`~repro.machine.model.MachineSpec` (or Machine, or preset
    name ``"hazel_hen"``/``"vulcan"``/``"testing"``), *topology* a
    Topology instance, kind string, or None for the spec default, *ppn*
    either a uniform ranks-per-node int or explicit per-node counts, and
    *nbytes* the per-rank payload (the rooted message size for rooted
    collectives, the per-rank block for the allgather family).
    """
    counts = _counts_of(nranks, ppn)
    spec = _resolve_spec(machine, len(counts))
    model = CostModel(spec, counts, tuning=tuning, topology=topology,
                      socket_mode=socket_mode)
    return model.predict(op, algo, nbytes, root=root)


def predict_overlap(machine, topology, op: str, algo: str, nranks: int, ppn,
                    nbytes: float, *, compute_s: float | None = None,
                    tuning: CollectiveTuning | None = None,
                    root: int = 0,
                    socket_mode: str = "compact") -> dict[str, float]:
    """Overlap-aware effective latency of a *non-blocking* collective.

    The simulator's progress model lets a posted collective advance in
    virtual time while the issuing rank computes; the closed-form
    equivalent splits the blocking prediction ``t_coll`` into an
    **α-floor** — the latency at a minimal (1-byte) payload, the
    issue/synchronization portion a rank cannot hide — and a hideable
    bandwidth part.  With a compute grain of ``compute_s`` seconds
    (default ``t_coll``, the OSU overlap-benchmark protocol)::

        exposed = floor + max(0, (t_coll - floor) - compute_s)
        hidden  = t_coll - exposed

    Returns ``{"total_s", "exposed_s", "hidden_s", "compute_s",
    "overlap_pct"}``.  The floor makes the model slightly conservative
    versus the simulator (which hides even the α term when the grain is
    large enough); the conformance suite therefore pins only blocking
    predictions.

    >>> out = predict_overlap("testing", None, "allgather", "ring",
    ...                       8, 8, 64 * 1024)
    >>> 0.0 <= out["exposed_s"] <= out["total_s"]
    True
    >>> out["overlap_pct"] > 0
    True
    """
    t_coll = predict(machine, topology, op, algo, nranks, ppn, nbytes,
                     tuning=tuning, root=root, socket_mode=socket_mode)
    floor = predict(machine, topology, op, algo, nranks, ppn, 1.0,
                    tuning=tuning, root=root, socket_mode=socket_mode)
    floor = min(floor, t_coll)
    grain = t_coll if compute_s is None else compute_s
    exposed = floor + max(0.0, (t_coll - floor) - grain)
    hidden = t_coll - exposed
    return {
        "total_s": t_coll,
        "exposed_s": exposed,
        "hidden_s": hidden,
        "compute_s": grain,
        "overlap_pct": 100.0 * hidden / t_coll if t_coll > 0 else 0.0,
    }


def model_for_comm(comm) -> CostModel:
    """The (cached) :class:`CostModel` matching *comm*'s machine,
    placement, and tuning."""
    cache = comm.shared_cache
    model = cache.get("_cost_model")
    if model is None:
        placement = comm.ctx.placement
        by_node: dict[int, int] = {}
        for w in comm.group.world_ranks():
            node = placement.node_of(w)
            by_node[node] = by_node.get(node, 0) + 1
        node_ids = sorted(by_node)
        counts = tuple(by_node[n] for n in node_ids)
        machine = comm.ctx.machine
        model = cache["_cost_model"] = CostModel(
            machine.spec, counts, tuning=comm.ctx.tuning,
            topology=machine.network.topology, node_ids=node_ids,
            socket_mode=placement.socket_mode,
        )
    return model


def predict_comm(comm, req, algo_name: str) -> float:
    """Registry hook: model latency of *algo_name* answering *req* on
    *comm* (used by ``Algorithm.cost`` / :class:`CostModelSelection`)."""
    model = model_for_comm(comm)
    op = req.op
    if op in _ALLGATHER_FAMILY:
        n = req.total / max(model.p, 1)
        total = req.total
    else:
        n = req.nbytes
        total = req.total if req.total else req.nbytes
    return model.predict(op, algo_name, n, total=total,
                         root=req.root or 0)


def crossover_points(xs: Sequence[float], ya: Sequence[float],
                     yb: Sequence[float]) -> list[float]:
    """X positions where series *ya* and *yb* cross (log-linear
    interpolation between samples) — e.g. message sizes where the hybrid
    allgather overtakes the pure-MPI one in a Fig 7/9/10-style sweep."""
    if not (len(xs) == len(ya) == len(yb)):
        raise ValueError("xs, ya, yb must have equal length")
    crossings: list[float] = []
    for i in range(1, len(xs)):
        d0 = ya[i - 1] - yb[i - 1]
        d1 = ya[i] - yb[i]
        if d0 == 0.0:
            crossings.append(xs[i - 1])
            continue
        if d0 * d1 < 0.0:
            x0, x1 = xs[i - 1], xs[i]
            if x0 > 0 and x1 > 0:
                lx0, lx1 = math.log(x0), math.log(x1)
                frac = d0 / (d0 - d1)
                crossings.append(math.exp(lx0 + frac * (lx1 - lx0)))
            else:
                crossings.append(x0 + (x1 - x0) * d0 / (d0 - d1))
    return crossings
