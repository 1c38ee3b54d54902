"""Inter-node network cost model.

The model is a Hockney (alpha-beta) formulation extended with per-hop
router latency and endpoint NIC contention:

.. math::

    T(n, h) = \\alpha + h \\cdot t_{hop} + n / B

where ``alpha`` is the software/injection latency, ``h`` the router hop
count from the :class:`~repro.machine.topology.Topology`, and ``B`` the
point-to-point bandwidth.  The bandwidth term is *contended*: each
endpoint NIC is a :class:`~repro.simulator.BandwidthChannel`, so a node
sending to (or receiving from) many peers serializes — which is exactly
what penalizes flat (non-hierarchical) collectives at scale and what the
paper's leader-based designs avoid.  Router-graph links carry no
bandwidth state: the topology contributes hop counts only.  The
messages themselves are driven by :mod:`repro.mpi.p2p`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.topology import FlatTopology, Topology
from repro.simulator import BandwidthChannel, Engine

__all__ = ["NetworkSpec", "NetworkModel"]


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative network parameters.

    Attributes
    ----------
    alpha:
        Base one-way latency in seconds (software + injection).
    hop_latency:
        Additional latency per router hop, seconds.
    bandwidth:
        Point-to-point sustainable bandwidth, bytes/second.
    nic_streams:
        Concurrent full-rate streams one NIC sustains (Aries: ~2).
    eager_threshold:
        Messages at or below this many bytes use the eager protocol (no
        rendezvous round-trip).
    rendezvous_overhead:
        Extra latency, seconds, for the rendezvous handshake of large
        messages (one extra round trip: ~2*alpha by default at build
        time if left at 0 and the caller doesn't override).
    per_byte_packing:
        Per-byte CPU cost of non-contiguous datatype packing (used by the
        derived-datatype placement fallback, paper §6).
    """

    alpha: float = 1.5e-6
    hop_latency: float = 1.0e-7
    bandwidth: float = 8.0e9
    nic_streams: int = 2
    eager_threshold: int = 8192
    rendezvous_overhead: float = 0.0
    per_byte_packing: float = 2.5e-11

    @property
    def beta(self) -> float:
        """Seconds/byte of point-to-point serialization
        (``1 / bandwidth``) — the link beta term of the analytic model
        (:mod:`repro.analysis.model`)."""
        return 1.0 / self.bandwidth

    def one_way_latency(self, hops: int = 0) -> float:
        """One-way message latency over *hops* router hops
        (``alpha + hops * hop_latency``) — the model's ``L`` term,
        mirroring :meth:`NetworkModel.latency`."""
        return self.alpha + hops * self.hop_latency

    def rendezvous_latency_for(self, hops: int = 0) -> float:
        """Handshake cost of one rendezvous transfer over *hops* hops,
        mirroring :meth:`NetworkModel.rendezvous_latency`."""
        if self.rendezvous_overhead > 0:
            return self.rendezvous_overhead
        return 2.0 * self.one_way_latency(hops)

    def validate(self) -> None:
        if self.alpha < 0 or self.hop_latency < 0:
            raise ValueError("latencies must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.nic_streams < 1:
            raise ValueError("nic_streams must be >= 1")
        if self.eager_threshold < 0:
            raise ValueError("eager_threshold must be non-negative")


@dataclass
class NetworkStats:
    """Network traffic counters, incremented as each message lands."""

    messages: int = 0
    bytes: float = 0.0


class NetworkModel:
    """Runtime network: owns the NIC channels and the traffic counters.

    Parameters
    ----------
    engine:
        The simulation engine.
    spec:
        Static parameters.
    topology:
        Hop-count provider; defaults to a 2-hop :class:`FlatTopology`.
    num_nodes:
        Number of compute nodes (NIC endpoints to create).
    """

    def __init__(
        self,
        engine: Engine,
        spec: NetworkSpec,
        num_nodes: int,
        topology: Topology | None = None,
    ):
        spec.validate()
        self.engine = engine
        self.spec = spec
        self.topology = topology or FlatTopology(num_nodes)
        if self.topology.num_nodes < num_nodes:
            raise ValueError(
                f"topology supports {self.topology.num_nodes} nodes, "
                f"machine has {num_nodes}"
            )
        self.num_nodes = num_nodes
        # spec.bandwidth is the point-to-point per-stream rate; the NIC
        # sustains nic_streams such streams before transfers queue.
        nic_aggregate = spec.bandwidth * spec.nic_streams
        self._tx = [
            BandwidthChannel(
                engine, nic_aggregate, spec.nic_streams, name=f"nic{t}.tx"
            )
            for t in range(num_nodes)
        ]
        self._rx = [
            BandwidthChannel(
                engine, nic_aggregate, spec.nic_streams, name=f"nic{t}.rx"
            )
            for t in range(num_nodes)
        ]
        self.stats = NetworkStats()

    # ------------------------------------------------------------------
    def latency(self, src_node: int, dst_node: int) -> float:
        """Pure latency component between two nodes."""
        hops = self.topology.hops(src_node, dst_node)
        return self.spec.alpha + hops * self.spec.hop_latency

    def uncontended_time(self, src_node: int, dst_node: int, nbytes: float) -> float:
        """Analytic transfer time ignoring contention (for assertions)."""
        t = self.latency(src_node, dst_node)
        if nbytes > self.spec.eager_threshold:
            t += self.rendezvous_latency(src_node, dst_node)
        return t + nbytes / self.spec.bandwidth

    def rendezvous_latency(self, src_node: int, dst_node: int) -> float:
        """Handshake cost for a rendezvous (large-message) transfer."""
        if self.spec.rendezvous_overhead > 0:
            return self.spec.rendezvous_overhead
        return 2.0 * self.latency(src_node, dst_node)

    def nic_tx(self, node: int) -> BandwidthChannel:
        """The transmit channel of *node* (for instrumentation/tests)."""
        return self._tx[node]

    def nic_rx(self, node: int) -> BandwidthChannel:
        """The receive channel of *node* (for instrumentation/tests)."""
        return self._rx[node]
