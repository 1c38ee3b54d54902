"""Node and machine models.

A :class:`MachineSpec` declares the cluster; :class:`Machine` instantiates
it on a simulation :class:`~repro.simulator.Engine`, creating the
contended per-node resources:

* a **memory system** (:class:`~repro.simulator.BandwidthChannel`): every
  intra-node message copy and every shared-memory touch moves bytes
  through it, so on-node copy cost grows once concurrent copies exceed
  the sustainable stream count — the contention effect that motivates the
  paper;
* a **NIC** pair (owned by the :class:`~repro.machine.network.NetworkModel`).

Intra-node point-to-point transport is modelled as the classic
CICO (copy-in/copy-out) double copy through a shared-memory staging
buffer, with a per-message latency ``shm_latency`` — this is how MPICH,
Open MPI and Cray MPI move on-node messages, and it is precisely the
traffic the hybrid MPI+MPI collectives eliminate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.machine.compute import ComputeModel
from repro.machine.network import NetworkModel, NetworkSpec
from repro.machine.placement import Placement
from repro.machine.topology import TOPOLOGY_KINDS, Topology, topology_for
from repro.machine.transport import Transport, get_transport
from repro.simulator import BandwidthChannel, Engine

__all__ = ["NodeSpec", "MachineSpec", "Machine"]


@dataclass(frozen=True)
class NodeSpec:
    """Single-node hardware description.

    Attributes
    ----------
    cores:
        Cores per node (Hazel Hen / Vulcan: 24).
    mem_bandwidth:
        Sustainable memory bandwidth *per socket*, bytes/second.  With
        the default ``sockets=1`` this is the whole node's pool, exactly
        as before the socket tier existed.
    mem_streams:
        Concurrent memory streams at full per-stream rate *per socket*;
        beyond this, copies queue.  Models channel/LLC contention.
    shm_latency:
        Per-message latency of one intra-node (shared-memory transport)
        hop, seconds.
    cache_line:
        Cache-line size in bytes (used for false-sharing diagnostics in
        the shared-flag synchronization model).
    sockets:
        NUMA/socket domains per node.  ``1`` (default) keeps the flat
        node model; ``>1`` gives each socket its own memory channel and
        adds a cross-socket interconnect.
    xsocket_bandwidth:
        Bandwidth of the cross-socket interconnect (QPI/UPI-like),
        bytes/second.  Only meaningful when ``sockets > 1``.
    xsocket_streams:
        Concurrent full-rate streams on the cross-socket link.
    xsocket_latency:
        Extra per-message latency of one cross-socket hop, seconds
        (added on top of ``shm_latency`` for cross-socket messages).
    transport:
        On-node transport name (see :mod:`repro.machine.transport`):
        ``shm_two_copy`` (default, today's CICO), ``cma_single_copy``
        or ``pip_direct``.
    """

    cores: int = 24
    mem_bandwidth: float = 60.0e9
    mem_streams: int = 6
    shm_latency: float = 3.0e-7
    cache_line: int = 64
    sockets: int = 1
    xsocket_bandwidth: float = 19.2e9
    xsocket_streams: int = 2
    xsocket_latency: float = 1.0e-7
    transport: str = "shm_two_copy"

    @property
    def copy_beta(self) -> float:
        """Seconds/byte of one staged shared-memory copy on an
        otherwise idle socket: each copy streams ``2n`` bytes (read +
        write) through one of the ``mem_streams`` full-rate streams.
        This is the shm beta term of the analytic model
        (:mod:`repro.analysis.model`)."""
        return 2.0 * self.mem_streams / self.mem_bandwidth

    @property
    def xsocket_beta(self) -> float:
        """Seconds/byte of one staged copy over the cross-socket link
        on an otherwise idle node (read + write = ``2n`` bytes through
        one of the ``xsocket_streams`` full-rate streams)."""
        return 2.0 * self.xsocket_streams / self.xsocket_bandwidth

    @property
    def cores_per_socket(self) -> int:
        """Cores in each socket domain (``cores / sockets``)."""
        return self.cores // self.sockets

    @property
    def transport_spec(self) -> Transport:
        """The resolved :class:`~repro.machine.transport.Transport`."""
        return get_transport(self.transport)

    def validate(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.mem_bandwidth <= 0:
            raise ValueError("mem_bandwidth must be positive")
        if self.mem_streams < 1:
            raise ValueError("mem_streams must be >= 1")
        if self.shm_latency < 0:
            raise ValueError("shm_latency must be non-negative")
        if self.sockets < 1:
            raise ValueError("sockets must be >= 1")
        if self.sockets > 1:
            if self.cores % self.sockets != 0:
                raise ValueError(
                    f"cores ({self.cores}) must divide evenly into "
                    f"{self.sockets} sockets"
                )
            if self.xsocket_bandwidth <= 0:
                raise ValueError("xsocket_bandwidth must be positive")
            if self.xsocket_streams < 1:
                raise ValueError("xsocket_streams must be >= 1")
            if self.xsocket_latency < 0:
                raise ValueError("xsocket_latency must be non-negative")
        get_transport(self.transport).validate()


@dataclass(frozen=True)
class MachineSpec:
    """Declarative cluster description.

    ``topology_kind`` selects the default topology built by
    :class:`Machine` when none is passed explicitly: ``"flat"``,
    ``"dragonfly"`` (Aries-like) or ``"fattree"`` (InfiniBand-like).
    """

    name: str
    num_nodes: int
    node: NodeSpec = field(default_factory=NodeSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    compute: ComputeModel = field(default_factory=ComputeModel)
    topology_kind: str = "flat"

    def validate(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.topology_kind not in TOPOLOGY_KINDS:
            raise ValueError(f"unknown topology_kind {self.topology_kind!r}")
        self.node.validate()
        self.network.validate()

    def describe(self) -> dict:
        """JSON-serializable description of every constant in the spec.

        Covers the node (sockets, transport, memory system), network,
        compute model and topology kind — anything that can change a
        simulated or modelled latency.  This is the canonical form the
        sweep result cache (:mod:`repro.bench.sweep`) hashes, so two
        specs with equal ``describe()`` output are interchangeable for
        caching purposes.

        >>> hazel = MachineSpec("hh", 4)
        >>> hazel.describe()["num_nodes"]
        4
        >>> hazel.describe()["node"]["transport"]
        'shm_two_copy'
        """
        return asdict(self)

    def fingerprint(self) -> str:
        """Stable SHA-256 hex digest over :meth:`describe`.

        Equal for equal specs, different whenever any hardware constant
        — including sockets, transport, or topology kind — differs.

        >>> a, b = MachineSpec("m", 2), MachineSpec("m", 2)
        >>> a.fingerprint() == b.fingerprint()
        True
        >>> a.fingerprint() != MachineSpec("m", 3).fingerprint()
        True
        """
        blob = json.dumps(
            self.describe(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def build_topology(self) -> Topology:
        """Construct the default topology for this spec."""
        return topology_for(self.topology_kind, self.num_nodes)


class Machine:
    """Runtime cluster bound to an engine.

    Parameters
    ----------
    engine:
        Simulation engine driving virtual time.
    spec:
        Cluster description.
    topology:
        Optional explicit topology; defaults to the spec-appropriate flat
        topology inside :class:`NetworkModel`.
    """

    def __init__(
        self,
        engine: Engine,
        spec: MachineSpec,
        topology: Topology | None = None,
    ):
        spec.validate()
        self.engine = engine
        self.spec = spec
        self.network = NetworkModel(
            engine,
            spec.network,
            num_nodes=spec.num_nodes,
            topology=topology or spec.build_topology(),
        )
        node = spec.node
        self.transport = get_transport(node.transport)
        if node.sockets == 1:
            self._memory = [
                BandwidthChannel(
                    engine,
                    node.mem_bandwidth,
                    node.mem_streams,
                    name=f"node{i}.mem",
                )
                for i in range(spec.num_nodes)
            ]
            self._socket_mem = [[chan] for chan in self._memory]
            self._xsocket: list[BandwidthChannel] | None = None
        else:
            self._socket_mem = [
                [
                    BandwidthChannel(
                        engine,
                        node.mem_bandwidth,
                        node.mem_streams,
                        name=f"node{i}.s{s}.mem",
                    )
                    for s in range(node.sockets)
                ]
                for i in range(spec.num_nodes)
            ]
            # Legacy alias used by socket-oblivious charging (e.g. the
            # per-node shared window): socket 0's channel.
            self._memory = [row[0] for row in self._socket_mem]
            self._xsocket = [
                BandwidthChannel(
                    engine,
                    node.xsocket_bandwidth,
                    node.xsocket_streams,
                    name=f"node{i}.xlink",
                )
                for i in range(spec.num_nodes)
            ]
        self.intra_copies = 0
        self.intra_bytes = 0.0
        self._placement: Placement | None = None

    def bind_placement(self, placement: Placement) -> None:
        """Attach the rank→node map (done once by the MPI job runner)."""
        if placement.num_nodes > self.num_nodes:
            raise ValueError(
                f"placement uses {placement.num_nodes} nodes, machine has "
                f"{self.num_nodes}"
            )
        self._placement = placement

    @property
    def placement(self) -> Placement:
        """The bound rank→node map."""
        if self._placement is None:
            raise RuntimeError("no placement bound to this machine yet")
        return self._placement

    # -- intra-node traffic ---------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Nodes in the machine."""
        return self.spec.num_nodes

    def memory(self, node: int) -> BandwidthChannel:
        """The contended memory system of *node* (socket 0 when the
        node has several sockets)."""
        return self._memory[node]

    # -- socket tier -----------------------------------------------------
    @property
    def num_sockets(self) -> int:
        """Socket domains per node (1 for flat nodes)."""
        return self.spec.node.sockets

    def socket_of(self, rank: int) -> int:
        """Socket domain hosting *rank* (0 on flat nodes)."""
        if self.spec.node.sockets == 1:
            return 0
        return self.placement.socket_of(rank, self.spec.node)

    def socket_memory(self, node: int, socket: int) -> BandwidthChannel:
        """The contended memory system of one socket of *node*."""
        return self._socket_mem[node][socket]

    def xsocket_link(self, node: int) -> BandwidthChannel:
        """The cross-socket interconnect of *node* (sockets > 1 only)."""
        if self._xsocket is None:
            raise RuntimeError("machine has flat nodes (sockets=1)")
        return self._xsocket[node]

    def memory_copy(self, node: int, nbytes: float, copies: int = 1):
        """Coroutine: perform *copies* sequential memory copies of *nbytes*.

        Each copy reads and writes the data once, so it moves
        ``2 * nbytes`` through the node memory system.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.intra_copies += copies
        self.intra_bytes += nbytes * copies
        for _ in range(copies):
            yield self._memory[node].transfer(2.0 * nbytes)
        return nbytes

    def shared_touch(self, node: int, nbytes: float, socket: int = 0):
        """Coroutine: direct load/store access to shared memory.

        One pass over the data (no staging copy) — the hybrid model's
        cost for a process reading its neighbours' contribution in
        place.  *socket* selects which socket's memory channel is
        charged (the toucher's socket; 0 on flat nodes).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        yield self._socket_mem[node][socket].transfer(nbytes)
        return nbytes

    # -- convenience -----------------------------------------------------
    def default_placement(self, num_ranks: int) -> Placement:
        """Block (SMP-style) placement of *num_ranks* over the machine."""
        cores = self.spec.node.cores
        if num_ranks > self.num_nodes * cores:
            raise ValueError(
                f"{num_ranks} ranks exceed machine capacity "
                f"{self.num_nodes * cores}"
            )
        full, rem = divmod(num_ranks, cores)
        counts = [cores] * full + ([rem] if rem else [])
        if not counts:
            raise ValueError("num_ranks must be >= 1")
        return Placement.irregular(counts)

    def __repr__(self) -> str:
        return f"Machine({self.spec.name!r}, nodes={self.num_nodes})"
