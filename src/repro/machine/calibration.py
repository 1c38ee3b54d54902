"""Machine-model self-calibration probes.

Runs micro-probes *on the simulated machine* and reports the effective
parameters a benchmarker would measure (ping-pong latency/bandwidth,
on-node copy bandwidth, barrier cost).  Two uses:

* **model validation** — tests assert that measured values equal the
  analytic expectations from the spec (catching accidental
  double-charging in the protocol paths);
* **documentation** — ``probe_report`` prints the table we quote in
  README/EXPERIMENTS when describing the simulated clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.model import MachineSpec
from repro.machine.placement import Placement
from repro.mpi import run_program
from repro.mpi.datatypes import Bytes

__all__ = ["ProbeResult", "probe_machine", "probe_report"]


@dataclass(frozen=True)
class ProbeResult:
    """Measured effective machine parameters (all SI units)."""

    internode_latency: float        # 0-byte one-way, seconds
    internode_bandwidth: float      # large-message bytes/second
    intranode_latency: float        # 0-byte one-way, CICO path
    intranode_copy_bandwidth: float  # large-message effective B/s
    shm_barrier_24: float           # barrier cost over one full node
    allgather_1rpn_8nodes: float    # small allgather across 8 nodes


def _pingpong(spec: MachineSpec, placement: Placement, nbytes: int,
              reps: int = 3) -> float:
    """One-way time of an nbytes message between ranks 0 and 1."""

    def prog(mpi):
        comm = mpi.world
        payload = Bytes(nbytes)
        yield from comm.barrier()
        t0 = mpi.now
        for _ in range(reps):
            if comm.rank == 0:
                yield from comm.send(payload, 1, tag=1)
                yield from comm.recv(source=1, tag=2)
            elif comm.rank == 1:
                yield from comm.recv(source=0, tag=1)
                yield from comm.send(payload, 0, tag=2)
        return (mpi.now - t0) / (2 * reps)

    result = run_program(
        spec, None, prog, placement=placement, payload="cost-only"
    )
    return max(r for r in result.returns if r is not None)


def probe_machine(spec_factory) -> ProbeResult:
    """Run the probe suite against a preset factory (e.g. hazel_hen)."""
    two_nodes = spec_factory(2)
    inter = Placement.irregular([1, 1])
    lat_net = _pingpong(two_nodes, inter, 0)
    big = 8 * 1024 * 1024
    bw_net = big / max(
        _pingpong(two_nodes, inter, big) - lat_net, 1e-12
    )

    one_node = spec_factory(1)
    intra = Placement.block(1, 2)
    lat_shm = _pingpong(one_node, intra, 0)
    bw_shm = big / max(_pingpong(one_node, intra, big) - lat_shm, 1e-12)

    def barrier_prog(mpi):
        comm = mpi.world
        yield from comm.barrier()
        t0 = mpi.now
        yield from comm.barrier()
        return mpi.now - t0

    barrier = max(
        run_program(
            one_node, None, barrier_prog,
            placement=Placement.block(1, one_node.node.cores),
            payload="cost-only",
        ).returns
    )

    from repro.bench.osu import osu_allgather_latency

    ag = osu_allgather_latency(
        spec_factory(8), Placement.irregular([1] * 8), 8 * 8, "pure"
    )
    return ProbeResult(
        internode_latency=lat_net,
        internode_bandwidth=bw_net,
        intranode_latency=lat_shm,
        intranode_copy_bandwidth=bw_shm,
        shm_barrier_24=barrier,
        allgather_1rpn_8nodes=ag,
    )


def probe_report(spec_factory, name: str | None = None) -> str:
    """Human-readable calibration table for one preset."""
    probe = probe_machine(spec_factory)
    label = name or spec_factory(1).name
    return "\n".join(
        [
            f"calibration probes — {label}",
            f"  inter-node 0B latency : {probe.internode_latency * 1e6:8.2f} us",
            f"  inter-node bandwidth  : {probe.internode_bandwidth / 1e9:8.2f} GB/s",
            f"  intra-node 0B latency : {probe.intranode_latency * 1e6:8.2f} us",
            f"  intra-node copy bw    : {probe.intranode_copy_bandwidth / 1e9:8.2f} GB/s",
            f"  full-node barrier     : {probe.shm_barrier_24 * 1e6:8.2f} us",
            f"  8-node small allgather: {probe.allgather_1rpn_8nodes * 1e6:8.2f} us",
        ]
    )
