"""Cluster machine model: nodes, memory systems, NICs, networks, placement.

This package models the two clusters used in the paper's evaluation —
Cray XC40 "Hazel Hen" (Aries dragonfly, Cray MPI tuning) and NEC "Vulcan"
(InfiniBand fat-tree, OpenMPI tuning) — as parameterized cost models on
top of :mod:`repro.simulator`.

The central classes are:

* :class:`MachineSpec` — a declarative description (nodes, cores/node,
  memory bandwidth, NIC, network parameters).
* :class:`Machine` — the runtime instantiation bound to an
  :class:`~repro.simulator.Engine`, holding the contended resources.
* :class:`Placement` — the rank→(node, core) map (SMP/block, round-robin,
  or irregular per-node counts).
* :class:`NetworkModel` / :class:`Topology` — inter-node latency,
  bandwidth, and closed-form hop counts (dragonfly / fat-tree / torus).

Presets live in :mod:`repro.machine.presets`; use
:func:`~repro.machine.presets.hazel_hen` or
:func:`~repro.machine.presets.vulcan`.
"""

from repro.machine.compute import ComputeModel
from repro.machine.model import Machine, MachineSpec, NodeSpec
from repro.machine.network import NetworkModel, NetworkSpec
from repro.machine.placement import Placement
from repro.machine.presets import (
    hazel_hen,
    hazel_hen_2s,
    hazel_hen_flat,
    testing_machine,
    vulcan,
)
from repro.machine.topology import (
    DragonflyTopology,
    FatTreeTopology,
    FlatTopology,
    Topology,
    TorusTopology,
)
from repro.machine.transport import TRANSPORTS, Transport, get_transport

__all__ = [
    "ComputeModel",
    "DragonflyTopology",
    "FatTreeTopology",
    "FlatTopology",
    "Machine",
    "MachineSpec",
    "NetworkModel",
    "NetworkSpec",
    "NodeSpec",
    "Placement",
    "TRANSPORTS",
    "Topology",
    "TorusTopology",
    "Transport",
    "get_transport",
    "hazel_hen",
    "hazel_hen_2s",
    "hazel_hen_flat",
    "testing_machine",
    "vulcan",
]
