"""Collective-algorithm registry and pluggable selection policies.

Real MPI libraries treat algorithm selection as a first-class, swappable
layer: MPICH ships the Thakur et al. decision tables, Open MPI's "tuned"
component exposes forced-algorithm MCA parameters, and both let a cost
model override the static tables.  This module gives the simulated
runtime the same structure:

* every algorithm — flat, hierarchical, multi-leader, and the hybrid
  shared-window exchanges — registers an :class:`Algorithm` descriptor
  (operation, name, applicability predicate, α-β cost estimator);
* a :class:`SelectionPolicy` decides which registered descriptor runs
  — once per communicator and (request, candidate set); repeated calls
  read the pick back from the communicator's shared cache.  Three
  implementations are provided:

  - :class:`TableSelection` — the MPICH-style decision tables driven by
    :class:`~repro.mpi.collectives.tuning.CollectiveTuning` thresholds
    (the behavior-preserving default);
  - :class:`CostModelSelection` — picks the applicable candidate with
    the lowest α-β cost estimate for the current communicator/machine;
  - :class:`ForcedSelection` — per-operation overrides (from config or
    ``REPRO_COLL_<OP>`` environment variables), falling back to a base
    policy for unlisted operations and inapplicable forces.

The policy travels on the rank context (``ctx.policy``, threaded through
:class:`~repro.mpi.runtime.MPIJob`); the ``run_*`` bodies in
:mod:`repro.mpi.collectives` consult it for every call and record the
decision — operation, algorithm, policy, bytes — in the job trace.
A policy's pick must be a pure function of the communicator, the
request and the candidate set (the replay cache already relies on it);
that is what makes the per-communicator memo exact.

Applicability and the decision tables read only a communicator
:class:`Shape`, the request and the tuning.  :func:`table_choice` is
that shape-level decision: :class:`TableSelection` answers through it
for a live communicator, and the analytic cost model
(:mod:`repro.analysis.model`) and ``repro-model``/``/best`` ask it for
the configurations they price, so there is one selection table.

Descriptor calling conventions (per operation)
----------------------------------------------

``Algorithm.fn`` is a generator coroutine with the operation's native
signature:

==================  ====================================================
op                  ``fn`` signature
==================  ====================================================
allgather(v)        ``fn(comm, payload, tag, total=None)`` → BlockSet
bcast               ``fn(comm, payload, root, tag)`` → payload
gather(v)           ``fn(comm, payload, root, tag)`` → BlockSet | None
scatter             ``fn(comm, payloads, root, tag)`` → payload
reduce              ``fn(comm, payload, op, root, tag)``
allreduce &c.       ``fn(comm, payload, op, tag)``
alltoall            ``fn(comm, payloads, tag)`` → list
barrier             ``fn(comm, tag)``
hy_*                not runnable here — executed by ``repro.core``
==================  ====================================================

Cost estimators are *estimates*: simple Hockney (α-β) critical-path
formulas over the communicator's dominant transport.  They exist to
rank candidates, not to predict the simulator's exact charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple

from repro.mpi.collectives import hierarchical as hier
from repro.mpi.collectives.allgather import (
    allgather_bruck,
    allgather_recursive_doubling,
    allgather_ring,
)
from repro.mpi.collectives.allgatherv import (
    allgatherv_bruck,
    allgatherv_gather_bcast,
    allgatherv_ring,
)
from repro.mpi.collectives.alltoall import alltoall_bruck, alltoall_pairwise
from repro.mpi.collectives.barrier import (
    barrier_dissemination,
    barrier_shm_flags,
)
from repro.mpi.collectives.bcast import (
    bcast_binomial,
    bcast_pipeline,
    bcast_scatter_allgather,
)
from repro.mpi.collectives.gather import (
    gather_binomial,
    gather_linear,
    scatter_binomial,
    scatter_linear,
)
from repro.mpi.collectives.reduce import (
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
    allreduce_ring,
    reduce_binomial,
    scan_linear,
)
from repro.mpi.collectives.reduce_scatter import (
    reduce_scatter_halving,
    reduce_scatter_pairwise,
)
from repro.mpi.collectives.scan_ops import exscan_binomial, scan_binomial
from repro.mpi.datatypes import nbytes_of
from repro.mpi.errors import MPIError

__all__ = [
    "CollRequest",
    "Algorithm",
    "register",
    "algorithms_for",
    "get_algorithm",
    "ops",
    "Shape",
    "spans_hierarchy",
    "comm_shape",
    "applicable_algorithms",
    "table_choice",
    "BRIDGE_ALLGATHERV",
    "BRIDGE_BCAST",
    "BRIDGE_ALLREDUCE",
    "SHM_BCAST",
    "SelectionPolicy",
    "TableSelection",
    "CostModelSelection",
    "ForcedSelection",
    "resolve_policy",
    "policy_of",
    "trace_begin",
    "trace_end",
    "phase_begin",
    "phase_end",
    "bridge_allgatherv",
    "ENV_POLICY",
    "ENV_OP_PREFIX",
]

ENV_POLICY = "REPRO_COLL_POLICY"
ENV_OP_PREFIX = "REPRO_COLL_"


# ---------------------------------------------------------------------------
# Requests and descriptors
# ---------------------------------------------------------------------------

class CollRequest(NamedTuple):
    """Per-call selection inputs — an immutable value, equal and hashed
    by its fields (it is part of the selection memo key).

    Attributes
    ----------
    op:
        Operation name (``"allgather"``, ``"bcast"``, …).
    nbytes:
        Per-rank message bytes (the rooted/vector message size).
    total:
        Total result bytes — for the allgather family this is the full
        receive-buffer size (the MPICH threshold convention); for other
        operations it equals ``nbytes``.
    root:
        Root rank for rooted collectives, else None.
    """

    op: str
    nbytes: int
    total: int
    root: int | None = None


@dataclass(frozen=True)
class Algorithm:
    """One registered collective algorithm.

    ``applicable(shape, req)`` is a *structural* predicate over the
    communicator's :class:`Shape` (node count, power-of-two-ness,
    sockets) — policy preferences such as ``tuning.smp_aware`` belong
    to the policies, not to the descriptor.
    """

    op: str
    name: str
    fn: Callable[..., Any]
    applicable: Callable[[Shape, CollRequest], bool]
    cost: Callable[[Any, CollRequest], float]
    kind: str = "flat"  # "flat" | "hierarchical" | "hybrid"

    def __repr__(self) -> str:
        return f"<Algorithm {self.op}:{self.name} [{self.kind}]>"


_REGISTRY: dict[str, dict[str, Algorithm]] = {}


def register(algorithm: Algorithm) -> Algorithm:
    """Add *algorithm* to the registry (op+name must be unique)."""
    by_name = _REGISTRY.setdefault(algorithm.op, {})
    if algorithm.name in by_name:
        raise ValueError(
            f"algorithm {algorithm.name!r} already registered for "
            f"op {algorithm.op!r}"
        )
    by_name[algorithm.name] = algorithm
    return algorithm


def algorithms_for(op: str) -> list[Algorithm]:
    """All registered algorithms of *op*, in registration order."""
    return list(_REGISTRY.get(op, {}).values())


def get_algorithm(op: str, name: str) -> Algorithm:
    """Descriptor by (op, name); raises KeyError listing known names."""
    by_name = _REGISTRY.get(op)
    if by_name is None:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown collective op {op!r}; known: {known}")
    try:
        return by_name[name]
    except KeyError:
        known = ", ".join(sorted(by_name))
        raise KeyError(
            f"unknown algorithm {name!r} for op {op!r}; known: {known}"
        ) from None


def ops() -> list[str]:
    """All operations with registered algorithms."""
    return list(_REGISTRY)


# ---------------------------------------------------------------------------
# Communicator shape (cached — selection runs on every collective call)
# ---------------------------------------------------------------------------

class Shape(NamedTuple):
    """What selection reads of a communicator: *size* ranks on *nodes*
    nodes, at most *max_ppn* of them on one node, on a machine whose
    nodes have *sockets* sockets.

    :func:`comm_shape` derives it from a live communicator and
    ``CostModel.shape`` from per-node rank counts, so the simulator and
    the cost model decide from the same value."""

    size: int
    nodes: int
    max_ppn: int
    sockets: int = 1


def comm_shape(comm) -> Shape:
    """The :class:`Shape` of *comm*.

    Cached on the communicator's *shared* state: the shape is a pure
    function of group + placement, so one O(p) scan serves every rank
    (a per-rank cache would redo it p times — O(p^2) per job)."""
    cache = comm.shared_cache
    shape = cache.get("_shape")
    if shape is None:
        placement = comm.ctx.placement
        per_node: dict[int, int] = {}
        for w in comm.group.world_ranks():
            n = placement.node_of(w)
            per_node[n] = per_node.get(n, 0) + 1
        shape = cache["_shape"] = Shape(
            comm.size, len(per_node), max(per_node.values(), default=1),
            comm.ctx.machine.spec.node.sockets,
        )
    return shape


def spans_hierarchy(shape: Shape) -> bool:
    """True when *shape* covers >1 node and some node hosts >1 of its
    ranks — the regime where SMP-aware algorithms apply."""
    return shape.nodes > 1 and shape.max_ppn > 1


def _is_pof2(n: int) -> bool:
    return n & (n - 1) == 0


def applicable_algorithms(op: str, shape: Shape, req: CollRequest,
                          candidates: tuple[str, ...] | None = None
                          ) -> list[Algorithm]:
    """Registered algorithms of *op* structurally applicable to
    *shape*, optionally restricted to the *candidates* names, in
    registration order."""
    return [
        d for d in algorithms_for(op)
        if (candidates is None or d.name in candidates)
        and d.applicable(shape, req)
    ]


# ---------------------------------------------------------------------------
# Selection policies
# ---------------------------------------------------------------------------

class SelectionPolicy:
    """Chooses one registered algorithm per collective call.

    ``select`` filters the registry down to structurally-applicable
    candidates (optionally restricted to an explicit *candidates* name
    tuple — used by composite algorithms for their internal stages) and
    delegates the choice to :meth:`choose`.

    The pick is memoised in the communicator's shared cache under
    ``(policy, req, candidates)``: :meth:`choose` must be a pure function
    of those (communicator shape, machine and tuning are job-constant),
    so every rank's repeated call reads back the first answer.  A
    subclass overriding ``select`` itself bypasses the memo.
    """

    name = "base"

    def select(self, comm, req: CollRequest,
               candidates: tuple[str, ...] | None = None) -> Algorithm:
        cache = comm.shared_cache
        key = (self, req, candidates)
        algo = cache.get(key)
        if algo is None:
            cands = applicable_algorithms(req.op, comm_shape(comm), req,
                                          candidates)
            if not cands:
                raise MPIError(
                    f"no applicable algorithm for op {req.op!r} on "
                    f"{comm.name!r} (size {comm.size})"
                )
            algo = cache[key] = self.choose(comm, req, cands)
        return algo

    def choose(self, comm, req: CollRequest,
               cands: list[Algorithm]) -> Algorithm:
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human description (shown by the bench CLI)."""
        return self.name


class TableSelection(SelectionPolicy):
    """MPICH-style decision tables driven by ``comm.ctx.tuning``.

    The pick is :func:`table_choice` over the communicator's shape:
    thresholds come from the :class:`CollectiveTuning` personality, and
    hierarchical variants are preferred when ``tuning.smp_aware`` and
    the communicator spans several multi-rank nodes.
    """

    name = "table"

    def choose(self, comm, req, cands):
        return table_choice(req.op, comm_shape(comm), req, comm.ctx.tuning,
                            tuple(d.name for d in cands))


def table_choice(op: str, shape: Shape, req: CollRequest, tuning,
                 candidates: tuple[str, ...] | None = None) -> Algorithm:
    """The algorithm the decision tables pick for *req* on a
    communicator of *shape* under *tuning*: the first table preference
    among the applicable registered algorithms of *op* (restricted to
    the *candidates* names when given), else the first of those."""
    cands = applicable_algorithms(op, shape, req, candidates)
    if not cands:
        raise MPIError(f"no applicable algorithm for op {op!r} on {shape}")
    by_name = {d.name: d for d in cands}
    for name in _preferences(op, shape, req, tuning):
        if name in by_name:
            return by_name[name]
    return cands[0]


#: Operations whose table prefers the SMP-aware variant when the
#: tuning asks for it and the communicator spans multi-rank nodes.
_SMP_OPS = frozenset({"allgather", "allgatherv", "bcast", "reduce",
                      "allreduce", "barrier"})


def _preferences(op: str, shape: Shape, req: CollRequest, t) -> list[str]:
    """The MPICH-style decision table: ordered algorithm preferences of
    one call, from the shape, the request and the tuning thresholds."""
    if op in _SMP_OPS and t.smp_aware and spans_hierarchy(shape):
        return ["smp_hierarchical"]
    if op == "allgather":
        if _is_pof2(shape.size) and req.total <= t.allgather_rd_max_total:
            return ["recursive_doubling"]
        if req.total <= t.allgather_bruck_max_total:
            return ["bruck"]
        return ["ring"]
    if op == "allgatherv":
        # Never recursive doubling — the structural penalty of [29].
        if req.total <= t.allgatherv_bruck_max_total:
            return ["bruck_v"]
        return ["ring_v"]
    if op == "bcast":
        if req.nbytes <= t.bcast_binomial_max or shape.size <= 2:
            return ["binomial"]
        if req.nbytes > 8 * t.bcast_pipeline_chunk and shape.size >= 8:
            return ["pipeline", "scatter_allgather"]
        return ["scatter_allgather"]
    if op in ("gather", "gatherv"):
        if req.nbytes > t.bcast_binomial_max * 4:
            return ["linear"]
        return ["binomial"]
    if op == "allreduce":
        if req.nbytes <= t.allreduce_rd_max:
            return ["recursive_doubling"]
        if _is_pof2(shape.size):
            return ["rabenseifner"]
        return ["ring"]
    if op == "reduce_scatter":
        if _is_pof2(shape.size) and req.nbytes > t.reduce_scatter_halving_min:
            return ["recursive_halving"]
        return ["pairwise"]
    if op == "scan":
        if shape.size <= t.scan_linear_max_ranks:
            return ["linear"]
        return ["binomial"]
    if op == "alltoall":
        if req.nbytes <= t.alltoall_bruck_max:
            return ["bruck"]
        return ["pairwise"]
    if op == "barrier":
        return ["shm_flags"] if shape.nodes == 1 else ["dissemination"]
    if op in ("hy_allgather", "hy_bcast"):
        return ["shared_window"]
    if op in ("scatter", "reduce", "exscan"):
        return ["binomial"]
    return []


class CostModelSelection(SelectionPolicy):
    """Pick the applicable candidate with the lowest α-β cost estimate.

    Deterministic: ties break toward earlier registration order."""

    name = "cost_model"

    def choose(self, comm, req, cands):
        return min(cands, key=lambda d: d.cost(comm, req))


class ForcedSelection(SelectionPolicy):
    """Per-operation algorithm overrides (Open MPI's forced-algorithm
    MCA parameters, ``REPRO_COLL_<OP>`` in this runtime).

    Overrides map op → algorithm name.  Operations without an override
    — or calls where the forced algorithm is structurally inapplicable
    (e.g. a hierarchical variant on a single-node communicator, or a
    stage whose candidate set excludes it) — fall back to *base*.
    """

    name = "forced"

    def __init__(self, overrides: Mapping[str, str],
                 base: SelectionPolicy | None = None):
        self.base = base or TableSelection()
        self.overrides = dict(overrides)
        for op, algo_name in self.overrides.items():
            get_algorithm(op, algo_name)  # raises on typos, eagerly

    def choose(self, comm, req, cands):
        forced = self.overrides.get(req.op)
        if forced is not None:
            for d in cands:
                if d.name == forced:
                    return d
        return self.base.choose(comm, req, cands)

    def describe(self) -> str:
        forced = ", ".join(f"{op}={name}" for op, name
                           in sorted(self.overrides.items()))
        return f"forced({forced}) over {self.base.describe()}"


#: Fallback policy for contexts that carry none.
DEFAULT_POLICY = TableSelection()

_POLICY_NAMES: dict[str, Callable[[], SelectionPolicy]] = {
    "table": TableSelection,
    "cost_model": CostModelSelection,
    "costmodel": CostModelSelection,
}


def resolve_policy(policy: SelectionPolicy | str | None,
                   env: Mapping[str, str] | None = None) -> SelectionPolicy:
    """Resolve a job's selection policy.

    *policy* may be a :class:`SelectionPolicy` instance (used as-is), a
    name (``"table"`` / ``"cost_model"``), or None — in which case the
    environment decides: ``REPRO_COLL_POLICY`` names the base policy and
    any ``REPRO_COLL_<OP>=<algorithm>`` variables wrap it in a
    :class:`ForcedSelection`.
    """
    if isinstance(policy, SelectionPolicy):
        return policy
    if isinstance(policy, str):
        try:
            return _POLICY_NAMES[policy]()
        except KeyError:
            known = ", ".join(sorted(_POLICY_NAMES))
            raise ValueError(
                f"unknown selection policy {policy!r}; known: {known}"
            ) from None
    if env is None:
        import os

        env = os.environ
    base_name = env.get(ENV_POLICY, "table")
    base = resolve_policy(base_name)
    overrides: dict[str, str] = {}
    for key, value in env.items():
        if not key.startswith(ENV_OP_PREFIX) or key == ENV_POLICY:
            continue
        op = key[len(ENV_OP_PREFIX):].lower()
        if op not in _REGISTRY:
            known = ", ".join(sorted(_REGISTRY))
            raise ValueError(
                f"{key}: unknown collective op {op!r}; known: {known}"
            )
        get_algorithm(op, value)  # raises on unknown algorithm names
        overrides[op] = value
    if overrides:
        return ForcedSelection(overrides, base=base)
    return base


def policy_of(comm) -> SelectionPolicy:
    """The selection policy governing *comm* (rank-context attribute)."""
    return getattr(comm.ctx, "policy", None) or DEFAULT_POLICY


def _dispatch_record(comm, op: str, algo: str, nbytes: int,
                     policy: str | None) -> dict:
    rec = {
        "t": comm.ctx.engine.now,
        "rank": comm.ctx.world_rank,
        "comm": comm.name,
        "op": op,
        "algo": algo,
        "nbytes": nbytes,
    }
    if policy is not None:
        rec["policy"] = policy
    rec["kind"] = "dispatch"
    return rec


def trace_begin(comm, op: str, algo: str, nbytes: int,
                policy: str | None = None) -> dict | None:
    """Open the dispatch span of one collective call (when enabled).

    Returns the span record to pass to :func:`trace_end` after the
    algorithm ran, or None when tracing is off."""
    tracer = comm.ctx.trace
    if tracer is None:
        return None
    return tracer.begin(_dispatch_record(comm, op, algo, nbytes, policy))


def trace_end(comm, span: dict | None) -> None:
    """Close a span opened by :func:`trace_begin`/:func:`phase_begin`."""
    if span is not None:
        comm.ctx.trace.end(span, comm.ctx.engine.now)


def phase_begin(
    comm, phase: str, nbytes: int = 0, level: str | None = None
) -> dict | None:
    """Open a nested phase span of a composite collective.

    Recorded only at trace detail ``"phase"`` or finer; the tracer links
    it to the innermost open span of the same rank (normally the
    dispatch span of the enclosing collective).  *level* tags the
    hierarchy tier of socket-aware phases (``"socket"`` / ``"node"`` /
    ``"bridge"``); flat and two-level phases omit it, keeping their
    records unchanged."""
    tracer = comm.ctx.trace
    if tracer is None or not tracer.wants("phase"):
        return None
    rec = {
        "t": comm.ctx.engine.now,
        "rank": comm.ctx.world_rank,
        "comm": comm.name,
        "kind": "phase",
        "phase": phase,
        "nbytes": nbytes,
    }
    if level is not None:
        rec["level"] = level
    return tracer.begin(rec)


#: Closing a phase span is identical to closing a dispatch span.
phase_end = trace_end


# ---------------------------------------------------------------------------
# Stage helpers used by composite (hierarchical / hybrid) algorithms
# ---------------------------------------------------------------------------

#: Candidate sets of the composite algorithms' inner stages: the
#: inter-leader bridge (one rank per node) and the on-node release
#: broadcast.  The simulator's stages select from these, and the cost
#: model prices what :func:`table_choice` picks from the same sets.
BRIDGE_ALLGATHERV = ("bruck_v", "ring_v")
BRIDGE_BCAST = ("binomial", "scatter_allgather", "pipeline")
BRIDGE_ALLREDUCE = ("recursive_doubling", "rabenseifner", "ring")
SHM_BCAST = ("binomial", "scatter_allgather")


def _vector_overhead(comm, blocks: int):
    tuning = comm.ctx.tuning
    cost = tuning.vector_block_overhead * blocks
    if cost > 0:
        yield comm.ctx.engine.pause(cost)


def bridge_allgatherv(bridge, node_blocks, tag: int, total: int):
    """Coroutine: inter-leader exchange used inside hierarchical
    allgathers — a flat v-variant selected by the bridge's policy.

    Node aggregates have equal size only for regular ppn; the v-variant
    is required in general (paper §4.1)."""
    req = CollRequest(op="allgatherv", nbytes=total // max(bridge.size, 1),
                      total=total)
    algo = policy_of(bridge).select(bridge, req, BRIDGE_ALLGATHERV)
    yield from _vector_overhead(bridge, bridge.size)
    result = yield from algo.fn(bridge, node_blocks, tag, total)
    return result


def _bridge_bcast(bridge, payload, root: int, tag: int, nbytes: int):
    """Coroutine: inter-leader broadcast stage (flat algorithm chosen by
    the bridge's policy from the top-level message size)."""
    req = CollRequest(op="bcast", nbytes=nbytes, total=nbytes, root=root)
    algo = policy_of(bridge).select(bridge, req, BRIDGE_BCAST)
    return algo.fn(bridge, payload, root, tag)


def _bridge_allreduce(bridge, payload, op, tag: int, nbytes: int):
    """Coroutine: inter-leader allreduce stage (flat algorithm chosen by
    the bridge's policy from the top-level message size)."""
    req = CollRequest(op="allreduce", nbytes=nbytes, total=nbytes)
    algo = policy_of(bridge).select(bridge, req, BRIDGE_ALLREDUCE)
    return algo.fn(bridge, payload, op, tag)


# ---------------------------------------------------------------------------
# Runners: adapt algorithms to the per-op descriptor conventions
# ---------------------------------------------------------------------------

def _run_gather_bcast_v(comm, payload, tag, total):
    return allgatherv_gather_bcast(comm, payload, tag)


def _run_smp_allgather(comm, payload, tag, total):
    def bridge_xchg(bridge, node_blocks, btag):
        return bridge_allgatherv(bridge, node_blocks, btag, total)

    return hier.hier_allgather(
        comm, payload, tag, bridge_xchg, total_nbytes=total
    )


def _run_smp3_allgather(comm, payload, tag, total):
    def bridge_xchg(bridge, node_blocks, btag):
        return bridge_allgatherv(bridge, node_blocks, btag, total)

    return hier.smp_3level_allgather(
        comm, payload, tag, bridge_xchg, total_nbytes=total
    )


def _run_multileader_allgather(comm, payload, tag, total):
    k = max(1, comm.ctx.tuning.multileader_k)

    def bridge_xchg(bridge, node_blocks, btag):
        return bridge_allgatherv(bridge, node_blocks, btag, total)

    return hier.multileader_allgather(comm, payload, tag, k, bridge_xchg)


def _run_bcast_pipeline(comm, payload, root, tag):
    return bcast_pipeline(
        comm, payload, root, tag, comm.ctx.tuning.bcast_pipeline_chunk
    )


def _run_smp_bcast(comm, payload, root, tag):
    nbytes = nbytes_of(payload)

    def bridge_bc(bridge, p, broot, btag):
        return _bridge_bcast(bridge, p, broot, btag, nbytes)

    return hier.hier_bcast(comm, payload, root, tag, bridge_bc)


def _run_smp_reduce(comm, payload, op, root, tag):
    return hier.hier_reduce(comm, payload, op, root, tag)


def _run_smp_allreduce(comm, payload, op, tag):
    nbytes = nbytes_of(payload)

    def bridge_ar(bridge, p, o, btag):
        return _bridge_allreduce(bridge, p, o, btag, nbytes)

    return hier.hier_allreduce(comm, payload, op, tag, bridge_ar)


def _run_barrier_smp(comm, tag):
    tuning = comm.ctx.tuning
    shm, bridge = hier.hier_comms(comm)
    if shm.size > 1:
        span = phase_begin(comm, "on_node_arrive")
        yield from barrier_shm_flags(shm, tag)
        phase_end(comm, span)
    if bridge is not None and bridge.size > 1:
        span = phase_begin(comm, "bridge_exchange")
        yield from barrier_dissemination(bridge, tag)
        phase_end(comm, span)
    if shm.size > 1:
        # Release phase: one flag store observed by each child.
        span = phase_begin(comm, "on_node_release")
        yield from barrier_shm_flags(
            shm, tag, rounds_cost=tuning.shm_barrier_flag, phase="release"
        )
        phase_end(comm, span)


def _run_barrier_dissemination(comm, tag):
    # The flat path (and only it) pays the per-call software overhead,
    # matching the historical dispatcher.
    tuning = comm.ctx.tuning
    if tuning.call_overhead > 0:
        yield comm.ctx.engine.pause(tuning.call_overhead)
    yield from barrier_dissemination(comm, tag)


def _not_runnable(*_args, **_kwargs):
    raise MPIError(
        "hybrid descriptors are executed by repro.core, not dispatched "
        "through repro.mpi.collectives"
    )


# ---------------------------------------------------------------------------
# Applicability predicates
# ---------------------------------------------------------------------------

def _always(shape, req) -> bool:
    return True


def _pof2_only(shape, req) -> bool:
    return _is_pof2(shape.size)


def _hier_only(shape, req) -> bool:
    return spans_hierarchy(shape)


def _shm_only(shape, req) -> bool:
    return shape.nodes == 1


def _multinode_only(shape, req) -> bool:
    return shape.nodes > 1


def _socket_hier_only(shape, req) -> bool:
    """3-level hierarchical forms: need both tiers to be non-trivial."""
    return spans_hierarchy(shape) and shape.sockets > 1


def _socket_multinode_only(shape, req) -> bool:
    """3-level hybrid forms: need a bridge and a socket tier."""
    return shape.nodes > 1 and shape.sockets > 1


# ---------------------------------------------------------------------------
# Cost estimators
# ---------------------------------------------------------------------------
#
# ``Algorithm.cost`` used to carry hand-written alpha-beta scores with
# ad-hoc fudge factors; they disagreed with simulated seconds by large
# factors and were only usable for ranking.  Every registration now
# delegates to :mod:`repro.analysis.model`, which prices the call in
# SECONDS with the same protocol rules the simulator implements (the
# conformance suite in ``tests/analysis/`` bounds the divergence), so
# :class:`CostModelSelection` compares real latencies and costs share a
# unit with ``TimedResult``/trace timestamps.

def _model_cost(op: str, name: str):
    def cost(comm, req: CollRequest) -> float:
        from repro.analysis.model import predict_comm

        return predict_comm(comm, req, name)

    return cost


# ---------------------------------------------------------------------------
# Registrations
# ---------------------------------------------------------------------------

def _reg(op, name, fn, applicable=_always, kind="flat"):
    register(Algorithm(
        op=op, name=name, fn=fn, applicable=applicable,
        cost=_model_cost(op, name), kind=kind,
    ))


# allgather family ----------------------------------------------------------
_reg("allgather", "recursive_doubling", allgather_recursive_doubling,
     applicable=_pof2_only)
_reg("allgather", "bruck", allgather_bruck)
_reg("allgather", "ring", allgather_ring)
_reg("allgather", "smp_hierarchical", _run_smp_allgather,
     applicable=_hier_only, kind="hierarchical")
_reg("allgather", "multileader", _run_multileader_allgather,
     applicable=_hier_only, kind="hierarchical")
_reg("allgather", "smp_3level", _run_smp3_allgather,
     applicable=_socket_hier_only, kind="hierarchical")

_reg("allgatherv", "bruck_v", allgatherv_bruck)
_reg("allgatherv", "ring_v", allgatherv_ring)
_reg("allgatherv", "gather_bcast", _run_gather_bcast_v)
_reg("allgatherv", "smp_hierarchical", _run_smp_allgather,
     applicable=_hier_only, kind="hierarchical")

# bcast ---------------------------------------------------------------------
_reg("bcast", "binomial", bcast_binomial)
_reg("bcast", "scatter_allgather", bcast_scatter_allgather)
_reg("bcast", "pipeline", _run_bcast_pipeline)
_reg("bcast", "smp_hierarchical", _run_smp_bcast,
     applicable=_hier_only, kind="hierarchical")

# gather / scatter ----------------------------------------------------------
_reg("gather", "binomial", gather_binomial)
_reg("gather", "linear", gather_linear)
_reg("gatherv", "binomial", gather_binomial)
_reg("gatherv", "linear", gather_linear)
_reg("scatter", "binomial", scatter_binomial)
_reg("scatter", "linear", scatter_linear)

# reductions ----------------------------------------------------------------
_reg("reduce", "binomial", reduce_binomial)
_reg("reduce", "smp_hierarchical", _run_smp_reduce,
     applicable=_hier_only, kind="hierarchical")

_reg("allreduce", "recursive_doubling", allreduce_recursive_doubling)
_reg("allreduce", "rabenseifner", allreduce_rabenseifner,
     applicable=_pof2_only)
_reg("allreduce", "ring", allreduce_ring)
_reg("allreduce", "smp_hierarchical", _run_smp_allreduce,
     applicable=_hier_only, kind="hierarchical")

_reg("reduce_scatter", "recursive_halving", reduce_scatter_halving,
     applicable=_pof2_only)
_reg("reduce_scatter", "pairwise", reduce_scatter_pairwise)

_reg("scan", "linear", scan_linear)
_reg("scan", "binomial", scan_binomial)
_reg("exscan", "binomial", exscan_binomial)

# alltoall ------------------------------------------------------------------
_reg("alltoall", "bruck", alltoall_bruck)
_reg("alltoall", "pairwise", alltoall_pairwise)

# barrier -------------------------------------------------------------------
_reg("barrier", "shm_flags", barrier_shm_flags,
     applicable=_shm_only)
_reg("barrier", "smp_hierarchical", _run_barrier_smp,
     applicable=_hier_only, kind="hierarchical")
_reg("barrier", "dissemination", _run_barrier_dissemination)

# hybrid MPI+MPI (executed by repro.core; registered for selection,
# forcing, and the cost model) ---------------------------------------------
_reg("hy_allgather", "shared_window", _not_runnable, kind="hybrid")
_reg("hy_allgather", "pipelined_ring", _not_runnable,
     applicable=_multinode_only, kind="hybrid")
_reg("hy_allgather", "shared_window_3l", _not_runnable,
     applicable=_socket_multinode_only, kind="hybrid")
_reg("hy_bcast", "shared_window", _not_runnable, kind="hybrid")
