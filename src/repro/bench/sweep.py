"""Sharded sweep orchestrator with a content-addressed result cache
(``repro-sweep``).

A *sweep* is a grid of independent measurement points — (machine, rank
population, message size, variant, algorithm, on-node transport) tuples
— answered either by the discrete-event simulator (``engine="sim"``) or
by the closed-form analytic model (``engine="model"``).  Both engines
are deterministic: the same point always produces the same latency, so
every answer is cacheable forever *as long as nothing it depends on
changed*.  This module provides the three pieces that exploit that:

* :class:`SweepPoint` / :func:`expand_spec` — the declarative point and
  the spec format that expands into a grid of them;
* :class:`ResultCache` — a content-addressed on-disk store keyed by
  :func:`cache_key`, a stable hash over the *resolved* machine spec
  (every hardware constant, sockets and transport included), the full
  point description, and the engine/model version — so cache entries
  invalidate automatically when any hash input changes;
* :func:`run_sweep` — the orchestrator: answers what it can from cache,
  shards the misses across worker processes
  (:class:`concurrent.futures.ProcessPoolExecutor`, chunked), applies a
  per-point timeout with bounded retry, and returns a report with
  per-point records, structured failure records, and cache hit/miss
  counters (renderable via :func:`repro.metrics.sweep_metrics`).

Every figure of ``bench/figures.py`` (OSU latencies, SUMMA, BPMF, the
ablations and extensions), ``repro-sweep run --figure`` (the committed
``BENCH_fig*.json`` pins) and ``bench/model.py`` (the analytic sweeps)
execute their points through this module, so they share one cache
format and one execution path.  The JSON-over-HTTP service mode lives in
:mod:`repro.bench.service`; the user guide is ``docs/sweeps.md``.

Determinism guarantee: the simulator's virtual-time results are
independent of wall-clock, scheduling, and process boundaries, so a
sweep run with ``workers=8`` is bit-identical (latencies, event counts)
to the same sweep run serially — asserted by
``tests/bench/test_sweep.py``.

Usage::

    repro-sweep run --figure fig10 --cache .sweep-cache --workers 4
    repro-sweep run --spec sweep.json --cache .sweep-cache
    repro-sweep query --machine hazel_hen --nodes 4 --ppn 24 --elements 512
    repro-sweep stats --cache .sweep-cache
    repro-sweep gc --cache .sweep-cache --older-than 604800
    repro-sweep serve --cache .sweep-cache --port 8351
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import hashlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterable, NamedTuple, Sequence

from repro.analysis.model import MODEL_VERSION, CostModel
from repro.machine.model import MachineSpec
from repro.machine.placement import Placement
from repro.machine.transport import TRANSPORTS
from repro.machine import presets as _presets
from repro.mpi.collectives.registry import (
    DEFAULT_POLICY,
    ForcedSelection,
    ops as registered_ops,
    resolve_policy,
)
from repro.mpi.runtime import PAYLOAD_MODES
from repro.simulator import ENGINE_VERSION

__all__ = [
    "MACHINES",
    "SweepPoint",
    "ResultCache",
    "cache_key",
    "model_for",
    "point_name",
    "point_seed",
    "expand_spec",
    "figure_points",
    "run_point",
    "evaluate",
    "store_record",
    "run_sweep",
    "check_against_bench",
    "default_cache",
    "main",
]

#: Machine presets addressable from a sweep spec, by name.  Each maps
#: ``name -> factory(num_nodes)``; a point's ``transport`` field (if
#: set) overrides the node transport of whatever the factory built.
MACHINES = {
    "hazel_hen": _presets.hazel_hen,
    "hazel_hen_flat": _presets.hazel_hen_flat,
    "hazel_hen_2s": _presets.hazel_hen_2s,
    "vulcan": _presets.vulcan,
    "testing": _presets.testing_machine,
}

#: Environment variable naming a cache directory that the figure
#: harness (``Figure.run``) transparently reads/writes through
#: :func:`default_cache`.
CACHE_ENV = "REPRO_SWEEP_CACHE"

#: Test hook: when set (seconds, float), :func:`run_point` sleeps that
#: long before executing — used by the timeout/retry tests to make a
#: point predictably slow.  Never set this outside tests.
TEST_DELAY_ENV = "REPRO_SWEEP_TEST_DELAY"

#: Workload kinds, each with the ``params`` keys it accepts (the
#: latency loop's are Hy_Allgather's ablation knobs and the rank
#: ``order``; see docs/sweeps.md).
WORKLOADS = {
    "latency": ("sync", "pipelined", "chunk_bytes", "pack_datatypes",
                "order"),
    "overlap": (),
    "summa": ("block", "detour_rate"),
    "bpmf": ("iterations",),
    "multileader": ("leaders",),
}
#: Application kinds: they time a whole program, not a message size.
_APPS = ("summa", "bpmf")

@dataclass(frozen=True)
class SweepPoint:
    """One independent measurement point of a sweep.

    Attributes
    ----------
    machine:
        Preset name (a key of :data:`MACHINES`).
    counts:
        Per-node rank counts in block order (``Placement.irregular``
        semantics); ``(24, 24, 16)`` is two full nodes plus one
        16-rank straggler.
    nbytes:
        Per-rank payload bytes.
    variant:
        ``"hybrid"`` (the paper's Hy_Allgather) or ``"pure"``
        (tuned pure-MPI allgather/allgatherv).
    engine:
        ``"sim"`` (discrete-event simulator) or ``"model"``
        (closed-form analytic model).
    op / algo:
        Explicit operation / algorithm.  A simulator point runs the
        variant's collective, so its ``op`` may only name that one
        (``hy_allgather``, else ``allgather``/``allgatherv`` by the
        population); a set ``algo`` is forced through
        ``ForcedSelection``.  A model point prices any registered
        ``op``; both default from the variant, and without ``algo``
        the decision table's pick is priced.
    transport:
        On-node transport override (``None`` keeps the preset's).
    socket_mode:
        Slot→socket mapping for multi-socket nodes
        (``compact``/``scatter``/``balanced``).
    payload:
        Simulator payload mode (virtual-time results are independent of
        it; it is still part of the cache key).
    workload:
        The program a simulator point runs (a key of
        :data:`WORKLOADS`): ``"latency"`` (blocking OSU latency, the
        default), ``"overlap"`` (the OSU communication/computation
        overlap protocol of :mod:`repro.bench.overlap`; ``latency_us``
        is then the *effective* — exposed — latency), ``"summa"`` /
        ``"bpmf"`` (the paper's applications; ``latency_us`` is the
        slowest rank's total time, ``variant="pure"`` is the paper's
        Ori code) or ``"multileader"`` (one timed multi-leader pure-MPI
        allgather).  Only the OSU loop runs under the replay cache's
        loop mode; every other kind runs with replay off.
    compute_grain:
        Overlap workload only: the compute grain as a multiple of the
        blocking latency (1.0 = the OSU default).  Part of the cache
        key — two overlap points differing only in grain are distinct
        entries.
    params:
        The workload's parameters (see :data:`WORKLOADS`), given as a
        mapping and stored as sorted ``(key, value)`` pairs.  Empty
        means the program's defaults, and an empty ``params`` is left
        out of :meth:`to_dict`.

    >>> p = SweepPoint(machine="testing", counts=(2, 2), nbytes=64)
    >>> p.is_irregular
    False
    >>> SweepPoint(machine="testing", counts=(4, 2), nbytes=8).is_irregular
    True
    >>> p == SweepPoint.from_dict(p.to_dict())
    True
    """

    machine: str = "hazel_hen"
    counts: tuple = (24,)
    nbytes: int = 8
    variant: str = "hybrid"
    engine: str = "sim"
    op: str | None = None
    algo: str | None = None
    transport: str | None = None
    socket_mode: str = "compact"
    payload: str = "cost-only"
    workload: str = "latency"
    compute_grain: float = 1.0
    params: tuple = ()

    def __post_init__(self):
        # Equal points must serialize equally (``cache_key`` is memoised
        # on the point): 8 == 8.0 == True, but their JSON differs.
        if type(self.nbytes) is not int:
            nbytes = int(self.nbytes)
            if nbytes != self.nbytes:
                raise ValueError(
                    f"nbytes must be an integer, not {self.nbytes!r}")
            object.__setattr__(self, "nbytes", nbytes)
        if type(self.compute_grain) is not float:
            object.__setattr__(self, "compute_grain",
                               float(self.compute_grain))
        object.__setattr__(self, "counts", tuple(map(int, self.counts)))
        if self.params != ():
            object.__setattr__(self, "params",
                               tuple(sorted(dict(self.params).items())))
        if self.machine not in MACHINES:
            raise ValueError(
                f"unknown machine {self.machine!r}; "
                f"known: {', '.join(sorted(MACHINES))}"
            )
        if self.variant not in ("hybrid", "pure"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.engine not in ("sim", "model"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.socket_mode not in Placement.SOCKET_MODES:
            raise ValueError(
                f"unknown socket_mode {self.socket_mode!r}; "
                f"known: {', '.join(Placement.SOCKET_MODES)}"
            )
        if self.transport is not None and self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; "
                f"known: {', '.join(sorted(TRANSPORTS))}"
            )
        if not self.counts or min(self.counts) < 1:
            raise ValueError("counts must be non-empty positive ints")
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.payload not in PAYLOAD_MODES:
            raise ValueError(f"unknown payload {self.payload!r}; known: "
                             f"{', '.join(PAYLOAD_MODES)}")
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        unknown = {k for k, _v in self.params} - set(WORKLOADS[self.workload])
        if unknown:
            raise ValueError(f"unknown {self.workload} param(s): "
                             f"{', '.join(sorted(unknown))}")
        if self.engine == "model" and (
                self.params or self.workload not in ("latency", "overlap")):
            raise ValueError("the model engine prices only the plain "
                             "latency and overlap workloads")
        if self.compute_grain < 0:
            raise ValueError("compute_grain must be non-negative")
        if self.op is None:
            return
        if self.engine == "model":
            if self.op not in registered_ops():
                raise ValueError(
                    f"unknown op {self.op!r}; known: "
                    f"{', '.join(sorted(registered_ops()))}")
        elif self.op != self._variant_op:
            raise ValueError(
                f"a {self.variant} simulator point on counts {self.counts} "
                f"runs {self._variant_op!r}, not op={self.op!r}")

    # -- derived views ---------------------------------------------------
    @property
    def is_irregular(self) -> bool:
        """True when nodes carry unequal rank counts (→ allgatherv)."""
        return len(set(self.counts)) > 1

    @property
    def _variant_op(self) -> str:
        """The collective the variant measures on this population."""
        if self.variant == "hybrid":
            return "hy_allgather"
        return "allgatherv" if self.is_irregular else "allgather"

    @property
    def resolved_op(self) -> str:
        """The collective this point measures (explicit or derived)."""
        return self.op or self._variant_op

    def spec(self) -> MachineSpec:
        """The resolved :class:`~repro.machine.model.MachineSpec`."""
        return _machine_of(self).spec

    def placement(self) -> Placement:
        """The rank→node (and slot→socket) map of this point."""
        if dict(self.params).get("order") == "round_robin":
            if self.is_irregular:
                raise ValueError("round_robin order needs equal counts")
            pl = Placement.round_robin(len(self.counts), self.counts[0])
        else:
            pl = Placement.irregular(list(self.counts))
        if self.socket_mode != "compact":
            pl = pl.with_socket_mode(self.socket_mode)
        return pl

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON form (round-trips via :meth:`from_dict`)."""
        doc = {
            f.name: (list(v) if isinstance(v := getattr(self, f.name), tuple)
                     else v)
            for f in fields(self)
        }
        if self.params:
            doc["params"] = dict(self.params)
        else:
            del doc["params"]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepPoint":
        """Rebuild a point from :meth:`to_dict` output."""
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown point field(s): {', '.join(sorted(unknown))}"
            )
        return cls(**doc)


def point_name(point: SweepPoint) -> str:
    """Stable human-readable point id, matching the committed
    ``BENCH_*.json`` key scheme for the canonical figure configs.

    Uniform populations render as ``n<nodes>x<ppn>``, irregular ones as
    ``r<ranks>``; message sizes as ``<n>el`` (8-byte elements) when the
    byte count divides evenly, else ``<n>B``; an application kind
    (SUMMA, BPMF) names itself in place of the size.  Non-default axes
    (algorithm, transport, socket mode, workload, params, model engine)
    append suffixes so grid points never collide.

    >>> point_name(SweepPoint(machine="hazel_hen", counts=(24,) * 4,
    ...                       nbytes=4096, variant="pure"))
    'n4x24/512el/pure'
    >>> point_name(SweepPoint(machine="hazel_hen", counts=(24, 16),
    ...                       nbytes=12, variant="hybrid", engine="model",
    ...                       algo="shared_window"))
    'r40/12B/hybrid/shared_window/model'
    >>> point_name(SweepPoint(counts=(24, 24, 16), workload="summa",
    ...                       params={"block": 64}))
    'r64/summa/hybrid/block=64'
    """
    if point.is_irregular:
        shape = f"r{sum(point.counts)}"
    else:
        shape = f"n{len(point.counts)}x{point.counts[0]}"
    if point.workload in _APPS:
        size = point.workload
    elif point.nbytes % 8 == 0 and point.nbytes > 0:
        size = f"{point.nbytes // 8}el"
    else:
        size = f"{point.nbytes}B"
    name = f"{shape}/{size}/{point.variant}"
    if point.algo:
        name += f"/{point.algo}"
    if point.transport:
        name += f"/{point.transport}"
    if point.socket_mode != "compact":
        name += f"/{point.socket_mode}"
    if point.workload == "overlap":
        name += f"/overlap{point.compute_grain:g}"
    elif point.workload == "multileader":
        name += "/multileader"
    if point.params:
        name += "/" + ",".join(f"{k}={v}" for k, v in point.params)
    if point.engine != "sim":
        name += f"/{point.engine}"
    return name


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class _Machine(NamedTuple):
    """A point's resolved machine, built once per configuration."""

    spec: MachineSpec
    #: Canonical JSON of ``spec.describe()`` — the machine half of
    #: every :func:`cache_key`.
    description: str
    fingerprint: str


@functools.lru_cache(maxsize=256)
def _resolved_machine(machine: str, nodes: int,
                      transport: str | None) -> _Machine:
    """*nodes* nodes of preset *machine* under the *transport*
    override, resolved and described once instead of once per point."""
    built = MACHINES[machine](nodes)
    if transport and transport != built.node.transport:
        built = replace(built, node=replace(built.node, transport=transport))
    return _Machine(built, _canonical(built.describe()), built.fingerprint())


def _machine_of(point: SweepPoint) -> _Machine:
    return _resolved_machine(point.machine, len(point.counts),
                             point.transport)


@functools.lru_cache(maxsize=128)
def _cost_model(machine: str, counts: tuple, transport: str,
                socket_mode: str) -> CostModel:
    spec = _resolved_machine(machine, len(counts), transport).spec
    return CostModel(spec, counts, socket_mode=socket_mode)


def model_for(point: SweepPoint) -> CostModel:
    """The :class:`~repro.analysis.model.CostModel` pricing *point*'s
    configuration — one shared instance per resolved (machine, counts,
    transport, socket mode), so every candidate of a ``/best`` request
    or a sweep grid reuses one construction and one prediction memo.
    Bounded: the least recently used configuration is dropped."""
    return _cost_model(point.machine, point.counts,
                       point.spec().node.transport, point.socket_mode)


def point_seed(point: SweepPoint) -> int:
    """Deterministic 32-bit seed derived from the point content alone
    (no version inputs, so a seed survives engine upgrades).  Forwarded
    to stochastic extensions (noise models); the baseline simulator is
    deterministic and ignores it.

    >>> a = point_seed(SweepPoint(machine="testing", counts=(2,), nbytes=8))
    >>> a == point_seed(SweepPoint(machine="testing", counts=(2,), nbytes=8))
    True
    >>> 0 <= a < 2 ** 32
    True
    """
    digest = hashlib.sha256(
        _canonical(point.to_dict()).encode()).hexdigest()
    return int(digest[:8], 16)


def cache_key(point: SweepPoint) -> str:
    """Content address of a point's result: SHA-256 over the resolved
    machine description (every hardware constant, sockets/transport
    included), the topology kind, the full point description, the OSU
    repetition settings, the executing engine's version and — for a
    simulator point without a forced ``algo`` whose environment
    (``REPRO_COLL_POLICY``, ``REPRO_COLL_<OP>``) selects other than the
    default tables — that selection policy's description; for a model
    point without ``algo``, the algorithm the table picks for it.

    Any change to any input — a preset recalibration, a different
    transport, an engine bump — changes the key, so stale cache entries
    are simply never addressed again (see docs/sweeps.md for the
    invalidation rules).  The digest is memoised on *everything* it
    folds in, not on the point alone, so a repeated point costs a
    lookup and a changed version constant still changes the key.

    >>> p = SweepPoint(machine="testing", counts=(2, 2), nbytes=64)
    >>> cache_key(p) == cache_key(SweepPoint.from_dict(p.to_dict()))
    True
    >>> cache_key(p) != cache_key(replace(p, nbytes=128))
    True
    >>> cache_key(p) != cache_key(replace(p, transport="pip_direct"))
    True
    """
    from repro.bench import osu

    if point.engine == "model":
        versions = (("model_version", MODEL_VERSION),)
        if not point.algo:
            # The table's pick, so a point priced under another pick
            # (an older table, or a tuning change) is never served.
            versions += (("algo", _model_algo(point, model_for(point))),)
    else:
        versions = (("engine_version", ENGINE_VERSION),
                    ("reps", osu.DEFAULT_REPS),
                    ("warmup", osu.DEFAULT_WARMUP))
        if not point.algo:
            policy = resolve_policy(None).describe()
            if policy != DEFAULT_POLICY.describe():
                versions += (("policy", policy),)
    return _key_digest(point, _machine_of(point).description, versions)


@functools.lru_cache(maxsize=4096)
def _key_digest(point: SweepPoint, description: str,
                versions: tuple) -> str:
    members = {
        "machine": description,
        "point": _canonical(point.to_dict()),
        **{name: _canonical(value) for name, value in versions},
    }
    # Canonical JSON of the whole document is its members' canonical
    # JSON joined in key order — the (memoised) machine description is
    # spliced in, not re-serialized per point.
    doc = ",".join(f'"{name}":{members[name]}' for name in sorted(members))
    return hashlib.sha256(f"{{{doc}}}".encode()).hexdigest()


# ---------------------------------------------------------------------------
# Content-addressed result cache
# ---------------------------------------------------------------------------

class ResultCache:
    """Content-addressed on-disk store of point results.

    Entries live under ``<root>/objects/<k[:2]>/<k>.json`` where ``k``
    is the :func:`cache_key`; writes are atomic (temp file + rename) so
    concurrent sweeps sharing a cache directory are safe.  The instance
    tracks session hit/miss/put counters; :meth:`stats` adds the
    on-disk totals.

    The disk is the truth.  :meth:`get` keeps what it last parsed from
    an entry and reuses it only while the file's ``(st_ino,
    st_mtime_ns, st_size)`` is what it was at that read, so an entry
    overwritten, corrupted or removed by anyone is seen by the next
    lookup; at most :attr:`MEMO_ENTRIES` parses are kept (oldest
    dropped first).  Documents returned by :meth:`get` are therefore
    shared between callers — read them, do not mutate them.
    """

    #: Bound on the parsed entries one instance keeps.
    MEMO_ENTRIES = 4096

    def __init__(self, root: str):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: Misses whose file existed but was not an entry for its key.
        self.corrupt = 0
        #: Lookups answered without opening a file.
        self.memo_hits = 0
        # key -> (stat signature, parsed entry | None when corrupt)
        self._memo: dict[str, tuple[tuple, dict | None]] = {}
        self._memo_lock = threading.Lock()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], f"{key}.json")

    def get(self, key: str) -> dict | None:
        """The stored entry for *key*, or ``None`` (counts hit/miss).
        A file that is not an entry for *key* — not UTF-8, not JSON, not
        an object carrying ``"result"`` and this ``"key"`` — is a miss,
        counted in ``corrupt`` and overwritten by the next :meth:`put`."""
        path = self._path(key)
        try:
            st = os.stat(path)
            signature = (st.st_ino, st.st_mtime_ns, st.st_size)
            memo = self._memo.get(key)
            if memo is not None and memo[0] == signature:
                doc = memo[1]
                self.memo_hits += 1
            else:
                doc = self._read(key, path)
                self._remember(key, signature, doc)
        except FileNotFoundError:
            self.misses += 1
            return None
        if doc is None:
            self.corrupt += 1
            self.misses += 1
        else:
            self.hits += 1
        return doc

    @staticmethod
    def _read(key: str, path: str) -> dict | None:
        """Parse the entry file; ``None`` when it is not one for *key*."""
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError):
            return None
        if (isinstance(doc, dict) and doc.get("key") == key
                and isinstance(doc.get("result"), dict)):
            return doc
        return None

    def _remember(self, key: str, signature: tuple,
                  doc: dict | None) -> None:
        with self._memo_lock:
            self._memo[key] = (signature, doc)
            if len(self._memo) > self.MEMO_ENTRIES:
                del self._memo[next(iter(self._memo))]

    def put(self, key: str, doc: dict) -> str:
        """Store *doc* under *key* atomically; returns the entry path."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        # Not left to the signature: a same-size rewrite within one
        # timestamp tick can land on a recycled inode number.
        with self._memo_lock:
            self._memo.pop(key, None)
        self.puts += 1
        return path

    def _entries(self) -> Iterable[str]:
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for entry in sorted(os.listdir(shard_dir)):
                if entry.endswith(".json"):
                    yield os.path.join(shard_dir, entry)

    def stats(self) -> dict:
        """On-disk entry count/bytes plus this session's counters."""
        entries = 0
        nbytes = 0
        for path in self._entries():
            entries += 1
            nbytes += os.path.getsize(path)
        return {
            "root": self.root,
            "entries": entries,
            "bytes": nbytes,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt": self.corrupt,
            "memo_hits": self.memo_hits,
        }

    def gc(self, older_than: float | None = None,
           everything: bool = False) -> int:
        """Remove entries; returns how many were deleted.

        With *older_than* (seconds) only entries whose mtime is older
        than that age go; ``everything=True`` clears the store.  Stale
        entries (written under an older engine/model version or machine
        calibration) are never *addressed* again — their keys changed —
        so gc is about disk space, not correctness.
        """
        now = time.time()
        removed = 0
        for path in list(self._entries()):
            if not everything:
                if older_than is None:
                    continue
                if now - os.path.getmtime(path) <= older_than:
                    continue
            try:
                os.remove(path)
                removed += 1
            except FileNotFoundError:
                pass
        return removed


def default_cache() -> ResultCache | None:
    """The process-wide cache named by ``$REPRO_SWEEP_CACHE`` (used
    transparently by the figure harness), or ``None`` when unset."""
    root = os.environ.get(CACHE_ENV)
    return ResultCache(root) if root else None


# ---------------------------------------------------------------------------
# Point execution
# ---------------------------------------------------------------------------

def run_point(point: SweepPoint) -> dict:
    """Execute one point (no cache) and return its result record:
    ``latency_us``/``latency_s``, ``events`` (0 for the model engine),
    ``wall_s``, ``events_per_s``, ``engine``, ``seed``.

    Virtual-time fields depend only on the point (deterministic
    engines); ``wall_s``/``events_per_s`` are wall-clock measurements
    and vary run to run.
    """
    delay = os.environ.get(TEST_DELAY_ENV)
    if delay:
        time.sleep(float(delay))
    if point.engine == "model":
        return _run_model_point(point)
    return _run_sim_point(point)


def _workload(point: SweepPoint) -> tuple[Any, dict, Any, Any]:
    """The rank program of a simulator point's workload kind, its
    keyword arguments, the kind's replay mode and its noise model."""
    from repro.bench import osu

    params = dict(point.params)
    app_variant = "ori" if point.variant == "pure" else "hybrid"
    if point.workload == "latency":
        # The OSU latency loop is align-disciplined, so the replay
        # cache's loop mode applies (virtual time is bit-identical
        # either way; see tests/bench/test_replay_equivalence.py).
        params.pop("order", None)
        kwargs = {"nbytes_per_rank": point.nbytes, **params}
        if point.variant == "pure":
            if point.is_irregular:
                kwargs["irregular"] = True
            return osu.pure_allgather_program, kwargs, "loop", None
        if "sync" in kwargs:
            from repro.core.sync import BarrierSync, FlagSync

            kwargs["sync"] = {"barrier": BarrierSync,
                              "flags": FlagSync}[kwargs["sync"]]()
        return osu.hybrid_allgather_program, kwargs, "loop", None
    # Every other kind interleaves its collectives with compute or
    # point-to-point traffic (or times one call), which replay's
    # quiescence predicate would veto anyway: no session at all.
    if point.workload == "overlap":
        from repro.bench.overlap import overlap_program

        return overlap_program, {
            "nbytes": point.nbytes, "variant": point.variant,
            "compute_factor": point.compute_grain,
        }, False, None
    if point.workload == "multileader":
        return osu.multileader_allgather_program, {
            "nbytes_per_rank": point.nbytes, **params,
        }, False, None
    if point.workload == "bpmf":
        from repro.apps.bpmf import BPMFConfig, bpmf_program

        return bpmf_program, {
            "config": BPMFConfig(variant=app_variant, **params),
        }, False, None
    from repro.apps.summa import SummaConfig, summa_program
    from repro.machine.noise import NoiseModel

    rate = params.pop("detour_rate", 0.0)
    noise = NoiseModel(jitter=0.02, detour_rate=rate) if rate else None
    return summa_program, {
        "config": SummaConfig(variant=app_variant, **params),
    }, False, noise


def _run_sim_point(point: SweepPoint) -> dict:
    from repro.mpi import run_program

    program, kwargs, replay, noise = _workload(point)
    policy = None
    if point.algo:
        policy = ForcedSelection({point.resolved_op: point.algo})
    t0 = time.perf_counter()
    result = run_program(
        point.spec(), None, program,
        placement=point.placement(),
        payload=point.payload,
        policy=policy,
        replay=replay,
        noise=noise,
        program_kwargs=kwargs,
    )
    wall = time.perf_counter() - t0
    extra: dict[str, float] = {}
    if point.workload == "overlap":
        t_pure = max(r["pure"] for r in result.returns)
        t_compute = max(r["compute"] for r in result.returns)
        t_overall = max(r["overall"] for r in result.returns)
        latency = max(t_overall - t_compute, 0.0)  # effective (exposed)
        extra = {
            "pure_us": t_pure * 1e6,
            "overall_us": t_overall * 1e6,
            "compute_us": t_compute * 1e6,
            "overlap_pct": round(
                100.0 * (1.0 - latency / t_pure) if t_pure > 0 else 0.0, 2
            ),
        }
    elif point.workload in _APPS:
        latency = max(r["total"] for r in result.returns)
    else:
        latency = max(result.returns)
    events = result.events_processed
    if result.replay_hits or result.replay_misses:
        extra["replay"] = {
            "hits": result.replay_hits,
            "misses": result.replay_misses,
            "events_saved": result.replay_events_saved,
        }
    return {
        "latency_us": latency * 1e6,
        "latency_s": latency,
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_s": round(events / wall, 1) if wall > 0 else 0.0,
        "engine": "sim",
        "seed": point_seed(point),
        **extra,
    }


def _model_algo(point: SweepPoint, model: CostModel) -> str:
    """A model point's algorithm: its ``algo``, else what the simulator's
    decision table dispatches for the same call."""
    return point.algo or model.table_algo(point.resolved_op, point.nbytes)


def _run_model_point(point: SweepPoint) -> dict:
    op = point.resolved_op
    t0 = time.perf_counter()
    model = model_for(point)
    algo = _model_algo(point, model)
    extra: dict[str, float] = {}
    if point.workload == "overlap":
        total = model.predict(op, algo, point.nbytes)
        floor = min(model.predict(op, algo, 1.0), total)
        grain = total * point.compute_grain
        latency = floor + max(0.0, (total - floor) - grain)
        extra = {
            "pure_us": total * 1e6,
            "compute_us": grain * 1e6,
            "overlap_pct": round(
                100.0 * (total - latency) / total if total > 0 else 0.0, 2
            ),
        }
    else:
        latency = model.predict(op, algo, point.nbytes)
    wall = time.perf_counter() - t0
    return {
        "latency_us": latency * 1e6,
        "latency_s": latency,
        "events": 0,
        "wall_s": round(wall, 6),
        "events_per_s": 0.0,
        "engine": "model",
        "seed": point_seed(point),
        **extra,
    }


def store_record(cache: ResultCache, point: SweepPoint,
                 record: dict) -> str:
    """Store a computed *record* for *point* under its content address;
    returns the cache key."""
    key = cache_key(point)
    cache.put(key, {
        "key": key,
        "name": point_name(point),
        "point": point.to_dict(),
        "machine_fingerprint": _machine_of(point).fingerprint,
        "created": time.time(),
        "result": record,
    })
    return key


def evaluate(point: SweepPoint,
             cache: ResultCache | None = None) -> tuple[dict, str]:
    """Answer one point from *cache* or by running it; returns
    ``(record, source)`` with source ``"cache"`` or ``"computed"``.
    Computed results are stored before returning."""
    if cache is None:
        return run_point(point), "computed"
    stored = cache.get(cache_key(point))
    if stored is not None:
        return stored["result"], "cache"
    record = run_point(point)
    store_record(cache, point, record)
    return record, "computed"


# ---------------------------------------------------------------------------
# Spec expansion
# ---------------------------------------------------------------------------

#: Spec keys that may be lists (swept axes).
_AXES = ("machine", "elements", "nbytes", "variant", "algo", "transport",
         "socket_mode", "ppn", "engine", "compute_grain")
_SCALARS = ("nodes", "counts", "payload", "op", "workload")


def _listify(value) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def expand_spec(spec: dict) -> list[SweepPoint]:
    """Expand a declarative sweep spec into its point grid.

    The spec is a JSON object.  Population comes from either
    ``counts`` (explicit per-node rank list) or ``nodes`` + ``ppn``;
    message sizes from ``elements`` (8-byte elements) or ``nbytes``.
    ``machine``, ``elements``/``nbytes``, ``variant``, ``algo``,
    ``transport``, ``socket_mode``, ``ppn``, ``engine`` and
    ``compute_grain`` may be lists — the grid is their Cartesian
    product, in deterministic (input) order.  ``workload`` (scalar)
    switches every point to the overlap protocol.  Unknown keys are
    rejected.

    >>> pts = expand_spec({"machine": "testing", "nodes": 2, "ppn": 2,
    ...                    "elements": [1, 8], "variant": ["hybrid", "pure"]})
    >>> [point_name(p) for p in pts]
    ['n2x2/1el/hybrid', 'n2x2/1el/pure', 'n2x2/8el/hybrid', 'n2x2/8el/pure']
    >>> expand_spec({"machine": "testing", "nodes": 2, "ppn": 2,
    ...              "sizes": [1]})
    Traceback (most recent call last):
        ...
    ValueError: unknown sweep spec key(s): sizes
    """
    unknown = set(spec) - set(_AXES) - set(_SCALARS)
    if unknown:
        raise ValueError(
            f"unknown sweep spec key(s): {', '.join(sorted(unknown))}"
        )
    if "counts" in spec and ("ppn" in spec or "nodes" in spec):
        raise ValueError("give either counts or nodes+ppn, not both")
    if "elements" in spec and "nbytes" in spec:
        raise ValueError("give either elements or nbytes, not both")

    machines = _listify(spec.get("machine", "hazel_hen"))
    if "elements" in spec:
        sizes = [int(e) * 8 for e in _listify(spec["elements"])]
    else:
        sizes = [int(b) for b in _listify(spec.get("nbytes", 8))]
    variants = _listify(spec.get("variant", "hybrid"))
    algos = _listify(spec.get("algo", None))
    transports = _listify(spec.get("transport", None))
    socket_modes = _listify(spec.get("socket_mode", "compact"))
    engines = _listify(spec.get("engine", "sim"))
    grains = [float(g) for g in _listify(spec.get("compute_grain", 1.0))]
    if "counts" in spec:
        counts_axis = [tuple(int(c) for c in spec["counts"])]
    else:
        nodes = int(spec.get("nodes", 1))
        counts_axis = [
            (int(ppn),) * nodes for ppn in _listify(spec.get("ppn", 24))
        ]

    points = []
    for machine, counts, transport, socket_mode, nbytes, variant, algo, \
            engine, grain in itertools.product(
                machines, counts_axis, transports, socket_modes, sizes,
                variants, algos, engines, grains):
        points.append(SweepPoint(
            machine=machine, counts=counts, nbytes=nbytes, variant=variant,
            engine=engine, op=spec.get("op"), algo=algo, transport=transport,
            socket_mode=socket_mode,
            payload=spec.get("payload", "cost-only"),
            workload=spec.get("workload", "latency"),
            compute_grain=grain,
        ))
    return points


#: Labels naming the Fig 7/9/10 pin grids rather than a registered
#: figure (``fig7`` and ``fig10`` are also figure ids).
PIN_GRIDS = ("fig7", "fig9", "fig10")


def figure_points(label: str,
                  quick: bool = False) -> list[tuple[str, SweepPoint]]:
    """The named point list ``repro-sweep run --figure`` runs and the
    committed ``BENCH_<label>.json`` pins (``--check-bench``).

    ``fig7``/``fig9``/``fig10`` are the canonical Fig 7/9/10 pin grids;
    any other label is a registered figure id (``repro-bench --list``),
    whose rows' points are returned — the quick grid with *quick*, the
    paper grid without.

    >>> [name for name, _ in figure_points("fig7")][:2]
    ['n1x24/1el/hybrid', 'n1x24/1el/pure']
    >>> len(figure_points("fig9", quick=True))
    6
    >>> figure_points("fig11b", quick=True)[0][0]
    'n1x4/summa/pure/block=64'
    """
    if label not in PIN_GRIDS:
        from repro.bench.figures import get_figure

        try:
            figure = get_figure(label)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        return figure.points("quick" if quick else "paper")
    points: list[tuple[str, SweepPoint]] = []
    if label == "fig7":
        for elements in (1, 1024, 16384):
            for variant in ("hybrid", "pure"):
                points.append((f"n1x24/{elements}el/{variant}", SweepPoint(
                    machine="hazel_hen", counts=(24,),
                    nbytes=elements * 8, variant=variant)))
    elif label == "fig9":
        nodes = 4 if quick else 16
        for ppn in (3, 12, 24):
            for variant in ("hybrid", "pure"):
                points.append((f"n{nodes}x{ppn}/512el/{variant}", SweepPoint(
                    machine="hazel_hen", counts=(ppn,) * nodes,
                    nbytes=512 * 8, variant=variant)))
    else:
        counts = tuple([24] * 6 + [16]) if quick else tuple([24] * 42 + [16])
        ranks = sum(counts)
        for elements in (1, 1024, 16384):
            for variant in ("hybrid", "pure"):
                points.append((f"r{ranks}/{elements}el/{variant}", SweepPoint(
                    machine="hazel_hen", counts=counts,
                    nbytes=elements * 8, variant=variant)))
    return points


# ---------------------------------------------------------------------------
# The orchestrator
# ---------------------------------------------------------------------------

def _run_chunk_task(point_docs: list[dict]) -> list[dict]:
    """Worker-side entry: run a chunk of points, catching per-point
    errors so one bad point never poisons its chunk-mates."""
    out = []
    for doc in point_docs:
        try:
            out.append({"result": run_point(SweepPoint.from_dict(doc))})
        except Exception as exc:  # noqa: BLE001 — reported, not swallowed
            out.append({"error": f"{type(exc).__name__}: {exc}"})
    return out


def _chunks(seq: list, size: int) -> list[list]:
    return [seq[i:i + size] for i in range(0, len(seq), size)]


def run_sweep(points: Sequence[SweepPoint],
              cache: ResultCache | None = None,
              workers: int = 0,
              timeout: float | None = None,
              retries: int = 1,
              chunksize: int = 1,
              progress: bool = False,
              names: Sequence[str] | None = None) -> dict:
    """Run a sweep: cache lookups first, then the misses — serially
    (``workers=0``) or sharded over *workers* processes in chunks of
    *chunksize* points.

    Each miss gets ``1 + retries`` attempts; a chunk that exceeds
    *timeout* seconds per point (workers > 0 only — a serial run cannot
    preempt itself) or raises is retried and, when attempts run out,
    recorded as a **structured failure record** in the report instead
    of crashing the sweep.  Results are written back to *cache* in the
    parent process.

    Points are reported under *names* (default: each one's
    :func:`point_name`), which must be unique.  Returns the sweep
    report::

        {"points": {name: record},        # input order
         "failures": [{"name", "point", "error", "attempts"}, ...],
         "counters": {"points", "hits", "misses", "computed",
                      "failed", "retried"},
         "cache": cache.stats() | None, "workers": ..., "wall_s": ...}

    Determinism: virtual-time fields of every record are independent of
    *workers* — a parallel run is bit-identical to a serial one.
    """
    t0 = time.perf_counter()
    if names is None:
        names = [point_name(p) for p in points]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"sweep points collide: {', '.join(dupes)}")

    records: dict[str, dict] = {}
    sources: dict[str, str] = {}
    failures: list[dict] = []
    retried = 0

    # Phase 1: answer what the cache already holds.
    misses: list[tuple[str, SweepPoint]] = []
    for name, point in zip(names, points):
        stored = cache.get(cache_key(point)) if cache is not None else None
        if stored is not None:
            records[name] = stored["result"]
            sources[name] = "cache"
            if progress:
                print(f"  {name}: cache hit", file=sys.stderr, flush=True)
        else:
            misses.append((name, point))

    # Phase 2: compute the misses.
    def _store(name: str, point: SweepPoint, record: dict) -> None:
        records[name] = record
        sources[name] = "computed"
        if cache is not None:
            store_record(cache, point, record)
        if progress:
            print(f"  {name}: computed ({record['wall_s']}s wall)",
                  file=sys.stderr, flush=True)

    if workers <= 0:
        for name, point in misses:
            attempts = 0
            while True:
                attempts += 1
                try:
                    _store(name, point, run_point(point))
                    break
                except Exception as exc:  # noqa: BLE001
                    if attempts <= retries:
                        retried += 1
                        continue
                    failures.append({
                        "name": name, "point": point.to_dict(),
                        "error": f"{type(exc).__name__}: {exc}",
                        "attempts": attempts,
                    })
                    break
    elif misses:
        pending = list(misses)
        attempts = {name: 0 for name, _ in misses}
        round_no = 0
        while pending and round_no <= retries:
            if round_no > 0:
                retried += len(pending)
            # Retry rounds run one point per task to isolate the slow one.
            size = chunksize if round_no == 0 else 1
            chunks = _chunks(pending, max(1, size))
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers
            )
            futures = [
                (pool.submit(_run_chunk_task,
                             [p.to_dict() for _n, p in chunk]), chunk)
                for chunk in chunks
            ]
            next_round: list[tuple[str, SweepPoint]] = []
            timed_out = False
            for future, chunk in futures:
                chunk_timeout = (
                    None if timeout is None else timeout * len(chunk)
                )
                for _name, _point in chunk:
                    attempts[_name] += 1
                try:
                    results = future.result(timeout=chunk_timeout)
                except concurrent.futures.TimeoutError:
                    timed_out = True
                    next_round.extend(chunk)
                    continue
                except Exception as exc:  # noqa: BLE001 — pool breakage
                    for name, point in chunk:
                        next_round.append((name, point))
                    continue
                for (name, point), outcome in zip(chunk, results):
                    if "result" in outcome:
                        _store(name, point, outcome["result"])
                    else:
                        next_round.append((name, point))
            # A timed-out worker may still be running; abandon the pool
            # without waiting so retries start on fresh processes.
            pool.shutdown(wait=not timed_out, cancel_futures=True)
            pending = next_round
            round_no += 1
        for name, point in pending:
            failures.append({
                "name": name, "point": point.to_dict(),
                "error": "timeout" if timeout is not None else "error",
                "attempts": attempts[name],
            })

    hits = sum(1 for s in sources.values() if s == "cache")
    computed = sum(1 for s in sources.values() if s == "computed")
    report = {
        "points": {n: records[n] for n in names if n in records},
        "sources": {n: sources[n] for n in names if n in sources},
        "failures": failures,
        "counters": {
            "points": len(points),
            "hits": hits,
            "misses": len(misses),
            "computed": computed,
            "failed": len(failures),
            "retried": retried,
        },
        "cache": cache.stats() if cache is not None else None,
        "workers": workers,
        "wall_s": round(time.perf_counter() - t0, 4),
    }
    return report


# ---------------------------------------------------------------------------
# BENCH conformance
# ---------------------------------------------------------------------------

def check_against_bench(report: dict, label: str,
                        bench_dir: str = ".") -> list[str]:
    """Compare a sweep report's virtual-time results with the committed
    ``BENCH_<label>.json``; returns a list of mismatch strings (empty =
    identical ``latency_us``/``events`` on every shared point)."""
    path = os.path.join(bench_dir, f"BENCH_{label}.json")
    if not os.path.exists(path):
        return [f"no committed BENCH_{label}.json in {bench_dir}"]
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for name, ref in bench.get("points", {}).items():
        mine = report["points"].get(name)
        if mine is None:
            problems.append(f"{name}: missing from the sweep report")
            continue
        for field_name in ("latency_us", "events"):
            if mine.get(field_name) != ref.get(field_name):
                problems.append(
                    f"{name}: {field_name} {mine.get(field_name)!r} != "
                    f"committed {ref.get(field_name)!r}"
                )
    return problems


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _point_from_args(args) -> SweepPoint:
    if args.counts:
        counts = tuple(int(c) for c in args.counts.split(","))
    else:
        counts = (args.ppn,) * args.nodes
    nbytes = args.nbytes if args.nbytes is not None else args.elements * 8
    return SweepPoint(
        machine=args.machine, counts=counts, nbytes=nbytes,
        variant=args.variant, engine=args.engine, algo=args.algo,
        transport=args.transport, socket_mode=args.socket_mode,
        workload=args.workload, compute_grain=args.compute_grain,
    )


def _cmd_run(args) -> int:
    if args.check_bench and not args.figure:
        print("--check-bench needs --figure: only a figure grid has a "
              "committed BENCH file", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache) if args.cache else None
    if args.figure:
        names, points = zip(*figure_points(args.figure, quick=args.quick))
    else:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                points = expand_spec(json.load(fh))
        except ValueError as exc:
            print(f"repro-sweep run: {args.spec}: {exc}", file=sys.stderr)
            return 2
        names = None
    report = run_sweep(
        points, cache=cache, workers=args.workers, timeout=args.timeout,
        retries=args.retries, chunksize=args.chunksize,
        progress=not args.quiet, names=names,
    )
    c = report["counters"]
    hit_rate = c["hits"] / c["points"] if c["points"] else 0.0
    print(f"{c['points']} points: {c['hits']} cache hits "
          f"({hit_rate:.0%}), {c['computed']} computed, "
          f"{c['failed']} failed, {report['wall_s']}s wall", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}", flush=True)
    rc = 1 if report["failures"] else 0
    if args.check_bench:
        problems = check_against_bench(report, args.figure, args.check_bench)
        for problem in problems:
            print(f"BENCH MISMATCH: {problem}", file=sys.stderr)
        if problems:
            rc = 1
        else:
            print(f"matches committed BENCH_{args.figure}.json "
                  "(latency_us and events identical)", flush=True)
    return rc


def _cmd_query(args) -> int:
    try:
        point = _point_from_args(args)
    except ValueError as exc:
        print(f"repro-sweep query: {exc}", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache) if args.cache else None
    key = cache_key(point)
    if args.cache_only:
        stored = cache.get(key) if cache is not None else None
        if stored is None:
            print(f"MISS {key}", file=sys.stderr)
            return 1
        record, source = stored["result"], "cache"
    else:
        record, source = evaluate(point, cache)
    print(json.dumps({
        "name": point_name(point), "key": key, "source": source,
        "result": record,
    }, indent=1, sort_keys=True))
    return 0


def _cmd_stats(args) -> int:
    print(json.dumps(ResultCache(args.cache).stats(), indent=1,
                     sort_keys=True))
    return 0


def _cmd_gc(args) -> int:
    cache = ResultCache(args.cache)
    removed = cache.gc(older_than=args.older_than, everything=args.all)
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
    return 0


def _cmd_serve(args) -> int:
    from repro.bench.service import serve

    serve(cache_dir=args.cache, host=args.host, port=args.port)
    return 0


def _add_point_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machine", default="hazel_hen",
                        choices=sorted(MACHINES))
    parser.add_argument("--nodes", type=int, default=1)
    parser.add_argument("--ppn", type=int, default=24)
    parser.add_argument("--counts", default=None,
                        help="per-node rank counts, comma separated "
                             "(overrides --nodes/--ppn)")
    parser.add_argument("--elements", type=int, default=1,
                        help="8-byte elements per rank")
    parser.add_argument("--nbytes", type=int, default=None,
                        help="bytes per rank (overrides --elements)")
    parser.add_argument("--variant", default="hybrid",
                        choices=("hybrid", "pure"))
    parser.add_argument("--engine", default="sim", choices=("sim", "model"))
    parser.add_argument("--algo", default=None)
    parser.add_argument("--transport", default=None)
    parser.add_argument("--socket-mode", dest="socket_mode",
                        default="compact",
                        choices=Placement.SOCKET_MODES)
    parser.add_argument("--workload", default="latency",
                        choices=("latency", "overlap"))
    parser.add_argument("--compute-grain", dest="compute_grain",
                        type=float, default=1.0,
                        help="overlap workload: compute grain as a "
                             "multiple of the blocking latency")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description=("Sharded sweep orchestrator with a content-addressed "
                     "result cache (see docs/sweeps.md)."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep (spec file or figure)")
    group = p_run.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="sweep spec JSON file")
    from repro.bench.figures import FIGURES

    group.add_argument("--figure",
                       choices=PIN_GRIDS + tuple(sorted(set(FIGURES)
                                                        - set(PIN_GRIDS))),
                       help="a Fig 7/9/10 pin grid, or any other figure "
                            "id's paper grid (--quick: its quick grid)")
    p_run.add_argument("--quick", action="store_true",
                       help="reduced figure grid (CI smoke)")
    p_run.add_argument("--cache", default=None, metavar="DIR")
    p_run.add_argument("--workers", type=int, default=0,
                       help="worker processes (0 = serial, the default)")
    p_run.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-point timeout, seconds (workers > 0)")
    p_run.add_argument("--retries", type=int, default=1,
                       help="extra attempts per failed point (default 1)")
    p_run.add_argument("--chunksize", type=int, default=1,
                       help="points per worker task (default 1)")
    p_run.add_argument("--out", default=None, help="write the report here")
    p_run.add_argument("--check-bench", metavar="DIR", default=None,
                       help="verify virtual-time results against the "
                            "committed BENCH_<figure>.json in DIR")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_query = sub.add_parser("query", help="answer one point")
    _add_point_args(p_query)
    p_query.add_argument("--cache", default=None, metavar="DIR")
    p_query.add_argument("--cache-only", action="store_true",
                         help="exit 1 on a cache miss instead of computing")
    p_query.set_defaults(fn=_cmd_query)

    p_stats = sub.add_parser("stats", help="cache statistics")
    p_stats.add_argument("--cache", required=True, metavar="DIR")
    p_stats.set_defaults(fn=_cmd_stats)

    p_gc = sub.add_parser("gc", help="delete cache entries")
    p_gc.add_argument("--cache", required=True, metavar="DIR")
    p_gc.add_argument("--older-than", type=float, default=None, metavar="S",
                      help="only entries older than S seconds")
    p_gc.add_argument("--all", action="store_true", help="clear the store")
    p_gc.set_defaults(fn=_cmd_gc)

    p_serve = sub.add_parser("serve", help="JSON-over-HTTP service mode")
    p_serve.add_argument("--cache", default=None, metavar="DIR")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8351)
    p_serve.set_defaults(fn=_cmd_serve)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    # Run the package's copy of this module: the figure registry builds
    # its points from ``repro.bench.sweep``, not from ``__main__``.
    from repro.bench.sweep import main as _main

    raise SystemExit(_main())
