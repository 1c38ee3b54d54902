"""Job runner: execute one generator program per MPI rank in virtual time.

The analogue of ``mpirun``: :class:`MPIJob` builds the engine, the
machine, the placement, the message engine, and ``COMM_WORLD``; spawns
one process per rank running the user *program*; and collects results and
statistics into a :class:`JobResult`.

A rank program is a generator taking the per-rank :class:`RankContext`::

    def program(mpi):
        comm = mpi.world
        token = yield from comm.bcast(np.arange(4.0), root=0)
        yield mpi.compute_flops(1e6, kind="gemm")   # charge compute time
        return float(token.sum())

    result = run_program(hazel_hen(4), nprocs=96, program=program)
    result.returns      # per-rank return values
    result.elapsed      # virtual seconds until the last rank finished
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.machine.model import Machine, MachineSpec
from repro.machine.noise import NoiseModel
from repro.machine.placement import Placement
from repro.mpi.collectives.registry import SelectionPolicy, resolve_policy
from repro.mpi.collectives.tuning import CollectiveTuning, tuning_for_machine
from repro.mpi.comm import Comm, _CommShared
from repro.mpi.datatypes import Bytes
from repro.mpi.group import Group
from repro.mpi.p2p import MessageEngine
from repro.mpi.profiler import CommProfile, aggregate_profiles
from repro.mpi.shm import win_allocate_shared
from repro.simulator import Engine, Event
from repro.trace import Tracer

import numpy as np

__all__ = ["RankContext", "MPIJob", "JobResult", "run_program"]


class RankContext:
    """Everything one simulated MPI rank can see.

    Attributes
    ----------
    world_rank:
        Rank in ``COMM_WORLD``.
    world:
        The world communicator view (:class:`~repro.mpi.comm.Comm`).
    engine, machine, placement:
        Shared simulation infrastructure.
    data_mode:
        True when payloads carry real NumPy data.
    """

    __slots__ = (
        "world_rank", "engine", "machine", "placement", "job",
        "world", "data_mode", "tuning", "policy", "trace", "_rng",
        "profile", "noise", "_noise_rng",
    )

    def __init__(self, job: "MPIJob", world_rank: int):
        self.job = job
        self.world_rank = world_rank
        self.engine = job.engine
        self.machine = job.machine
        self.placement = job.placement
        self.data_mode = job.payload_mode == "data"
        self.tuning = job.tuning
        self.policy = job.policy
        self.trace = job.tracer
        self.world: Comm = None  # type: ignore[assignment] - set by MPIJob
        self._rng = None
        self.profile = CommProfile()
        self.noise = job.noise
        self._noise_rng = (
            job.noise.stream_for(world_rank) if job.noise else None
        )

    @property
    def rng(self) -> np.random.Generator:
        """This rank's private generator, seeded ``job.seed + rank`` —
        built on first use: few programs draw from it."""
        if self._rng is None:
            self._rng = np.random.default_rng(self.job.seed + self.world_rank)
        return self._rng

    # -- identity ------------------------------------------------------------
    @property
    def node(self) -> int:
        """Machine node hosting this rank."""
        return self.placement.node_of(self.world_rank)

    @property
    def socket(self) -> int:
        """Socket domain hosting this rank (0 on flat nodes)."""
        return self.machine.socket_of(self.world_rank)

    @property
    def now(self) -> float:
        """Current virtual time, seconds."""
        return self.engine.now

    @property
    def msg_engine(self) -> MessageEngine:
        """The job-wide message engine (used by Comm internals)."""
        return self.job.msg_engine

    # -- compute charging ------------------------------------------------------
    def compute(self, seconds: float, kind: str = "compute") -> Event:
        """Waitable advancing virtual time by *seconds* of computation.

        When the job carries a :class:`~repro.machine.noise.NoiseModel`,
        the charge is perturbed by this rank's deterministic noise
        stream.  With compute-span tracing (``trace="phase+compute"``)
        the charge is recorded as a ``kind="compute"`` span labelled
        *kind* — the signal the overlap analysis uses to tell hidden
        from exposed communication time."""
        if self.noise is not None:
            seconds = self.noise.perturb(seconds, self._noise_rng)
        tracer = self.trace
        if tracer is not None and tracer.compute:
            rec = tracer.begin({
                "t": self.engine.now, "rank": self.world_rank,
                "kind": "compute", "op": kind,
            })
            # Same tick-grid arithmetic as the timeout below, so the
            # span end matches the event time bit-for-bit.
            tracer.end(rec, self.engine.qtime(seconds))
        return self.engine.timeout(seconds)

    def compute_flops(self, flops: float, kind: str = "default") -> Event:
        """Waitable charging *flops* of kernel class *kind* (noise-aware)."""
        model = self.machine.spec.compute
        return self.compute(model.flops_time(flops, kind), kind=kind)

    def compute_gemm(self, m: int, n: int, k: int) -> Event:
        """Waitable charging one local dense GEMM (noise-aware)."""
        model = self.machine.spec.compute
        return self.compute(model.gemm_time(m, n, k), kind="gemm")

    def touch(self, nbytes: float):
        """Coroutine: stream *nbytes* through this rank's memory system
        (its socket's channel on multi-socket nodes)."""
        result = yield from self.machine.shared_touch(
            self.node, nbytes, self.socket
        )
        return result

    # -- payload helpers ------------------------------------------------------
    def payload(self, nbytes: int, fill: Any = None) -> Any:
        """A payload of *nbytes*: real zero/filled bytes in data mode,
        symbolic :class:`Bytes` otherwise."""
        if not self.data_mode:
            return Bytes(nbytes)
        arr = np.zeros(nbytes, dtype=np.uint8)
        if fill is not None:
            arr[:] = fill
        return arr

    def doubles(self, count: int, fill: float | None = None) -> Any:
        """A payload of *count* float64 elements."""
        if not self.data_mode:
            return Bytes(count * 8)
        arr = np.zeros(count, dtype=np.float64)
        if fill is not None:
            arr[:] = fill
        return arr

    # -- MPI-3 SHM ------------------------------------------------------------
    def win_allocate_shared(self, comm: Comm, nbytes: int):
        """Coroutine: allocate a shared window over *comm* (must be a
        single-node communicator)."""
        win = yield from win_allocate_shared(comm, nbytes)
        return win


@dataclass
class JobResult:
    """Outcome of one simulated MPI job."""

    returns: list[Any]
    elapsed: float
    finish_times: list[float]
    events_processed: int
    sent_messages: int
    sent_bytes: float
    intra_copies: int
    intra_bytes: float
    network_messages: int
    network_bytes: float
    trace: list[dict] | None = None
    placement: Placement | None = None
    profiles: list[CommProfile] = field(default_factory=list)
    #: Replay-cache activity (zero when replay is off): cache hits,
    #: misses (pocket recordings), and engine events not simulated
    #: because a record was applied instead.
    replay_hits: int = 0
    replay_misses: int = 0
    replay_events_saved: int = 0

    def max_rank_time(self) -> float:
        """Virtual time when the slowest rank finished."""
        return max(self.finish_times)

    def comm_summary(self) -> dict:
        """Job-wide per-operation communication statistics: calls and
        bytes summed over ranks, time as the per-rank maximum."""
        merged = aggregate_profiles(self.profiles)
        return {
            op: {"calls": s.calls, "bytes": s.bytes, "time": s.time}
            for op, s in sorted(merged.items())
        }


class MPIJob:
    """One simulated MPI execution.

    Payload handling is selected by ``payload`` (preferred) or the
    legacy ``payload_mode``:

    * ``"full"`` / ``"data"`` — real NumPy buffers, element-checked
      results (the default; used by the correctness tests);
    * ``"model"`` — symbolic :class:`Bytes` markers, O(1) memory per
      message;
    * ``"cost-only"`` — like ``"model"`` but additionally skips all
      send-time deep copies and receive-side copy bookkeeping.  Virtual
      times, event counts, and span streams are bit-identical to the
      other modes (the equivalence tests assert this); only wall-clock
      cost changes.  Used by the benchmark sweeps.
    """

    def __init__(
        self,
        spec: MachineSpec,
        program: Callable[..., Any],
        nprocs: int | None = None,
        placement: Placement | None = None,
        payload_mode: str = "data",
        payload: str | None = None,
        tuning: CollectiveTuning | None = None,
        policy: SelectionPolicy | str | None = None,
        trace: bool | str | Tracer = False,
        link_contention: bool = False,
        seed: int = 12345,
        noise: NoiseModel | None = None,
        program_args: tuple = (),
        program_kwargs: dict | None = None,
        replay: bool | str | None = None,
    ):
        if payload is not None:
            payload_mode = {"full": "data"}.get(payload, payload)
        if payload_mode not in ("data", "model", "cost-only"):
            raise ValueError(
                "payload mode must be 'data'/'full', 'model', or 'cost-only'"
            )
        if placement is None:
            if nprocs is None:
                raise ValueError("pass nprocs or an explicit placement")
        self.engine = Engine()
        self.machine = Machine(
            self.engine, spec, link_contention=link_contention
        )
        self.placement = placement or self.machine.default_placement(nprocs)
        if nprocs is not None and self.placement.num_ranks != nprocs:
            raise ValueError(
                f"placement has {self.placement.num_ranks} ranks, "
                f"nprocs={nprocs}"
            )
        self.machine.bind_placement(self.placement)
        # trace: False -> off; True -> dispatch spans; a detail-level name
        # ("dispatch"/"phase"/"p2p", optionally with a "+compute" suffix
        # for compute-charge spans) or a Tracer -> that configuration.
        if isinstance(trace, Tracer):
            self.tracer: Tracer | None = trace
        elif isinstance(trace, str):
            detail, _, modifier = trace.partition("+")
            if modifier not in ("", "compute"):
                raise ValueError(
                    f"unknown trace modifier {modifier!r} "
                    "(only '+compute' is recognized)"
                )
            self.tracer = Tracer(detail=detail, compute=bool(modifier))
        else:
            self.tracer = Tracer() if trace else None
        self.msg_engine = MessageEngine(
            self.engine, self.machine, tracer=self.tracer,
            cost_only=payload_mode == "cost-only",
        )
        self.payload_mode = payload_mode
        self.spec = spec
        self.link_contention = link_contention
        self.tuning = tuning or tuning_for_machine(spec.name)
        # None -> environment-driven (REPRO_COLL_POLICY / REPRO_COLL_<OP>);
        # a name or SelectionPolicy instance overrides the environment.
        self.policy = resolve_policy(policy)
        self.trace = trace
        self.seed = seed
        self.noise = noise
        self.program = program
        self.program_args = program_args
        self.program_kwargs = program_kwargs or {}
        self._comm_ids = 0
        # Replay: None defers to the environment (REPRO_REPLAY, with
        # "loop" selecting loop mode; REPRO_REPLAY_VERIFY implies replay
        # in verify mode).  ``replay="loop"`` additionally applies
        # records whose ranks exit at different timesteps — safe only
        # for align-disciplined programs (benchmark harnesses; see
        # ReplaySession).  The session only exists when it can ever fire
        # — symbolic payloads and no noise model; otherwise dispatches
        # run unchanged.
        import os as _os

        verify = _os.environ.get("REPRO_REPLAY_VERIFY", "0") not in ("", "0")
        if replay is None:
            env = _os.environ.get("REPRO_REPLAY", "0")
            replay = env if env == "loop" else (
                verify or env not in ("", "0")
            )
        self.replay = None
        if replay and payload_mode != "data" and noise is None:
            from repro.mpi.collectives.replay import ReplaySession

            self.replay = ReplaySession(
                self, verify=verify, loop=replay == "loop"
            )

    @property
    def trace_log(self) -> list[dict]:
        """The raw trace records (empty when tracing is off)."""
        return self.tracer.records if self.tracer else []

    def next_comm_id(self) -> int:
        """Allocate a runtime-unique communicator id."""
        self._comm_ids += 1
        return self._comm_ids

    def run(self) -> JobResult:
        """Execute the job to completion and return its result."""
        nranks = self.placement.num_ranks
        world_shared = _CommShared(
            self, Group(list(range(nranks))), name="world"
        )
        contexts = []
        finish_times = [0.0] * nranks
        returns: list[Any] = [None] * nranks
        for rank in range(nranks):
            ctx = RankContext(self, rank)
            ctx.world = Comm(world_shared, ctx)
            contexts.append(ctx)
        # Exposed for the replay layer, which applies recorded per-rank
        # profile increments without executing the profiled dispatch.
        self.contexts = contexts

        def wrapper(ctx: RankContext):
            value = yield from self.program(
                ctx, *self.program_args, **self.program_kwargs
            )
            finish_times[ctx.world_rank] = self.engine.now
            returns[ctx.world_rank] = value
            return value

        for ctx in contexts:
            self.engine.spawn(wrapper(ctx), name=f"rank{ctx.world_rank}")
        self.engine.run()
        self.msg_engine.assert_drained()
        net = self.machine.network.stats
        return JobResult(
            returns=returns,
            elapsed=self.engine.now,
            finish_times=finish_times,
            events_processed=self.engine.event_count,
            sent_messages=self.msg_engine.sent_messages,
            sent_bytes=self.msg_engine.sent_bytes,
            intra_copies=self.machine.intra_copies,
            intra_bytes=self.machine.intra_bytes,
            network_messages=net.messages,
            network_bytes=net.bytes,
            trace=self.tracer.records if self.tracer else None,
            placement=self.placement,
            profiles=[ctx.profile for ctx in contexts],
            replay_hits=self.replay.hits if self.replay else 0,
            replay_misses=self.replay.misses if self.replay else 0,
            replay_events_saved=(
                self.replay.events_saved if self.replay else 0
            ),
        )


def run_program(
    spec: MachineSpec,
    nprocs: int | None,
    program: Callable[..., Any],
    **options: Any,
) -> JobResult:
    """Convenience wrapper: build and run an :class:`MPIJob`.

    Extra keyword arguments are forwarded to :class:`MPIJob`.
    """
    job = MPIJob(spec, program, nprocs=nprocs, **options)
    return job.run()
