"""Property-based tests (hypothesis) for the socket/NUMA tier.

Three families of invariants:

* **cross-socket hops cost more** — in both the analytic model
  (``shm_round``) and the simulator (a cross-socket p2p send is never
  faster than the same send within one socket), and latency is
  monotone in the number of crossing messages;
* **compact beats scatter** for on-node-heavy collectives that move
  *uniform-size* blocks every round (ring / linear / flag algorithms):
  the compact slot→socket map minimizes crossings so it is never
  slower than scatter.  Doubling-message-size algorithms (binomial,
  recursive doubling, Bruck) are deliberately excluded — scatter
  localizes their big late rounds, which can legitimately win;
* **transports are deterministic and finite** — the same run repeats
  bit-identically and all latencies are finite and positive for every
  registered transport.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.model import CostModel
from repro.machine.placement import Placement
from repro.machine.presets import testing_machine as make_testing_machine
from repro.machine.transport import TRANSPORTS
from repro.mpi import run_program
from repro.mpi.datatypes import Bytes

# Rank-program properties are expensive: small shapes, few examples.
_SMALL = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

transports = st.sampled_from(sorted(TRANSPORTS))
sizes = st.sampled_from([8, 512, 4096, 65536])

#: Virtual-time rendezvous before the timed region (as in the
#: conformance harness): all ranks align to the same instant.
_ALIGN = 1.0e-3


def _two_socket_model(transport: str, cores: int = 8) -> CostModel:
    spec = make_testing_machine(1, cores=cores, sockets=2, transport=transport)
    return CostModel(spec, (cores,))


# ---------------------------------------------------------------------------
# Cross-socket hops cost more (model)
# ---------------------------------------------------------------------------

@given(transports, sizes)
@_SMALL
def test_single_cross_socket_message_costs_at_least_local(transport, nbytes):
    model = _two_socket_model(transport)
    local = model.shm_round(nbytes, 1, ncross=0)
    cross = model.shm_round(nbytes, 1, ncross=1)
    assert cross >= local
    # The extra hop latency is always charged on the crossing path
    # (up to float addition noise).
    assert cross - local >= model.x_lat * (1 - 1e-9)


@given(transports, sizes, st.integers(1, 8))
@_SMALL
def test_round_latency_monotone_in_crossing_count(transport, nbytes, conc):
    """With every message crossing sockets, adding one more crossing
    message never makes the round faster (the xsocket link only has
    ``xsocket_streams`` slots)."""
    model = _two_socket_model(transport)
    times = [model.shm_round(nbytes, n, ncross=n) for n in range(1, conc + 1)]
    assert all(b >= a for a, b in zip(times, times[1:]))


# ---------------------------------------------------------------------------
# Cross-socket hops cost more (simulator)
# ---------------------------------------------------------------------------

def _ping(mpi, peer, nbytes):
    comm = mpi.world
    yield mpi.compute(_ALIGN - mpi.now)
    if comm.rank == 0:
        yield from comm.send(Bytes(nbytes), peer, tag=0)
    elif comm.rank == peer:
        yield from comm.recv(source=0, tag=0)
    return mpi.now - _ALIGN


def _ping_latency(spec, peer, nbytes):
    result = run_program(
        spec, None, _ping, placement=Placement.block(1, 4),
        payload="cost-only",
        program_kwargs={"peer": peer, "nbytes": nbytes},
    )
    return result.returns[peer]


@given(transports, sizes)
@_SMALL
def test_des_cross_socket_send_is_never_faster(transport, nbytes):
    """Compact placement on a 4-core 2-socket node: rank 1 shares rank
    0's socket, rank 2 sits on the other one."""
    spec = make_testing_machine(1, cores=4, sockets=2, transport=transport)
    same = _ping_latency(spec, peer=1, nbytes=nbytes)
    cross = _ping_latency(spec, peer=2, nbytes=nbytes)
    assert cross >= same


# ---------------------------------------------------------------------------
# Compact placement never loses to scatter on uniform-block algorithms
# ---------------------------------------------------------------------------

#: On-node-heavy algorithms whose per-round message size is constant;
#: for these the crossing count dominates, and compact minimizes it.
_UNIFORM_BLOCK_CASES = [
    ("allgather", "ring"),
    ("allreduce", "ring"),
    ("allreduce", "recursive_doubling"),  # constant-size exchanges
    ("barrier", "shm_flags"),
    ("bcast", "pipeline"),
    ("bcast", "scatter_allgather"),
    ("gather", "linear"),
    ("scatter", "linear"),
    ("scan", "linear"),
]


@given(
    st.sampled_from(_UNIFORM_BLOCK_CASES),
    transports,
    sizes,
    st.sampled_from([2, 4, 6, 8, 12, 16, 24]),
)
@_SMALL
def test_compact_socket_mode_never_slower_than_scatter(case, transport,
                                                       nbytes, ppn):
    op, algo = case
    spec = make_testing_machine(1, cores=ppn, sockets=2, transport=transport)
    compact = CostModel(spec, (ppn,), socket_mode="compact")
    scatter = CostModel(spec, (ppn,), socket_mode="scatter")
    t_compact = compact.predict(op, algo, nbytes)
    t_scatter = scatter.predict(op, algo, nbytes)
    assert t_compact <= t_scatter * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Transports are deterministic and finite
# ---------------------------------------------------------------------------

def _allgather_once(mpi, nbytes):
    yield mpi.compute(_ALIGN - mpi.now)
    yield from mpi.world.allgather(Bytes(nbytes))
    return mpi.now - _ALIGN


@given(transports, sizes)
@_SMALL
def test_transports_deterministic_and_finite(transport, nbytes):
    spec = make_testing_machine(2, cores=4, sockets=2, transport=transport)
    runs = [
        run_program(
            spec, None, _allgather_once,
            placement=Placement.block(2, 4),
            payload="cost-only",
            program_kwargs={"nbytes": nbytes},
        )
        for _ in range(2)
    ]
    first, second = runs
    assert first.returns == second.returns
    assert first.events_processed == second.events_processed
    assert first.sent_bytes == second.sent_bytes
    for t in first.returns:
        assert math.isfinite(t) and t > 0.0


@given(sizes)
@_SMALL
def test_transport_latencies_ordered_by_copy_count(nbytes):
    """Fewer staged copies can't hurt: on identical machines the
    single-copy direct transport is never slower than the two-copy
    CICO path for a lone on-node message of rendezvous size."""
    two = _two_socket_model("shm_two_copy")
    pip = _two_socket_model("pip_direct")
    assert pip.shm_round(nbytes, 1) <= two.shm_round(nbytes, 1)
