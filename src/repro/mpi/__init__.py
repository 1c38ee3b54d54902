"""A simulated MPI runtime on virtual time.

This package implements the MPI subset the paper's algorithms need —
faithfully enough that the hybrid MPI+MPI code in :mod:`repro.core` reads
like the paper's pseudo-code (Figs 4 and 6):

* **Point-to-point** (:mod:`repro.mpi.p2p`): ``send``/``recv``/
  ``isend``/``irecv``/``sendrecv`` with tag matching, wildcards, and an
  eager/rendezvous protocol model.
* **Communicators** (:mod:`repro.mpi.comm`): ``COMM_WORLD``, ``split``,
  ``split_type(COMM_TYPE_SHARED)``, ``dup``, groups and rank translation.
* **Collectives** (:mod:`repro.mpi.collectives`): broadcast, (all)gather(v),
  scatter(v), reduce, allreduce, alltoall, barrier — each with the
  classic algorithms (binomial, recursive doubling, Bruck, ring,
  dissemination) and an MPICH-style runtime selection table, plus
  SMP-aware hierarchical variants used as the paper's pure-MPI baseline.
* **MPI-3 shared memory** (:mod:`repro.mpi.shm`):
  ``win_allocate_shared`` / ``win_shared_query`` with real NumPy backing.
* **The job runner** (:mod:`repro.mpi.runtime`): executes one generator
  program per rank over a :class:`~repro.machine.Machine`.

Rank programs are generators; every blocking MPI call is driven with
``yield from``::

    def program(mpi):
        comm = mpi.world
        data = np.full(4, comm.rank, dtype=np.float64)
        gathered = yield from comm.allgather(data)
        return gathered

    result = run_program(spec, nprocs, program)
"""

from repro.mpi.cart import CartComm, cart_create, dims_create
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, COMM_TYPE_SHARED, UNDEFINED
from repro.mpi.datatypes import Bytes, nbytes_of
from repro.mpi.errors import MPIError, TruncationError
from repro.mpi.nonblocking import CollRequest
from repro.mpi.profiler import CommProfile
from repro.mpi.runtime import JobResult, MPIJob, RankContext, run_program

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Bytes",
    "COMM_TYPE_SHARED",
    "CartComm",
    "CollRequest",
    "CommProfile",
    "JobResult",
    "MPIError",
    "MPIJob",
    "RankContext",
    "TruncationError",
    "UNDEFINED",
    "cart_create",
    "dims_create",
    "nbytes_of",
    "run_program",
]
