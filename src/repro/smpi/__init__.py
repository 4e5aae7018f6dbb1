"""Simulated MPI ("SMPI").

A deterministic, discrete-event reimplementation of the MPI surface the
paper's malleability framework issues — Isend/Irecv/Waitany/Waitall/Testall,
Alltoall, (I)Alltoallv, Comm_spawn and intercomm merge, the agreement
allreduce, the application's collectives and the one-sided windows — with
real payload delivery and MPICH-like timing semantics (eager/rendezvous
protocols, polling blocking calls, serialized pairwise blocking Alltoallv,
auxiliary threads).  See DESIGN.md §2 for the substitution argument.

Quick use::

    from repro.smpi import run_spmd

    def main(mpi):
        total = yield from mpi.allreduce(mpi.rank)
        return total

    results, sim = run_spmd(main, 4)
"""

from .collectives import op_min, op_sum
from .communicator import Communicator
from .context import AsyncOpHandle, RankCtx, ThreadHandle
from .datatypes import ANY_SOURCE, ANY_TAG, Blob, copy_payload, payload_nbytes
from .endpoint import Endpoint, Message
from .errors import CommFailedError, SpawnFailedError
from .requests import MultiRequest, RecvRequest, Request, SendRequest
from .rma import Window
from .spawn import SpawnModel
from .status import Status
from .world import LaunchResult, MpiWorld, run_spmd

__all__ = [
    "MpiWorld",
    "LaunchResult",
    "run_spmd",
    "RankCtx",
    "ThreadHandle",
    "AsyncOpHandle",
    "Communicator",
    "Request",
    "SendRequest",
    "RecvRequest",
    "MultiRequest",
    "Window",
    "Status",
    "SpawnModel",
    "Endpoint",
    "Message",
    "CommFailedError",
    "SpawnFailedError",
    "ANY_SOURCE",
    "ANY_TAG",
    "Blob",
    "payload_nbytes",
    "copy_payload",
    "op_sum",
    "op_min",
]
