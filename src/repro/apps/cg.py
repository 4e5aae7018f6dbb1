"""Distributed Conjugate Gradient on simulated MPI, with malleability.

This is the *real* counterpart of the workload the paper emulates (§4.2):
CG on a row-block-distributed SPD matrix, whose parallel form needs one
``MPI_Allgatherv`` (SpMV) and ``MPI_Allreduce`` dot products per iteration.
Payloads are real numpy arrays, so a reconfiguration mid-solve must leave
the residual trajectory bit-for-bit unchanged — the strongest correctness
check we have on the whole malleability stack.

Implementation note: the textbook CG carries the scalar ``rs_old`` across
iterations.  A reconfiguration would have to migrate that scalar, so this
implementation recomputes ``r.r`` at the top of each iteration instead —
one extra 8-byte allreduce (3 total instead of the paper's 2), keeping
every bit of solver state inside the redistributable dataset.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..redistribution.stores import FieldSpec

if TYPE_CHECKING:  # pragma: no cover
    from scipy import sparse as sp

__all__ = ["ConjugateGradientApp", "cg_reference", "cg_solve"]


class ConjugateGradientApp:
    """A :class:`~repro.malleability.manager.MalleableApp` running CG.

    The instance is shared by every rank of the simulated job (read-only
    global problem data + rank-0-recorded residual history).
    """

    def __init__(
        self,
        a_global: sp.csr_matrix,
        b_global: np.ndarray,
        n_iterations: int,
        flop_rate: float = 2e9,
    ):
        a_global = a_global.tocsr()
        if a_global.shape[0] != a_global.shape[1]:
            raise ValueError("CG needs a square matrix")
        if b_global.shape != (a_global.shape[0],):
            raise ValueError("rhs shape mismatch")
        self.a_global = a_global
        self.b_global = np.asarray(b_global, dtype=np.float64)
        self.n_iterations = n_iterations
        self.n_rows = a_global.shape[0]
        self.flop_rate = flop_rate
        #: global residual norm after each iteration (recorded by rank 0).
        self.residuals: list[float] = []
        self.specs = (
            FieldSpec("A", "csr", constant=True),
            FieldSpec("b", "dense", constant=True),
            FieldSpec("x", "dense", constant=False),
            FieldSpec("r", "dense", constant=False),
            FieldSpec("p", "dense", constant=False),
        )

    # ------------------------------------------------------- MalleableApp
    def initial_data(self, lo: int, hi: int) -> dict:
        b = self.b_global[lo:hi]
        return {
            "A": self.a_global[lo:hi],
            "b": b.copy(),
            "x": np.zeros(hi - lo),
            "r": b.copy(),   # r0 = b - A@0 = b
            "p": b.copy(),
        }

    def iterate(self, mpi, comm, dataset, iteration):
        """One CG step over the current group."""
        a = dataset.stores["A"].matrix
        x = dataset.stores["x"].data
        r = dataset.stores["r"].data
        p = dataset.stores["p"].data

        rs_old = yield from mpi.allreduce(float(r @ r), comm=comm)
        if rs_old <= 1e-300:
            # Converged to machine zero: keep the group in lock-step with a
            # cheap synchronising no-op (collective counts must match).
            yield from mpi.allreduce(0.0, comm=comm)
            if comm.rank_of_gid(mpi.gid) == 0:
                self.residuals.append(0.0)
            return
        # SpMV: gather the full direction vector, multiply the local block.
        blocks = yield from mpi.allgatherv(p, comm=comm)
        p_full = np.concatenate(blocks)
        ap = a @ p_full
        yield from mpi.compute(2.0 * a.nnz / self.flop_rate)

        pap = yield from mpi.allreduce(float(p @ ap), comm=comm)
        alpha = rs_old / pap
        x += alpha * p
        r -= alpha * ap
        yield from mpi.compute(6.0 * x.size / self.flop_rate)

        rs_new = yield from mpi.allreduce(float(r @ r), comm=comm)
        beta = rs_new / rs_old
        p[:] = r + beta * p
        yield from mpi.compute(2.0 * x.size / self.flop_rate)

        if comm.rank_of_gid(mpi.gid) == 0:
            self.residuals.append(float(np.sqrt(rs_new)))

    def on_handoff(self, mpi, dataset) -> None:
        # Assemble the received CSR pieces eagerly so the first iteration
        # after the reconfiguration does not pay assembly inside timing.
        _ = dataset.stores["A"].matrix


def cg_reference(a: sp.csr_matrix, b: np.ndarray, n_iterations: int) -> tuple[np.ndarray, list[float]]:
    """Sequential CG with the same operation order as the distributed app —
    used to check the residual trajectory is bitwise-preserved."""
    x = np.zeros_like(b, dtype=np.float64)
    r = b.astype(np.float64).copy()
    p = r.copy()
    residuals = []
    for _ in range(n_iterations):
        rs_old = float(r @ r)
        if rs_old <= 1e-300:
            residuals.append(0.0)
            continue
        ap = a @ p
        pap = float(p @ ap)
        alpha = rs_old / pap
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        beta = rs_new / rs_old
        p = r + beta * p
        residuals.append(float(np.sqrt(rs_new)))
    return x, residuals


def cg_solve(mpi, a_local, b_local, lo, hi, n_rows, tol=1e-8, max_iter=500,
             flop_rate=2e9, comm=None):
    """Standalone distributed CG (no malleability): solve to tolerance.

    Returns ``(x_local, residual_history)``.  Used by the quickstart example
    and as a building block for custom workloads.
    """
    if flop_rate <= 0:
        raise ValueError("flop_rate must be > 0")
    comm = comm if comm is not None else mpi.comm_world
    a_local = a_local.tocsr()
    x = np.zeros(hi - lo)
    r = np.asarray(b_local, dtype=np.float64).copy()
    p = r.copy()
    residuals = []
    for _ in range(max_iter):
        rs_old = yield from mpi.allreduce(float(r @ r), comm=comm)
        if np.sqrt(rs_old) < tol:
            break
        blocks = yield from mpi.allgatherv(p, comm=comm)
        ap = a_local @ np.concatenate(blocks)
        yield from mpi.compute(2.0 * a_local.nnz / flop_rate)
        pap = yield from mpi.allreduce(float(p @ ap), comm=comm)
        alpha = rs_old / pap
        x += alpha * p
        r -= alpha * ap
        rs_new = yield from mpi.allreduce(float(r @ r), comm=comm)
        p = r + (rs_new / rs_old) * p
        yield from mpi.compute(8.0 * x.size / flop_rate)
        residuals.append(float(np.sqrt(rs_new)))
    return x, residuals
