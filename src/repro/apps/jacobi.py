"""Weighted-Jacobi iteration on simulated MPI — the second domain example.

Structurally similar to CG (one allgatherv per sweep) but with different
data balance: the only variable field is the iterate ``x``, so nearly all
bytes are constant and asynchronous strategies can overlap almost the whole
redistribution — a useful contrast workload for the malleability study.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..redistribution.stores import FieldSpec

if TYPE_CHECKING:  # pragma: no cover
    from scipy import sparse as sp

__all__ = ["JacobiApp"]


class JacobiApp:
    """Malleable weighted-Jacobi smoother: ``x += w * (b - A x) / diag(A)``."""

    def __init__(
        self,
        a_global: sp.csr_matrix,
        b_global: np.ndarray,
        n_iterations: int,
        omega: float = 0.6,
        flop_rate: float = 2e9,
    ):
        a_global = a_global.tocsr()
        if a_global.shape[0] != a_global.shape[1]:
            raise ValueError("Jacobi needs a square matrix")
        diag = a_global.diagonal()
        if np.any(diag == 0):
            raise ValueError("Jacobi needs a zero-free diagonal")
        self.a_global = a_global
        self.b_global = np.asarray(b_global, dtype=np.float64)
        self.n_iterations = n_iterations
        self.n_rows = a_global.shape[0]
        self.omega = omega
        self.flop_rate = flop_rate
        self.residuals: list[float] = []
        self.specs = (
            FieldSpec("A", "csr", constant=True),
            FieldSpec("b", "dense", constant=True),
            FieldSpec("dinv", "dense", constant=True),
            FieldSpec("x", "dense", constant=False),
        )

    def initial_data(self, lo: int, hi: int) -> dict:
        return {
            "A": self.a_global[lo:hi],
            "b": self.b_global[lo:hi].copy(),
            "dinv": 1.0 / self.a_global.diagonal()[lo:hi],
            "x": np.zeros(hi - lo),
        }

    def iterate(self, mpi, comm, dataset, iteration):
        a = dataset.stores["A"].matrix
        b = dataset.stores["b"].data
        dinv = dataset.stores["dinv"].data
        x = dataset.stores["x"].data

        blocks = yield from mpi.allgatherv(x, comm=comm)
        x_full = np.concatenate(blocks)
        resid = b - a @ x_full
        yield from mpi.compute(2.0 * a.nnz / self.flop_rate)
        x += self.omega * dinv * resid
        yield from mpi.compute(3.0 * x.size / self.flop_rate)
        norm2 = yield from mpi.allreduce(float(resid @ resid), comm=comm)
        if comm.rank_of_gid(mpi.gid) == 0:
            self.residuals.append(float(np.sqrt(norm2)))

    def on_handoff(self, mpi, dataset) -> None:
        _ = dataset.stores["A"].matrix
