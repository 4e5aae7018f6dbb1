"""Distributed power iteration — a third validation workload.

Estimates the dominant eigenvalue of an SPD matrix.  Communication shape
per iteration: one ``allgatherv`` (SpMV) + two ``allreduce`` (norm and
Rayleigh quotient) — the same pattern as CG but with a *normalisation*
step whose global scalar must stay consistent across a reconfiguration,
exercising yet another variable-data flavour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..redistribution.stores import FieldSpec

if TYPE_CHECKING:  # pragma: no cover
    from scipy import sparse as sp

__all__ = ["PowerIterationApp", "power_iteration_reference"]


class PowerIterationApp:
    """A :class:`~repro.malleability.manager.MalleableApp` running power
    iteration; rank-0 records the Rayleigh-quotient trajectory."""

    def __init__(
        self,
        a_global: sp.csr_matrix,
        n_iterations: int,
        flop_rate: float = 2e9,
        seed: int = 0,
    ):
        a_global = a_global.tocsr()
        if a_global.shape[0] != a_global.shape[1]:
            raise ValueError("power iteration needs a square matrix")
        self.a_global = a_global
        self.n_iterations = n_iterations
        self.n_rows = a_global.shape[0]
        self.flop_rate = flop_rate
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(self.n_rows)
        self._v0 = v0 / np.linalg.norm(v0)
        self.eigenvalue_estimates: list[float] = []
        self.specs = (
            FieldSpec("A", "csr", constant=True),
            FieldSpec("v", "dense", constant=False),
        )

    def initial_data(self, lo: int, hi: int) -> dict:
        return {"A": self.a_global[lo:hi], "v": self._v0[lo:hi].copy()}

    def iterate(self, mpi, comm, dataset, iteration):
        a = dataset.stores["A"].matrix
        v = dataset.stores["v"].data

        blocks = yield from mpi.allgatherv(v, comm=comm)
        v_full = np.concatenate(blocks)
        w = a @ v_full
        yield from mpi.compute(2.0 * a.nnz / self.flop_rate)

        # Rayleigh quotient and normalisation need two global scalars.
        rayleigh = yield from mpi.allreduce(float(v @ w), comm=comm)
        norm2 = yield from mpi.allreduce(float(w @ w), comm=comm)
        v[:] = w / np.sqrt(norm2)
        yield from mpi.compute(3.0 * v.size / self.flop_rate)

        if comm.rank_of_gid(mpi.gid) == 0:
            self.eigenvalue_estimates.append(rayleigh)

    def on_handoff(self, mpi, dataset) -> None:
        _ = dataset.stores["A"].matrix


def power_iteration_reference(a: sp.csr_matrix, n_iterations: int, seed: int = 0):
    """Sequential mirror with the same operation order."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[0])
    v /= np.linalg.norm(v)
    estimates = []
    for _ in range(n_iterations):
        w = a @ v
        rayleigh = float(v @ w)
        norm2 = float(w @ w)
        v = w / np.sqrt(norm2)
        estimates.append(rayleigh)
    return v, estimates
