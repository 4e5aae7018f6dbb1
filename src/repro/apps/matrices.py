"""Synthetic sparse matrices standing in for the paper's Queen_4147.

Queen_4147 (suitesparse, Janna collection) is a 3-D structural-mechanics
SPD matrix with N = 4,147,110 rows and ~316.5 M non-zeros (~76 nnz/row).
We cannot download it offline, so:

* :func:`queen4147_stats` provides the *exact* published shape numbers the
  synthetic application needs for byte accounting (DESIGN.md §2);
* :func:`laplacian_3d` generates SPD surrogates with the same structural
  character (3-D stencil, block dofs raise nnz/row toward Queen's ~76) at
  any scale that actually fits in memory — the real CG solver runs on
  these;
* :func:`poisson_2d` gives small well-conditioned matrices for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from scipy import sparse as sp

__all__ = ["MatrixStats", "queen4147_stats", "laplacian_3d", "poisson_2d", "spd_check"]


@dataclass(frozen=True)
class MatrixStats:
    """Published shape of a sparse matrix (for byte accounting)."""

    name: str
    n_rows: int
    nnz: int

    @property
    def nnz_per_row(self) -> float:
        return self.nnz / self.n_rows

    def csr_nbytes(self, value_bytes: int = 8, index_bytes: int = 4) -> int:
        """Bytes of the CSR structure (values + col indices + row pointers)."""
        return self.nnz * (value_bytes + index_bytes) + (self.n_rows + 1) * 8

    def vector_nbytes(self, value_bytes: int = 8) -> int:
        return self.n_rows * value_bytes


def queen4147_stats() -> MatrixStats:
    """Queen_4147: N = 4,147,110; nnz = 316,548,962 (suitesparse)."""
    return MatrixStats(name="Queen_4147", n_rows=4_147_110, nnz=316_548_962)


def laplacian_3d(n: int, dofs: int = 1, shift: float = 0.0) -> sp.csr_matrix:
    """SPD 7-point Laplacian on an n^3 grid, optionally with ``dofs`` coupled
    unknowns per grid point (Kronecker with an SPD block), plus a diagonal
    ``shift`` to tighten conditioning.

    ``dofs=3`` mimics displacement components of structural problems like
    Queen_4147 and triples nnz/row.
    """
    if n < 1:
        raise ValueError("grid size must be >= 1")
    if dofs < 1:
        raise ValueError("dofs must be >= 1")
    from scipy import sparse as sp
    one_d = sp.diags(
        [-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr"
    )
    eye = sp.identity(n, format="csr")
    a = (
        sp.kron(sp.kron(one_d, eye), eye)
        + sp.kron(sp.kron(eye, one_d), eye)
        + sp.kron(sp.kron(eye, eye), one_d)
    )
    if dofs > 1:
        # SPD coupling block: diagonally dominant, symmetric.
        block = np.full((dofs, dofs), 0.1)
        np.fill_diagonal(block, 1.0)
        a = sp.kron(a, sp.csr_matrix(block))
    a = a.tocsr()
    if shift:
        a = (a + shift * sp.identity(a.shape[0], format="csr")).tocsr()
    return a


def poisson_2d(n: int) -> sp.csr_matrix:
    """SPD 5-point Laplacian on an n x n grid (small test problems)."""
    if n < 1:
        raise ValueError("grid size must be >= 1")
    from scipy import sparse as sp
    one_d = sp.diags(
        [-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr"
    )
    eye = sp.identity(n, format="csr")
    return (sp.kron(one_d, eye) + sp.kron(eye, one_d)).tocsr()


def spd_check(a: sp.csr_matrix, probes: int = 3, seed: int = 0) -> bool:
    """Cheap SPD sanity check: symmetry + positive Rayleigh quotients."""
    if (abs(a - a.T) > 1e-12).nnz != 0:
        return False
    rng = np.random.default_rng(seed)
    for _ in range(probes):
        v = rng.standard_normal(a.shape[0])
        if float(v @ (a @ v)) <= 0:
            return False
    return True
