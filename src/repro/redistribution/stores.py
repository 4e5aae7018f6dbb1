"""Local data containers that redistribution moves between ranks.

A :class:`BlockStore` holds one rank's row block of a globally
row-distributed object and knows how to *extract* a row range for sending
and *insert* a received range.  Three concrete stores cover the paper's
data types (§3.1):

* :class:`DenseStore` — vectors and dense matrices (size derivable from the
  dimensions alone);
* :class:`CsrStore` — sparse matrices, where "targets can not calculate from
  the matrix dimensions how many non-zero elements they will receive", hence
  the size-first protocol;
* :class:`VirtualStore` — pure byte-accounting blocks used by the synthetic
  application (it emulates memory footprint without allocating gigabytes).

A :class:`Dataset` groups named stores and carries the constant/variable
split that decides what may be redistributed asynchronously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np
from scipy import sparse as sp

try:  # scipy keeps this private; fall back to a faithful reimplementation
    from scipy.sparse._sputils import get_index_dtype as _get_index_dtype
except ImportError:  # pragma: no cover - older/newer scipy layouts
    def _get_index_dtype(arrays=(), maxval=None, check_contents=False):
        if maxval is not None and maxval > np.iinfo(np.int32).max:
            return np.int64
        for arr in arrays:
            if np.asarray(arr).dtype == np.int64:
                return np.int64
        return np.int32

__all__ = [
    "FieldSpec",
    "BlockStore",
    "DenseStore",
    "CsrStore",
    "VirtualStore",
    "Dataset",
    "make_store",
]


@dataclass(frozen=True)
class FieldSpec:
    """Declarative description of one distributed object.

    Travels (cheaply) to spawned target processes so they can create their
    empty local stores — the paper's "create the internal structures".
    """

    name: str
    kind: str  # "dense" | "csr" | "virtual"
    #: False -> variable data: mutated every iteration, must be redistributed
    #: synchronously; True -> constant, eligible for async overlap (§3.2).
    constant: bool = True
    #: trailing row shape for dense fields: () for vectors, (m,) for matrices.
    row_shape: tuple = ()
    dtype: str = "float64"
    #: bytes per row for virtual fields.
    bytes_per_row: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dense", "csr", "virtual"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "virtual" and self.bytes_per_row < 0:
            raise ValueError("virtual field needs bytes_per_row >= 0")


class BlockStore:
    """Abstract row-block container (see module docstring)."""

    def __init__(self, spec: FieldSpec, lo: int, hi: int):
        if lo > hi:
            raise ValueError(f"invalid row range [{lo}, {hi})")
        self.spec = spec
        self.lo = lo
        self.hi = hi

    @property
    def n_rows(self) -> int:
        return self.hi - self.lo

    def range_nbytes(self, lo: int, hi: int) -> int:
        """Wire size of rows ``[lo, hi)`` (must be within this block)."""
        raise NotImplementedError

    def extract(self, lo: int, hi: int) -> Any:
        """Payload for rows ``[lo, hi)``."""
        raise NotImplementedError

    def insert(self, lo: int, hi: int, payload: Any) -> None:
        """Store received rows ``[lo, hi)``."""
        raise NotImplementedError

    # ---------------------------------------------------- whole schedules
    # Default implementations loop over the single-range methods; the
    # concrete stores with vectorizable layouts (dense, CSR) override them.
    # All overrides are value-identical to the loop — batching changes how
    # payloads are built, never what bytes they hold.
    def extract_batch(self, los: Sequence[int], his: Sequence[int]) -> list:
        """Payloads for several row ranges in one call."""
        return [self.extract(int(lo), int(hi)) for lo, hi in zip(los, his)]

    def insert_batch(
        self, los: Sequence[int], his: Sequence[int], payloads: Sequence[Any]
    ) -> None:
        """Store several received ranges in one call."""
        for lo, hi, payload in zip(los, his, payloads):
            self.insert(int(lo), int(hi), payload)

    def range_nbytes_batch(
        self, los: Sequence[int], his: Sequence[int]
    ) -> list[int]:
        """Wire sizes of several row ranges in one call."""
        return [self.range_nbytes(int(lo), int(hi)) for lo, hi in zip(los, his)]

    def _check_range(self, lo: int, hi: int) -> None:
        if not (self.lo <= lo <= hi <= self.hi):
            raise ValueError(
                f"{self.spec.name}: range [{lo},{hi}) outside block [{self.lo},{self.hi})"
            )


class DenseStore(BlockStore):
    """Dense row block (1-D vector slice or 2-D row-matrix slice)."""

    def __init__(self, spec: FieldSpec, lo: int, hi: int, data: Optional[np.ndarray] = None):
        super().__init__(spec, lo, hi)
        shape = (hi - lo, *spec.row_shape)
        if data is None:
            self.data = np.zeros(shape, dtype=spec.dtype)
        else:
            data = np.asarray(data, dtype=spec.dtype)
            if data.shape != shape:
                raise ValueError(
                    f"{spec.name}: data shape {data.shape} != block shape {shape}"
                )
            self.data = data
        self._row_nbytes = int(
            np.dtype(spec.dtype).itemsize * int(np.prod(spec.row_shape, dtype=np.int64))
            if spec.row_shape
            else np.dtype(spec.dtype).itemsize
        )

    def range_nbytes(self, lo: int, hi: int) -> int:
        self._check_range(lo, hi)
        return (hi - lo) * self._row_nbytes

    def extract(self, lo: int, hi: int) -> np.ndarray:
        self._check_range(lo, hi)
        return self.data[lo - self.lo : hi - self.lo]

    def insert(self, lo: int, hi: int, payload: Any) -> None:
        self._check_range(lo, hi)
        self.data[lo - self.lo : hi - self.lo] = payload

    def extract_batch(self, los: Sequence[int], his: Sequence[int]) -> list:
        """One gather for the whole schedule: ``np.take`` over the
        concatenated row indices, split back at the chunk boundaries."""
        los = np.asarray(los, dtype=np.int64)
        his = np.asarray(his, dtype=np.int64)
        if len(los) == 0:
            return []
        for lo, hi in zip(los, his):
            self._check_range(int(lo), int(hi))
        counts = his - los
        bounds = np.cumsum(counts[:-1])
        take = np.concatenate(
            [np.arange(lo - self.lo, hi - self.lo) for lo, hi in zip(los, his)]
        )
        return np.split(np.take(self.data, take, axis=0), bounds)

    def range_nbytes_batch(
        self, los: Sequence[int], his: Sequence[int]
    ) -> list[int]:
        los = np.asarray(los, dtype=np.int64)
        his = np.asarray(his, dtype=np.int64)
        for lo, hi in zip(los, his):
            self._check_range(int(lo), int(hi))
        return [int(n) for n in (his - los) * self._row_nbytes]


class CsrStore(BlockStore):
    """CSR row block.  Insertions are collected as pieces and assembled
    lazily; ``matrix`` yields the contiguous local CSR block."""

    def __init__(self, spec: FieldSpec, lo: int, hi: int, matrix: Optional[sp.csr_matrix] = None):
        super().__init__(spec, lo, hi)
        self._matrix = matrix.tocsr() if matrix is not None else None
        if matrix is not None and matrix.shape[0] != hi - lo:
            raise ValueError(
                f"{spec.name}: matrix has {matrix.shape[0]} rows, block needs {hi - lo}"
            )
        self._pieces: list[tuple[int, int, sp.csr_matrix]] = []
        #: cached ``(indptr, bytes-per-nonzero, bytes-per-rowptr)`` — the
        #: only state :meth:`range_nbytes` needs.  ``indptr`` is the nnz
        #: prefix sum, so wire sizes are O(1) lookups once cached;
        #: invalidated whenever a piece is inserted.
        self._wire_cache: Optional[tuple] = None

    @property
    def matrix(self) -> sp.csr_matrix:
        if self._pieces:
            self._assemble()
        if self._matrix is None:
            raise RuntimeError(f"{self.spec.name}: store is empty")
        return self._matrix

    def _assemble(self) -> None:
        pieces = sorted(self._pieces, key=lambda t: t[0])
        self._pieces = []
        covered = [p[:2] for p in pieces]
        expect = self.lo
        for lo, hi in covered:
            if lo != expect:
                raise RuntimeError(
                    f"{self.spec.name}: incomplete CSR assembly; gap at row {expect}"
                )
            expect = hi
        if expect != self.hi:
            raise RuntimeError(
                f"{self.spec.name}: incomplete CSR assembly; missing tail from {expect}"
            )
        mats = [p[2] for p in pieces]
        # Direct row-wise concatenation: same result as
        # ``sp.vstack(mats, format="csr")`` — including the index dtype,
        # which feeds the wire-size model via ``range_nbytes`` — without
        # the block-composition machinery.
        n_rows = sum(m.shape[0] for m in mats)
        n_cols = mats[0].shape[1]
        total_nnz = sum(int(m.indptr[-1]) for m in mats)
        idx_dtype = _get_index_dtype(
            [m.indptr for m in mats] + [m.indices for m in mats],
            maxval=max(total_nnz, n_cols),
        )
        data = np.concatenate([m.data for m in mats])
        indices = np.concatenate(
            [np.asarray(m.indices, dtype=idx_dtype) for m in mats]
        )
        indptr = np.empty(n_rows + 1, dtype=idx_dtype)
        indptr[0] = 0
        row = 1
        nnz = 0
        for m in mats:
            ip = m.indptr
            k = m.shape[0]
            indptr[row : row + k] = np.asarray(ip[1:], dtype=idx_dtype) + nnz
            nnz += int(ip[-1])
            row += k
        self._matrix = sp.csr_matrix(
            (data, indices, indptr), shape=(n_rows, n_cols), copy=False
        )

    def range_nbytes(self, lo: int, hi: int) -> int:
        self._check_range(lo, hi)
        if self.n_rows == 0:
            # A zero-row block (e.g. after an extreme shrink/grow where
            # ``n_rows < size``) never assembles a matrix — there is
            # nothing to send, not even a row-pointer slice.
            return 0
        cache = self._wire_cache
        if cache is None:
            m = self.matrix
            cache = self._wire_cache = (
                m.indptr,
                m.data.dtype.itemsize + m.indices.dtype.itemsize,
                m.indptr.dtype.itemsize,
            )
        indptr, per_nnz, per_ptr = cache
        a, b = lo - self.lo, hi - self.lo
        # values + column indices + row pointer slice
        return int(indptr[b] - indptr[a]) * per_nnz + (b - a + 1) * per_ptr

    def extract(self, lo: int, hi: int) -> sp.csr_matrix:
        self._check_range(lo, hi)
        m = self.matrix
        return m[lo - self.lo : hi - self.lo]

    def extract_batch(self, los: Sequence[int], his: Sequence[int]) -> list:
        """Pack several row ranges by direct row-pointer arithmetic.

        Each piece is ``(data[s:e], indices[s:e], indptr[a:b+1]-s)`` copied
        out of the assembled block — the same slices (and the same index
        dtype) scipy's row indexing produces, without its per-call indexing
        machinery.  One matrix-property resolve serves the whole schedule.
        """
        if len(los) == 0:
            return []
        m = self.matrix
        indptr, data, indices = m.indptr, m.data, m.indices
        n_cols = m.shape[1]
        base = self.lo
        out = []
        for lo, hi in zip(los, his):
            self._check_range(int(lo), int(hi))
            a, b = int(lo) - base, int(hi) - base
            s, e = int(indptr[a]), int(indptr[b])
            piece_indptr = indptr[a : b + 1] - indptr[a]
            out.append(
                sp.csr_matrix(
                    (data[s:e].copy(), indices[s:e].copy(), piece_indptr),
                    shape=(b - a, n_cols),
                    copy=False,
                )
            )
        return out

    def range_nbytes_batch(
        self, los: Sequence[int], his: Sequence[int]
    ) -> list[int]:
        if len(los) == 0:
            return []
        if self.n_rows == 0:
            return [0] * len(los)
        los = np.asarray(los, dtype=np.int64)
        his = np.asarray(his, dtype=np.int64)
        for lo, hi in zip(los, his):
            self._check_range(int(lo), int(hi))
        cache = self._wire_cache
        if cache is None:
            m = self.matrix
            cache = self._wire_cache = (
                m.indptr,
                m.data.dtype.itemsize + m.indices.dtype.itemsize,
                m.indptr.dtype.itemsize,
            )
        indptr, per_nnz, per_ptr = cache
        a = los - self.lo
        b = his - self.lo
        nnz = indptr[b].astype(np.int64) - indptr[a]
        return [int(n) for n in nnz * per_nnz + (b - a + 1) * per_ptr]

    def insert(self, lo: int, hi: int, payload: Any) -> None:
        self._check_range(lo, hi)
        piece = payload.tocsr()
        if piece.shape[0] != hi - lo:
            raise ValueError(
                f"{self.spec.name}: piece rows {piece.shape[0]} != range {hi - lo}"
            )
        self._pieces.append((lo, hi, piece))
        self._wire_cache = None


class VirtualStore(BlockStore):
    """Byte-accounting block with no real payload (synthetic application).

    Tracks which rows have been received so tests can assert redistribution
    completeness without allocating the paper's 3.9 GB.
    """

    def __init__(self, spec: FieldSpec, lo: int, hi: int, filled: bool = False):
        super().__init__(spec, lo, hi)
        self.received: list[tuple[int, int]] = [(lo, hi)] if filled else []
        self.bytes_received = 0.0

    def range_nbytes(self, lo: int, hi: int) -> int:
        self._check_range(lo, hi)
        return int(round((hi - lo) * self.spec.bytes_per_row))

    def extract(self, lo: int, hi: int) -> None:
        self._check_range(lo, hi)
        return None

    def insert(self, lo: int, hi: int, payload: Any) -> None:
        self._check_range(lo, hi)
        self.received.append((lo, hi))
        self.bytes_received += self.range_nbytes(lo, hi)

    @property
    def complete(self) -> bool:
        """True when the received ranges cover the whole block."""
        if self.n_rows == 0:
            return True
        merged: list[list[int]] = []
        for lo, hi in sorted(self.received):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return len(merged) == 1 and merged[0] == [self.lo, self.hi]


def make_store(spec: FieldSpec, lo: int, hi: int, data: Any = None) -> BlockStore:
    """Create a store of the right kind; empty when ``data`` is None."""
    if spec.kind == "dense":
        return DenseStore(spec, lo, hi, data)
    if spec.kind == "csr":
        return CsrStore(spec, lo, hi, data)
    if spec.kind == "virtual":
        return VirtualStore(spec, lo, hi, filled=data is True)
    raise ValueError(f"unknown kind {spec.kind!r}")  # pragma: no cover


@dataclass
class Dataset:
    """One rank's slice of every distributed object, plus the global specs."""

    n_rows_global: int
    specs: tuple[FieldSpec, ...]
    stores: dict[str, BlockStore] = field(default_factory=dict)
    lo: int = 0
    hi: int = 0

    @classmethod
    def create(
        cls,
        n_rows_global: int,
        specs: tuple[FieldSpec, ...],
        lo: int,
        hi: int,
        data: Optional[dict[str, Any]] = None,
        fill_virtual: bool = False,
    ) -> "Dataset":
        """Build the local dataset of a rank owning rows ``[lo, hi)``.

        ``data`` maps field names to initial blocks (arrays / CSR / True for
        filled virtual); missing fields start empty — the target-side shape.
        """
        data = data or {}
        stores = {}
        for spec in specs:
            init = data.get(spec.name)
            if spec.kind == "virtual" and fill_virtual and init is None:
                init = True
            stores[spec.name] = make_store(spec, lo, hi, init)
        return cls(n_rows_global, tuple(specs), stores, lo, hi)

    def field_names(self, constant: Optional[bool] = None) -> list[str]:
        """Names of all fields, or only (non-)constant ones."""
        return [
            s.name
            for s in self.specs
            if constant is None or s.constant == constant
        ]

    def range_nbytes(self, lo: int, hi: int, names: list[str]) -> int:
        return sum(self.stores[n].range_nbytes(lo, hi) for n in names)

    def extract(self, lo: int, hi: int, names: list[str]) -> dict[str, Any]:
        return {n: self.stores[n].extract(lo, hi) for n in names}

    def insert(self, lo: int, hi: int, payloads: Optional[dict[str, Any]], names: list[str]) -> None:
        """Store a received range.  ``payloads`` may be None (virtual-only
        transfers carry no real data)."""
        for n in names:
            value = payloads.get(n) if payloads else None
            self.stores[n].insert(lo, hi, value)

    # ---------------------------------------------------- whole schedules
    def extract_batch(
        self, los: Sequence[int], his: Sequence[int], names: list[str]
    ) -> list[dict[str, Any]]:
        """Per-range payload dicts for a whole schedule, packed store by
        store (one vectorized pass per field instead of one per chunk)."""
        per_store = {n: self.stores[n].extract_batch(los, his) for n in names}
        return [
            {n: per_store[n][i] for n in names} for i in range(len(los))
        ]

    def range_nbytes_batch(
        self, los: Sequence[int], his: Sequence[int], names: list[str]
    ) -> list[int]:
        """Per-range wire sizes for a whole schedule."""
        totals = [0] * len(los)
        for n in names:
            for i, nbytes in enumerate(
                self.stores[n].range_nbytes_batch(los, his)
            ):
                totals[i] += nbytes
        return totals

    def total_nbytes(self) -> int:
        return self.range_nbytes(self.lo, self.hi, list(self.stores))

    def constant_fraction(self) -> float:
        """Fraction of the local bytes held in constant fields — the paper
        reports 96.6 % asynchronously-redistributable for the CG dataset."""
        total = self.total_nbytes()
        if total == 0:
            return 0.0
        const = self.range_nbytes(self.lo, self.hi, self.field_names(constant=True))
        return const / total
