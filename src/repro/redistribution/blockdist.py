"""Block-distribution arithmetic.

The paper's applications distribute matrices and vectors "by row blocks
among the processes of a group" (§4.2).  This module is the pure arithmetic
of such distributions: per-rank counts/offsets and, crucially, the overlap
structure between the *source* distribution over NS ranks and the *target*
distribution over NT ranks, which defines the redistribution communication
pattern ("the communication pattern need not be complete, since the data
communication between some sources and some targets can be empty", §3.1).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

__all__ = [
    "block_counts",
    "block_offsets",
    "block_range",
    "owner_of_row",
    "range_overlaps",
]


@lru_cache(maxsize=4096)
def _block_counts_cached(n: int, p: int) -> np.ndarray:
    base, extra = divmod(n, p)
    counts = np.full(p, base, dtype=np.int64)
    counts[:extra] += 1
    counts.setflags(write=False)
    return counts


def block_counts(n: int, p: int) -> np.ndarray:
    """Rows owned by each of ``p`` ranks under the standard block rule:
    the first ``n % p`` ranks get one extra row.

    Results are LRU-cached (every rank of every simulated job recomputes the
    same handful of partitions) and returned as *read-only* arrays — copy
    before mutating.
    """
    if p < 1:
        raise ValueError(f"need at least one rank, got {p}")
    if n < 0:
        raise ValueError(f"row count must be >= 0, got {n}")
    return _block_counts_cached(n, p)


@lru_cache(maxsize=4096)
def _block_offsets_cached(n: int, p: int) -> np.ndarray:
    offsets = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(block_counts(n, p), out=offsets[1:])
    offsets.setflags(write=False)
    return offsets


def block_offsets(n: int, p: int) -> np.ndarray:
    """Starting row of each rank (length p+1; last entry is ``n``).

    LRU-cached and read-only, like :func:`block_counts`.
    """
    if p < 1:
        raise ValueError(f"need at least one rank, got {p}")
    if n < 0:
        raise ValueError(f"row count must be >= 0, got {n}")
    return _block_offsets_cached(n, p)


def block_range(n: int, p: int, rank: int) -> tuple[int, int]:
    """Half-open row range ``[lo, hi)`` owned by ``rank``."""
    if not 0 <= rank < p:
        raise ValueError(f"rank {rank} out of range for p={p}")
    offsets = block_offsets(n, p)
    return int(offsets[rank]), int(offsets[rank + 1])


def owner_of_row(n: int, p: int, row: int) -> int:
    """Rank owning ``row`` under the block rule."""
    if not 0 <= row < n:
        raise ValueError(f"row {row} out of range for n={n}")
    offsets = block_offsets(n, p)
    return int(np.searchsorted(offsets, row, side="right") - 1)


def range_overlaps(
    offsets_a: np.ndarray, offsets_b: np.ndarray
) -> Iterator[tuple[int, int, int, int]]:
    """Non-empty intersections between two partitions of the same ``[0, n)``.

    Yields ``(rank_a, rank_b, lo, hi)`` in lexicographic order.  A classic
    two-pointer merge: O(pa + pb), never materialising the pa x pb matrix —
    with block partitions each source only overlaps a contiguous run of
    targets, which is why the redistribution pattern is sparse.  The walk
    runs over Python ints (one ``tolist`` per partition), not numpy scalars.
    """
    a_off, b_off = offsets_a.tolist(), offsets_b.tolist()
    if a_off[-1] != b_off[-1]:
        raise ValueError(
            f"partitions cover different ranges: {a_off[-1]} vs {b_off[-1]}"
        )
    a, b = 0, 0
    pa, pb = len(a_off) - 1, len(b_off) - 1
    # Both partitions only grow, so ``lo`` (the larger of the two current
    # starts) is where the previous overlap ended.
    lo = max(a_off[0], b_off[0])
    while a < pa and b < pb:
        a_hi, b_hi = a_off[a + 1], b_off[b + 1]
        hi = a_hi if a_hi <= b_hi else b_hi
        if lo < hi:
            yield a, b, lo, hi
            lo = hi
        # Advance whichever range ends first.
        if a_hi <= b_hi:
            a += 1
        else:
            b += 1
