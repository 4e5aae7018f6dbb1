"""Redistribution plans: who sends which rows to whom.

A :class:`RedistributionPlan` is the deterministic part of Stage 3 that
every process can compute locally from ``(n_rows, NS, NT)`` — "only the
dimension of vectors and matrices is sufficient for sources and targets to
calculate the size of the data to send/receive and the destination/origin
of each chunk" (§3.1).  What can *not* be computed locally — the byte size
of sparse chunks — is exchanged by the algorithms themselves (sizes first).

The optional movement-minimising target distribution implements the paper's
future-work idea ("ensure that processes which are source and target keep as
much of their data as possible", §5) and is exercised by an ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .blockdist import block_offsets, range_overlaps

__all__ = [
    "Transfer",
    "PlanProgram",
    "RedistributionPlan",
    "movement_minimizing_offsets",
]


class PlanProgram:
    """One rank's transfer list lowered to flat numpy arrays.

    Instead of re-deriving ``(peer, lo, hi)`` per chunk per session, the
    plan lowers a rank's whole schedule *once* into ``peers``/``los``/
    ``his``/``counts`` arrays the stores consume directly: every chunk is a
    contiguous row range, so a store hands it out as a view of its block
    and no per-row index is ever built.  Programs are cached on the
    (shared, immutable) plan, so every session and every repeat of a sweep
    configuration reuses them.
    """

    __slots__ = ("transfers", "peers", "los", "his", "counts")

    def __init__(self, transfers: tuple, peer_of) -> None:
        self.transfers = transfers
        n = len(transfers)
        self.peers = np.fromiter(
            (peer_of(t) for t in transfers), dtype=np.int64, count=n
        )
        self.los = np.fromiter((t.lo for t in transfers), dtype=np.int64, count=n)
        self.his = np.fromiter((t.hi for t in transfers), dtype=np.int64, count=n)
        self.counts = self.his - self.los
        for arr in (self.peers, self.los, self.his, self.counts):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.transfers)


def _frozen_offsets(offsets: np.ndarray) -> np.ndarray:
    """Int64 *read-only* view of a partition, copied iff still writable.

    Plans are LRU-cached and shared by every rank of every simulated run, so
    their offset arrays must be immutable *and* detached from caller-owned
    buffers: aliasing a writable input would let a later in-place edit poison
    the shared cache.  Cached :func:`block_offsets` results are already
    frozen and are aliased as-is (no copy on the hot path).
    """
    arr = np.asarray(offsets, dtype=np.int64)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Transfer:
    """One chunk: rows ``[lo, hi)`` moving from source ``src`` to target ``dst``."""

    src: int
    dst: int
    lo: int
    hi: int

    @property
    def n_rows(self) -> int:
        return self.hi - self.lo


class RedistributionPlan:
    """Communication pattern between NS source ranks and NT target ranks.

    Built from explicit partition offsets so that non-uniform distributions
    (the movement-minimising extension) use the same machinery.  The two
    partitions are the whole plan: the per-rank :class:`Transfer` index
    behind the queries is built on the first per-rank query, so a plan
    that is only priced (:mod:`repro.analysis.models` folds the overlaps
    of the offsets) never materialises a chunk object.
    """

    def __init__(self, src_offsets: np.ndarray, dst_offsets: np.ndarray):
        src_offsets = _frozen_offsets(src_offsets)
        dst_offsets = _frozen_offsets(dst_offsets)
        for name, off in (("source", src_offsets), ("target", dst_offsets)):
            if off[0] != 0:
                raise ValueError(f"{name} offsets must start at 0")
            if np.any(np.diff(off) < 0):
                raise ValueError(f"{name} offsets must be non-decreasing")
        if src_offsets[-1] != dst_offsets[-1]:
            raise ValueError("source and target partitions cover different row counts")
        self.src_offsets = src_offsets
        self.dst_offsets = dst_offsets
        self.n_rows = int(src_offsets[-1])
        self.n_sources = len(src_offsets) - 1
        self.n_targets = len(dst_offsets) - 1
        #: compiled per-rank programs, built lazily (plans are shared via
        #: the LRU caches, so one compilation serves every session).
        self._programs: dict[tuple[str, int], PlanProgram] = {}

    @cached_property
    def _index(self) -> tuple[dict[int, list[Transfer]], dict[int, list[Transfer]]]:
        """The chunks by source rank and by target rank, built once."""
        by_src: dict[int, list[Transfer]] = {}
        by_dst: dict[int, list[Transfer]] = {}
        for s, t, lo, hi in range_overlaps(self.src_offsets, self.dst_offsets):
            tr = Transfer(s, t, lo, hi)
            by_src.setdefault(s, []).append(tr)
            by_dst.setdefault(t, []).append(tr)
        return by_src, by_dst

    @property
    def _by_src(self) -> dict[int, list[Transfer]]:
        return self._index[0]

    @property
    def _by_dst(self) -> dict[int, list[Transfer]]:
        return self._index[1]

    # --------------------------------------------------------------- factory
    @staticmethod
    def block(n_rows: int, n_sources: int, n_targets: int) -> "RedistributionPlan":
        """Standard balanced block distribution on both sides (the paper).

        LRU-cached: every rank of every run of a sweep derives the identical
        plan from ``(n_rows, NS, NT)``, so construction (the overlap merge
        plus per-rank chunk dicts) is shared.  Plans are immutable — queries
        hand out copies.
        """
        return _block_plan_cached(int(n_rows), int(n_sources), int(n_targets))

    @staticmethod
    def movement_minimizing(
        n_rows: int, n_sources: int, n_targets: int, slack: float = 0.5
    ) -> "RedistributionPlan":
        """Future-work extension: targets that were sources keep their rows.

        LRU-cached like :meth:`block`.
        """
        return _minmove_plan_cached(
            int(n_rows), int(n_sources), int(n_targets), float(slack)
        )

    # ---------------------------------------------------------------- queries
    def sends_for(self, src: int) -> list[Transfer]:
        """Chunks source ``src`` must send (including any self-chunk)."""
        self._check("source", src, self.n_sources)
        return list(self._by_src.get(src, []))

    def recvs_for(self, dst: int) -> list[Transfer]:
        """Chunks target ``dst`` must receive (including any self-chunk)."""
        self._check("target", dst, self.n_targets)
        return list(self._by_dst.get(dst, []))

    def compiled_sends(self, src: int) -> PlanProgram:
        """Compiled (flat-array) view of :meth:`sends_for`, cached."""
        self._check("source", src, self.n_sources)
        prog = self._programs.get(("src", src))
        if prog is None:
            prog = PlanProgram(
                tuple(self._by_src.get(src, ())), lambda t: t.dst
            )
            self._programs[("src", src)] = prog
        return prog

    def compiled_recvs(self, dst: int) -> PlanProgram:
        """Compiled (flat-array) view of :meth:`recvs_for`, cached."""
        self._check("target", dst, self.n_targets)
        prog = self._programs.get(("dst", dst))
        if prog is None:
            prog = PlanProgram(
                tuple(self._by_dst.get(dst, ())), lambda t: t.src
            )
            self._programs[("dst", dst)] = prog
        return prog

    def src_range(self, src: int) -> tuple[int, int]:
        self._check("source", src, self.n_sources)
        return int(self.src_offsets[src]), int(self.src_offsets[src + 1])

    def dst_range(self, dst: int) -> tuple[int, int]:
        self._check("target", dst, self.n_targets)
        return int(self.dst_offsets[dst]), int(self.dst_offsets[dst + 1])

    def self_rows(self, rank: int) -> int:
        """Rows a rank that is both source and target keeps locally
        (the ``memcpy`` branch of Algorithm 1)."""
        if rank >= self.n_sources or rank >= self.n_targets:
            return 0
        s_lo, s_hi = self.src_range(rank)
        d_lo, d_hi = self.dst_range(rank)
        return max(0, min(s_hi, d_hi) - max(s_lo, d_lo))

    def moved_rows(self) -> int:
        """Rows that cross rank boundaries (excludes self-chunks)."""
        persisting = range(min(self.n_sources, self.n_targets))
        return self.n_rows - sum(map(self.self_rows, persisting))

    @staticmethod
    def _check(what: str, rank: int, n: int) -> None:
        if not 0 <= rank < n:
            raise ValueError(f"{what} rank {rank} out of range 0..{n - 1}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RedistributionPlan {self.n_sources}->{self.n_targets} rows={self.n_rows} "
            f"chunks={sum(len(v) for v in self._by_src.values())}>"
        )


@lru_cache(maxsize=512)
def _block_plan_cached(n_rows: int, n_sources: int, n_targets: int) -> "RedistributionPlan":
    """The shared block plan of one ``(n_rows, NS, NT)``.

    Every rank of a simulated run queries the same plan, so its index and
    compiled programs are built once per key.  A plan that is only priced
    holds nothing but its two (themselves cached) offset arrays.
    """
    return RedistributionPlan(
        block_offsets(n_rows, n_sources), block_offsets(n_rows, n_targets)
    )


@lru_cache(maxsize=512)
def _minmove_plan_cached(
    n_rows: int, n_sources: int, n_targets: int, slack: float
) -> "RedistributionPlan":
    return RedistributionPlan(
        block_offsets(n_rows, n_sources),
        movement_minimizing_offsets(n_rows, n_sources, n_targets, slack),
    )


def movement_minimizing_offsets(
    n_rows: int, n_sources: int, n_targets: int, slack: float = 0.5
) -> np.ndarray:
    """Target partition that maximises data kept by persisting ranks.

    Ranks ``< min(NS, NT)`` exist on both sides (Merge method).  Instead of
    the balanced block partition, each persisting target keeps as much of
    its source range as the balance constraint allows: its target count may
    deviate from the balanced count by at most ``slack`` (relative).
    New ranks (expansion) split the remainder evenly.

    With ``slack=0`` this degenerates to the balanced block partition.
    """
    if not 0 <= slack:
        raise ValueError("slack must be >= 0")
    src_off = block_offsets(n_rows, n_sources)
    balanced = block_offsets(n_rows, n_targets)
    persisting = min(n_sources, n_targets)
    counts = np.diff(balanced).astype(np.float64)
    max_count = counts * (1.0 + slack)
    min_count = counts / (1.0 + slack) if slack > 0 else counts

    out = np.zeros(n_targets + 1, dtype=np.int64)
    cursor = 0
    for t in range(persisting):
        s_lo, s_hi = int(src_off[t]), int(src_off[t + 1])
        # Keep the overlap of my old range with what is still unassigned,
        # clamped into the balance window.
        desired = max(0, s_hi - max(cursor, s_lo)) if s_hi > cursor else 0
        take = int(np.clip(desired, min_count[t], max_count[t]))
        remaining_ranks = n_targets - t - 1
        remaining_rows = n_rows - cursor
        # Leave at least min_count rows for everyone after me.
        if remaining_ranks > 0:
            reserve = int(np.ceil(min_count[t + 1 :].sum()))
            take = min(take, max(0, remaining_rows - reserve))
        take = min(take, remaining_rows)
        cursor += take
        out[t + 1] = cursor
    # New ranks (or leftover persisting shortfall): balanced split of the rest.
    rest = n_rows - cursor
    tail = n_targets - persisting
    if tail > 0:
        base, extra = divmod(rest, tail)
        for i in range(tail):
            cursor += base + (1 if i < extra else 0)
            out[persisting + 1 + i] = cursor
    else:
        out[n_targets] = n_rows
        # Shrink: the last persisting rank absorbs any remainder.
        if cursor != n_rows:
            out[persisting] = n_rows
            # Re-monotonise (earlier entries unchanged; they are <= n_rows).
    if out[-1] != n_rows:
        out[-1] = n_rows
    if np.any(np.diff(out) < 0):
        raise RuntimeError("movement-minimising partition went non-monotone")
    return out
