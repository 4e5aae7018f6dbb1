"""Cell execution core behind ``run_sweep(workers=...)``.

What one cell is and how it travels, shared by the sequential loop, the
**persistent worker fleet** (:mod:`repro.harness.fleet`, which owns the
processes and the pipes) and the cell cache:

* **worker resolution** — :func:`resolve_workers` turns the user-facing
  knob into a pool width (``"auto"``, sequential fallbacks, a clamp to 1
  when ``os.cpu_count()`` is unknown);
* **the deal** — :func:`make_chunks` strides the pending cells into
  ``min(n_cells, workers * 4)`` index lists that the fleet hands out
  round-robin, which fixes the cells each worker runs and their order;
* **a compact wire format** — a worker returns 13 scalars per cell
  (:data:`WIRE_FIELDS`); everything else in a :class:`RunResult` is
  reconstructed parent-side from the :class:`RunSpec` the parent already
  holds.  The same wire tuples feed the cell cache, so cached, parallel
  and sequential sweeps all materialize rows through one code path and
  stay byte-identical.

Failures keep their provenance: a cell raising inside a worker (or a
worker dying mid-sweep) surfaces as :class:`SweepCellError` naming the
cell (``fabric:ns->nt:config:rep``) and its grid index, picklable across
the process boundary.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

__all__ = [
    "WIRE_FIELDS",
    "SweepCellError",
    "resolve_workers",
    "result_to_wire",
    "wire_to_result",
    "run_cell",
    "make_chunks",
]

#: The 13 per-cell scalars a worker ships back (everything else in a
#: RunResult is spec-derived).  Order is a wire format: the cell cache
#: persists tuples in this order, so reordering invalidates caches —
#: bump :data:`repro.harness.cache.CACHE_VERSION` if you must.
WIRE_FIELDS = (
    "reconfig_time",
    "app_time",
    "spawn_time",
    "overlapped_iterations",
    "total_iterations",
    "rms_decision_time",
    "plan_build_time",
    "redist_time",
    "commit_time",
    "redist_bytes",
    "peak_oversubscription",
    "retries",
    "recovery_time",
)


class SweepCellError(RuntimeError):
    """A sweep cell failed inside a pool worker.

    Carries the cell's provenance (``fabric:ns->nt:config:rep``) and grid
    index so a mid-chunk failure is attributable without re-running the
    sweep.  ``__reduce__`` keeps it picklable across the process-pool
    boundary (the default reduce of exceptions with keyword state is not).
    """

    def __init__(self, cell: str, index: int, cell_message: str):
        self.cell = cell
        self.index = index
        self.cell_message = cell_message
        super().__init__(
            f"sweep cell {cell} (grid index {index}) failed: {cell_message}"
        )

    def __reduce__(self):
        return (type(self), (self.cell, self.index, self.cell_message))


def resolve_workers(workers: Union[int, str, None], total: int) -> Optional[int]:
    """Turn the user-facing ``workers`` knob into a pool width or ``None``.

    ``None``/``0``/``1`` mean sequential.  ``"auto"`` asks for
    ``min(os.cpu_count(), total)`` — and ``os.cpu_count()`` may return
    ``None`` on exotic platforms, which clamps to 1 (sequential) rather
    than crashing or guessing.  A numeric request *larger than the cell
    count* falls back to sequential: the pool would mostly spawn idle
    interpreters, and sequential is both faster and exercises the
    canonical code path.  Anything non-sensical raises ``ValueError``.
    """
    if workers is None:
        return None
    if isinstance(workers, str):
        if workers.strip().lower() != "auto":
            raise ValueError(
                f"workers must be an int or 'auto', not {workers!r}"
            )
        cpus = os.cpu_count() or 1  # cpu_count() may be None: clamp to 1
        resolved = min(cpus, total)
        return resolved if resolved > 1 else None
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers <= 1:
        return None
    if workers > total:
        # More processes than cells: every extra worker is pure spawn
        # cost.  Run sequentially instead (satellite contract).
        return None
    return workers


# --------------------------------------------------------------- wire format
def result_to_wire(result) -> tuple:
    """Collapse a RunResult to its 13 non-spec scalars (wire order)."""
    return tuple(getattr(result, f) for f in WIRE_FIELDS)


def wire_to_result(spec, wire: Sequence):
    """Rebuild the full RunResult from its spec + wire scalars.

    Lossless by construction: every RunResult field is either one of the
    13 wire scalars or copied verbatim from the spec by
    :func:`~repro.harness.runner.run_one` — so
    ``wire_to_result(spec, result_to_wire(run_one(spec))) == run_one(spec)``.
    """
    from .runner import RunResult

    kw = dict(zip(WIRE_FIELDS, wire))
    return RunResult(
        ns=spec.ns,
        nt=spec.nt,
        config=spec.config,
        fabric=spec.fabric,
        scale=spec.scale,
        rep=spec.rep,
        plan_mode=spec.plan_mode,
        faults=spec.faults,
        **kw,
    )


def run_cell(spec, base, with_metrics: bool, sanitize: bool):
    """Run one cell; return ``(wire, metrics_doc | None, findings | None)``.

    The single cell-execution path shared by the sequential loop, the
    pool workers and the cache-fill: everything downstream (CSV rows,
    merged metrics, cached entries) is derived from this triple, which is
    what makes cached / parallel / sequential sweeps byte-identical.
    """
    from .runner import _stamp_cell, run_one

    reg = None
    if with_metrics:
        from ..obs import MetricsRegistry

        reg = MetricsRegistry()
    san = None
    if sanitize:
        from ..sanitize import Sanitizer

        san = Sanitizer()
    result = run_one(spec, synth_config=base, metrics=reg, sanitizer=san)
    doc = reg.to_dict() if reg is not None else None
    found = (
        [f.to_dict() for f in _stamp_cell(san.findings, spec)]
        if san is not None
        else None
    )
    return result_to_wire(result), doc, found


def make_chunks(indices: Sequence[int], workers: int) -> list[list[int]]:
    """Strided chunking: ``min(n, workers*4)`` chunks, round-robin filled.

    Striding (rather than contiguous slicing) spreads each fabric/pair
    band across all chunks, so chunk runtimes stay balanced even though
    cell cost varies systematically along the canonical order; 4 chunks
    per worker keeps tail latency low when costs are uneven.  Handles odd
    remainders by construction — chunk lengths differ by at most one.
    """
    n_chunks = min(len(indices), workers * 4)
    if n_chunks <= 0:
        return []
    return [list(indices[k::n_chunks]) for k in range(n_chunks)]
