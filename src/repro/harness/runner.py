"""Sweep executor: run the synthetic CG emulation over the evaluation grid.

One :class:`RunResult` per simulated job; a :class:`ResultSet` aggregates
the whole sweep and answers the queries the figures need (reconfiguration
times, application times, grouped by configuration / pair / fabric).
Results round-trip through CSV so expensive sweeps can be cached.

``run_sweep(..., workers=N)`` fans the grid out over the persistent worker
fleet (:mod:`repro.harness.fleet`).  Each cell is an independent
simulation with a deterministic CRC32 seed
(:func:`_seed_of`) and — since PR 1 — a *history-independent* outcome (the
network layer no longer lets object-address set ordering leak into event
ordering), so the parallel sweep is **bit-identical** to the sequential one:
results are merged back in canonical spec order and serialize to the same
CSV bytes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from ..cluster.fabrics import fabric_by_name
from ..cluster.machine import Machine
from ..faults import FaultInjector, FaultSchedule
from ..malleability.config import ReconfigConfig
from ..malleability.rms import ReconfigRequest
from ..redistribution.plan import RedistributionPlan
from ..simulate.core import Simulator
from ..smpi.errors import CommFailedError
from ..smpi.world import MpiWorld
from ..synthetic.application import launch_synthetic
from ..synthetic.configfile import SyntheticConfig
from ..synthetic.presets import SCALES, cg_emulation_config

__all__ = [
    "RunSpec",
    "RunResult",
    "ResultSet",
    "CSV_COLUMNS",
    "result_to_row",
    "result_from_row",
    "run_one",
    "run_sweep",
    "sweep_specs",
]

ConfigLike = Union[ReconfigConfig, str]


def _coerce_config(config, klass: str) -> ReconfigConfig:
    """Accept a ReconfigConfig or any string its parser takes.

    Migration note: the deprecated ``config_key=`` keyword and the
    ``.config_key`` property were removed with the 18-config matrix —
    pass/read ``config`` (a :class:`ReconfigConfig` or key string) and
    spell the string as ``.config.key``.  Stored CSVs are unaffected:
    the serialized column is still literally named ``config_key``."""
    if config is None:
        raise TypeError(f"{klass} requires a reconfiguration config")
    if isinstance(config, ReconfigConfig):
        return config
    return ReconfigConfig.parse(config)


@dataclass(frozen=True)
class RunSpec:
    """One simulated job: a (pair, configuration, fabric, repetition) cell.

    The configuration is carried as a first-class
    :class:`~repro.malleability.ReconfigConfig`; strings (``"merge-col-s"``
    or ``"Merge COLS"``) are parsed on construction.  The former
    ``config_key`` property/keyword is gone — use ``.config.key`` (the CSV
    column of that name is unchanged, so cached sweeps still load).
    """

    ns: int
    nt: int
    #: required; the ``None`` default only keeps the positional order and
    #: is rejected with a ``TypeError`` on construction.
    config: ReconfigConfig = None
    fabric: str = ""
    scale: str = ""
    rep: int = 0
    #: redistribution plan flavour: 'block' (paper) or 'minmove' (the §5
    #: future-work movement-minimising extension, ablation benches).
    plan_mode: str = "block"
    #: canonical fault schedule spec (``repro.faults``); "" = fault-free.
    faults: str = ""

    def __post_init__(self):
        object.__setattr__(self, "config", _coerce_config(self.config, "RunSpec"))
        # Validate + canonicalize eagerly: bad specs fail before any cell
        # runs, and equal schedules serialize identically in the CSV.
        faults = self.faults
        object.__setattr__(
            self, "faults",
            FaultSchedule.parse(faults).canonical() if faults.strip() else "",
        )


@dataclass(frozen=True)
class RunResult:
    """Telemetry of one completed job.

    The four original scalars (``reconfig_time``, ``app_time``,
    ``spawn_time``, ``overlapped_iterations``) are joined by the per-stage
    breakdown columns the paper's figures decompose into, all computed from
    always-on :class:`~repro.malleability.ReconfigRecord` stamps — the same
    values whether or not a metrics probe was attached, so parallel sweep
    CSVs stay byte-identical.
    """

    ns: int
    nt: int
    #: required, string or object, exactly as in :class:`RunSpec`.
    config: ReconfigConfig = None
    fabric: str = ""
    scale: str = ""
    rep: int = 0
    reconfig_time: float = 0.0
    app_time: float = 0.0
    spawn_time: float = 0.0
    overlapped_iterations: int = 0
    total_iterations: int = 0
    plan_mode: str = "block"
    #: Stage-1 decision -> plan built (sim seconds; ~0 in the emulation).
    rms_decision_time: float = 0.0
    #: plan built -> spawn start.
    plan_build_time: float = 0.0
    #: Stage-3: first redistribution send -> last byte landed.
    redist_time: float = 0.0
    #: Stage-4: data complete -> handoff finished.
    commit_time: float = 0.0
    #: total bytes moved by redistribution traffic (``reconf*`` labels).
    redist_bytes: float = 0.0
    #: max over nodes of peak demand / cores (>1 means oversubscribed).
    peak_oversubscription: float = 0.0
    #: canonical fault schedule the cell ran under ("" = fault-free).
    faults: str = ""
    #: reconfiguration attempts re-issued by the recovery ladder.
    retries: int = 0
    #: first failure -> recovery committed (sim seconds; 0.0 when clean).
    recovery_time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "config", _coerce_config(self.config, "RunResult"))

    @property
    def pair(self) -> tuple[int, int]:
        return (self.ns, self.nt)


def run_one(
    spec: RunSpec,
    synth_config: Optional[SyntheticConfig] = None,
    metrics=None,
    tracer=None,
    sanitizer=None,
) -> RunResult:
    """Execute one job and extract the figure metrics.

    ``metrics`` — an optional :class:`repro.obs.MetricsRegistry`.  When
    given, a :class:`repro.obs.MetricsProbe` is attached for the whole run
    and finalized into it (including the per-stage reconfiguration
    breakdown).  ``tracer`` — an optional :class:`repro.trace.Tracer`,
    attached for the run and detached afterwards.  ``sanitizer`` — an
    optional :class:`repro.sanitize.Sanitizer`; it is attached for the
    run, detached afterwards, and (when ``metrics`` is also given) its
    findings are flushed into the registry as
    ``sanitizer_findings{rule=...}``.  The returned :class:`RunResult` is
    identical either way: its breakdown columns come from always-on
    stamps, never from the probe or the sanitizer.
    """
    preset = SCALES[spec.scale]
    base = synth_config or cg_emulation_config(spec.scale)
    cfg = base.with_reconfigurations(
        [ReconfigRequest(preset.reconfigure_at, spec.nt)]
    )
    sim = Simulator()
    machine = Machine(
        sim,
        preset.n_nodes,
        preset.cores_per_node,
        fabric_by_name(spec.fabric),
        seed=_seed_of(spec),
    )
    world = MpiWorld(machine, spawn_model=preset.spawn_model)
    probe = None
    if metrics is not None:
        from ..obs import MetricsProbe

        probe = MetricsProbe(metrics).attach(machine, world)
    if tracer is not None:
        tracer.attach(machine)
    if sanitizer is not None:
        sanitizer.attach(world=world)
    if spec.plan_mode == "block":
        plan_factory = RedistributionPlan.block
    elif spec.plan_mode == "minmove":
        plan_factory = RedistributionPlan.movement_minimizing
    else:
        raise ValueError(f"unknown plan mode {spec.plan_mode!r}")
    stats = launch_synthetic(
        world, cfg, spec.config, n_initial=spec.ns,
        plan_factory=plan_factory,
    )
    if spec.faults:
        FaultInjector(
            FaultSchedule.parse(spec.faults), machine, world
        ).attach()
    try:
        sim.run()
        if stats.finished_at is None and world.dead_gids and all(
            g in world.dead_gids or ep.closed for g, ep in world.endpoints.items()
        ):
            # Every rank died or retired: none is left to recover or report.
            raise CommFailedError("every rank of the job died",
                                  dead_gids=world.dead_gids)
    finally:
        # Detach even on deadlock/failure so the sanitizer runs its
        # end-of-run passes and its findings survive the exception.
        if sanitizer is not None:
            sanitizer.detach()
            if metrics is not None:
                sanitizer.flush_to(metrics)
    if tracer is not None:
        tracer.detach()
    if probe is not None:
        probe.detach()
        metrics.meta.update(
            {
                "ns": spec.ns,
                "nt": spec.nt,
                "config": spec.config.key,
                "fabric": spec.fabric,
                "scale": spec.scale,
                "rep": spec.rep,
                "plan_mode": spec.plan_mode,
                "faults": spec.faults,
            }
        )
        probe.finalize(stats)
    rec = stats.last_reconfig
    bd = rec.breakdown
    # float() even for an empty sum: the cache reads the column back as one.
    redist_bytes = float(sum(
        v for k, v in world.bytes_by_label.items() if k.startswith("reconf")
    ))
    peak_over = max(
        (n.peak_demand / n.cores for n in machine.nodes), default=0.0
    )
    return RunResult(
        ns=spec.ns,
        nt=spec.nt,
        config=spec.config,
        fabric=spec.fabric,
        scale=spec.scale,
        rep=spec.rep,
        reconfig_time=rec.reconfiguration_time,
        app_time=stats.app_time,
        spawn_time=bd.spawn_seconds,
        overlapped_iterations=rec.overlapped_iterations,
        total_iterations=stats.total_iterations(),
        plan_mode=spec.plan_mode,
        rms_decision_time=bd.rms_decision_seconds,
        plan_build_time=bd.plan_build_seconds,
        redist_time=bd.redistribution_seconds,
        commit_time=bd.commit_seconds,
        redist_bytes=redist_bytes,
        peak_oversubscription=peak_over,
        faults=spec.faults,
        retries=rec.retries,
        recovery_time=rec.recovery_time,
    )


def _seed_of(spec: RunSpec) -> int:
    """Deterministic per-run seed: reps differ, reruns reproduce exactly
    (zlib.crc32, not hash(): str hashing is salted per interpreter)."""
    import zlib

    token = (
        f"{spec.ns}:{spec.nt}:{spec.config.key}:{spec.fabric}:{spec.rep}:{spec.plan_mode}"
    )
    if spec.faults:
        # Appended only when set so fault-free seeds (and every cached
        # fault-free CSV) are unchanged.
        token += f":{spec.faults}"
    return zlib.crc32(token.encode())


class ResultSet:
    """A queryable collection of :class:`RunResult`."""

    def __init__(self, results: Iterable[RunResult] = ()):
        self.results: list[RunResult] = list(results)

    def add(self, result: RunResult) -> None:
        self.results.append(result)

    def merge(self, other: "ResultSet") -> "ResultSet":
        """Union of two sweeps (duplicate cells keep both samples)."""
        return ResultSet(self.results + other.results)

    def __len__(self) -> int:
        return len(self.results)

    # ---------------------------------------------------------------- queries
    @staticmethod
    def _key_of(config: Optional[ConfigLike]) -> Optional[str]:
        if config is None or isinstance(config, str):
            return config
        return config.key

    def select(
        self,
        ns: Optional[int] = None,
        nt: Optional[int] = None,
        config_key: Optional[ConfigLike] = None,
        fabric: Optional[str] = None,
    ) -> list[RunResult]:
        key = self._key_of(config_key)
        out = []
        for r in self.results:
            if ns is not None and r.ns != ns:
                continue
            if nt is not None and r.nt != nt:
                continue
            if key is not None and r.config.key != key:
                continue
            if fabric is not None and r.fabric != fabric:
                continue
            out.append(r)
        return out

    def times(
        self, metric: str, ns: int, nt: int, config_key: ConfigLike, fabric: str
    ) -> list[float]:
        """Samples of ``metric`` ('reconfig_time' | 'app_time') in one cell."""
        rows = self.select(ns=ns, nt=nt, config_key=config_key, fabric=fabric)
        if not rows:
            raise KeyError(
                f"no results for ns={ns} nt={nt} "
                f"{self._key_of(config_key)} on {fabric}"
            )
        return [getattr(r, metric) for r in rows]

    def cell_groups(
        self,
        metric: str,
        pairs: Sequence[tuple[int, int]],
        config_keys: Sequence[ConfigLike],
        fabric: str,
    ) -> dict[tuple[int, int], dict[str, list[float]]]:
        """{pair: {config: samples}} — the shape the analysis layer eats."""
        return {
            (ns, nt): {
                self._key_of(key): self.times(metric, ns, nt, key, fabric)
                for key in config_keys
            }
            for ns, nt in pairs
        }

    def pairs(self) -> list[tuple[int, int]]:
        return sorted({(r.ns, r.nt) for r in self.results})

    def fabrics(self) -> list[str]:
        return sorted({r.fabric for r in self.results})

    def config_keys(self) -> list[str]:
        return sorted({r.config.key for r in self.results})

    def configs(self) -> list[ReconfigConfig]:
        return sorted(
            {r.config for r in self.results}, key=lambda c: c.key
        )

    # ------------------------------------------------------------------- CSV
    def to_csv(self, path: Union[str, Path, None] = None) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(result_to_row(r) for r in self.results)
        text = out.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_csv(cls, source: Union[str, Path]) -> "ResultSet":
        text = (
            Path(source).read_text()
            if isinstance(source, Path) or "\n" not in str(source)
            else str(source)
        )
        rows = csv.DictReader(io.StringIO(text))
        return cls(result_from_row(row) for row in rows)


#: The CSV schema is :class:`RunResult` itself: one column per field in
#: declaration order (the original layout with the breakdown columns
#: appended), ``config`` serialized under its stable ``config_key`` name.
_RESULT_FIELDS = fields(RunResult)
CSV_COLUMNS = tuple(
    "config_key" if f.name == "config" else f.name for f in _RESULT_FIELDS
)
#: the original columns every results CSV has; later ones may be absent.
_REQUIRED_COLUMNS = 11
#: text -> value by field annotation (a string under postponed evaluation);
#: ``str`` for the rest, ``config`` included (RunResult parses the key).
_PARSERS = {"int": int, "float": float}


def result_to_row(r: RunResult) -> list[str]:
    """One CSV record (``str`` of each field, so floats keep their repr)."""
    return [
        r.config.key if f.name == "config" else str(getattr(r, f.name))
        for f in _RESULT_FIELDS
    ]


def result_from_row(row: Mapping[str, Optional[str]]) -> RunResult:
    """Parse one record keyed by :data:`CSV_COLUMNS`.  A missing original
    column raises ``KeyError``; a missing later one takes its default."""
    kw = {}
    for k, (f, col) in enumerate(zip(_RESULT_FIELDS, CSV_COLUMNS)):
        text = row[col] if k < _REQUIRED_COLUMNS else row.get(col)
        if text is not None:
            kw[f.name] = _PARSERS.get(f.type, str)(text)
    return RunResult(**kw)


def sweep_specs(
    pairs: Sequence[tuple[int, int]],
    config_keys: Sequence[ConfigLike],
    fabrics: Sequence[str],
    scale: str,
    reps: int,
    faults: str = "",
) -> list[RunSpec]:
    """The canonical (fabric, pair, config, rep) enumeration of a sweep.

    ``config_keys`` entries may be :class:`ReconfigConfig` objects or key
    strings — :class:`RunSpec` normalizes either.  This order defines the
    row order of the ResultSet/CSV; the parallel executor gathers into it
    so its output matches the sequential one byte for byte.  A ``faults``
    schedule applies uniformly to every cell of the sweep.
    """
    return [
        RunSpec(ns, nt, key, fabric, scale, rep, faults=faults)
        for fabric in fabrics
        for ns, nt in pairs
        for key in config_keys
        for rep in range(reps)
    ]


def run_sweep(
    pairs: Sequence[tuple[int, int]],
    config_keys: Sequence[ConfigLike],
    fabrics: Sequence[str],
    scale: str = "tiny",
    repetitions: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    synth_config: Optional[SyntheticConfig] = None,
    workers: "Union[int, str, None]" = None,
    metrics=None,
    faults: str = "",
    sanitize: bool = False,
    cache=None,
) -> ResultSet:
    """Run the full cross product; the master data behind every figure.

    Parameters
    ----------
    workers:
        ``None``, ``0`` or ``1`` run sequentially in-process.  ``N > 1``
        fans the grid out over the **persistent worker fleet**
        (:mod:`repro.harness.fleet`): workers are spawned once per base
        config and reused by consecutive ``run_sweep`` calls, streaming
        results back over one pipe per worker in completion order.
        Results are gathered back in canonical spec order, so the
        returned ResultSet (and its CSV serialization) is bit-identical
        to a sequential run.  ``"auto"`` picks
        ``min(os.cpu_count() or 1, n_cells)``.  A numeric ``N`` larger
        than the number of cells to run falls back to sequential (the
        fleet would mostly hold idle interpreters).
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` to aggregate the whole
        sweep into.  Each cell records into its own fresh registry; cell
        registries travel as plain documents and are merged into
        ``metrics`` in canonical spec order, so the merged aggregate is
        identical for any worker count and for cached re-runs.
    progress:
        Called once per completed cell with ``[done/total]`` plus an
        elapsed-seconds heartbeat.  Under parallel execution cells complete
        out of order; ``done`` counts completions, not grid position.
        Cache hits count as completions too.
    faults:
        Optional :mod:`repro.faults` schedule spec applied to every cell.
        Injection is seeded and event-driven, so a faulted sweep remains
        bit-identical between sequential and parallel executions.
    sanitize:
        Attach a fresh :class:`repro.sanitize.Sanitizer` to every cell.
        Findings flush into ``metrics`` (when given) per cell; any
        finding across the sweep raises
        :class:`repro.sanitize.SanitizerError` after all cells ran, with
        per-cell provenance in each finding's ``detail["cell"]``.
        Sanitized sweeps bypass the cell cache (findings must be
        regenerated, never replayed).
    cache:
        ``None`` (default) disables caching.  A path or
        :class:`repro.harness.cache.CellCache` memoizes completed cells
        on disk; cache hits reproduce the exact result row and metrics
        documents of a fresh run, so cached sweeps stay byte-identical.
    """
    from .cache import CellCache
    from .executor import resolve_workers, run_cell

    preset = SCALES[scale]
    reps = repetitions if repetitions is not None else preset.repetitions
    base = synth_config or cg_emulation_config(scale)
    specs = sweep_specs(pairs, config_keys, fabrics, scale, reps, faults=faults)
    total = len(specs)
    with_metrics = metrics is not None
    cache_obj = None if sanitize else CellCache.coerce(cache)

    # Grid-indexed gather targets; every execution style fills these and
    # the rows/merges below derive from them, which is what keeps
    # sequential / parallel / cached sweeps byte-identical.
    results: list = [None] * total
    docs: list = [None] * total
    found: list = [None] * total

    pending = list(range(total))
    if cache_obj is not None:
        pending = []
        for i, spec in enumerate(specs):
            hit = cache_obj.get(spec, base, with_metrics)
            if hit is not None:
                results[i], docs[i] = hit
            else:
                pending.append(i)

    nworkers = resolve_workers(workers, len(pending)) if pending else None
    # Only consult the wall clock when someone is watching (time.time()
    # per tiny cell is measurable overhead at paper scale).
    started = time.time() if progress is not None else 0.0  # repro: noqa[REP001] - host-side progress heartbeat, not simulated time

    def _report(done: int, spec: RunSpec) -> None:
        elapsed = time.time() - started  # repro: noqa[REP001] - host-side progress heartbeat, not simulated time
        progress(
            f"[{done}/{total}] {spec.fabric} {spec.ns}->{spec.nt} "
            f"{spec.config.key} rep{spec.rep} ({elapsed:.0f}s)"
        )

    # Incremental canonical-order merge: cells complete out of order
    # under the fleet, but documents are merged strictly along the grid
    # frontier (the lowest index not yet absorbed), so the aggregate is
    # identical for any worker count, any completion order, and cached
    # replays — while still being folded in as cells stream in instead
    # of in one pass after the sweep.
    frontier = 0

    def _absorb() -> None:
        nonlocal frontier
        if not with_metrics:
            frontier = total
            return
        from ..obs import MetricsRegistry

        while frontier < total and results[frontier] is not None:
            metrics.merge(MetricsRegistry.from_dict(docs[frontier]))
            frontier += 1

    if nworkers is not None:
        from .fleet import get_fleet

        # Cache hits report first (canonical order), then fleet completions.
        done = 0
        if progress is not None:
            for i in range(total):
                if results[i] is not None:
                    done += 1
                    _report(done, specs[i])
        _absorb()
        cells = get_fleet(base, nworkers).run_cells(
            specs, pending, with_metrics, sanitize
        )
        # closing(): if this loop's body raises, the fleet stops the
        # workers that still owe cells now, not when the frame is freed.
        with contextlib.closing(cells):
            for i, result, doc, cell_found in cells:
                results[i], docs[i], found[i] = result, doc, cell_found
                if cache_obj is not None:
                    cache_obj.put(specs[i], base, with_metrics, result, doc)
                _absorb()
                done += 1
                if progress is not None:
                    _report(done, specs[i])
    else:
        for done, spec in enumerate(specs, start=1):
            i = done - 1
            if results[i] is None:
                results[i], docs[i], found[i] = run_cell(
                    spec, base, with_metrics, sanitize
                )
                if cache_obj is not None:
                    cache_obj.put(spec, base, with_metrics, results[i], docs[i])
            if progress is not None:
                _report(done, spec)
    _absorb()
    findings: list = []
    if sanitize:
        from ..sanitize.findings import Finding

        for cell in found:
            for d in cell or ():
                findings.append(Finding(**d))
    _raise_if_findings(findings)
    return ResultSet(results)


def _cell_key(spec: RunSpec) -> str:
    return f"{spec.fabric}:{spec.ns}->{spec.nt}:{spec.config.key}:rep{spec.rep}"


def _stamp_cell(findings, spec: RunSpec) -> list:
    """Annotate sanitizer findings with the sweep cell they came from."""
    for f in findings:
        f.detail["cell"] = _cell_key(spec)
    return list(findings)


def _raise_if_findings(findings) -> None:
    if findings:
        from ..sanitize import SanitizerError
        from ..sanitize.findings import Finding

        raise SanitizerError(sorted(findings, key=Finding.sort_key))


