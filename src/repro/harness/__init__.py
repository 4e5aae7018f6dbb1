"""Experiment harness: sweeps, figure regeneration, CLI.

Every table and figure of the paper's evaluation maps to an entry in
:data:`~repro.harness.experiments.EXPERIMENTS`; the CLI
(``repro-harness``) runs the necessary sweeps and renders the artefacts.
"""

from .cache import CACHE_VERSION, CellCache
from .executor import SweepCellError, resolve_workers
from .fleet import WorkerFleet, active_fleet, get_fleet, shutdown_fleet
from .experiments import EXPERIMENTS, ExperimentSpec, async_sync_pairs, pairs_for
from .expmd import CLAIMS, Claim, evaluate_claims, experiments_markdown
from .expmd import headline_speedups
from .report import FigureData, build_figure, figure_report
from .runner import (
    ResultSet,
    RunResult,
    RunSpec,
    run_one,
    run_sweep,
    sweep_specs,
)

__all__ = [
    "CACHE_VERSION",
    "CellCache",
    "SweepCellError",
    "resolve_workers",
    "WorkerFleet",
    "active_fleet",
    "get_fleet",
    "shutdown_fleet",
    "EXPERIMENTS",
    "ExperimentSpec",
    "pairs_for",
    "async_sync_pairs",
    "ResultSet",
    "RunResult",
    "RunSpec",
    "run_one",
    "run_sweep",
    "sweep_specs",
    "FigureData",
    "build_figure",
    "figure_report",
    "headline_speedups",
    "Claim",
    "CLAIMS",
    "evaluate_claims",
    "experiments_markdown",
]
