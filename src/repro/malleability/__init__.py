"""MPI malleability: the four reconfiguration stages over simulated MPI.

* :class:`ReconfigConfig` / :data:`ALL_CONFIGS` — the 18 configurations
  ({Baseline, Merge} x {P2P, COL, RMA} x {S, A, T}); :data:`PAPER_CONFIGS`
  is the paper's 12 two-sided ones;
* :class:`ScriptedRMS` — Stage 1 (scripted resource decisions);
* :func:`run_malleable` / :class:`GroupRunner` — Stages 2-4 embedded in the
  application loop (Algorithms 3 and 4);
* :class:`RunStats` — the monitoring record the harness reads.
"""

from .config import (
    ALL_CONFIGS,
    ASYNC_CONFIGS,
    PAPER_CONFIGS,
    SYNC_CONFIGS,
    ReconfigConfig,
    SpawnMethod,
)
from .checkpoint_restart import CheckpointRestartConfig, run_cr_malleable
from .manager import GroupRunner, MalleableApp, RankOutcome, run_malleable
from .rms import ReconfigRequest, ScriptedRMS
from .stats import ReconfigBreakdown, ReconfigRecord, RunStats

__all__ = [
    "SpawnMethod",
    "ReconfigConfig",
    "ALL_CONFIGS",
    "PAPER_CONFIGS",
    "SYNC_CONFIGS",
    "ASYNC_CONFIGS",
    "ScriptedRMS",
    "ReconfigRequest",
    "GroupRunner",
    "MalleableApp",
    "RankOutcome",
    "run_malleable",
    "run_cr_malleable",
    "CheckpointRestartConfig",
    "RunStats",
    "ReconfigRecord",
    "ReconfigBreakdown",
]
