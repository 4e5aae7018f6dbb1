"""Experiment registry: one spec per figure of the paper's evaluation.

Every figure is a *view* over the same master sweep (pairs x 18 configs x
2 fabrics x reps), so the registry records which slice, metric and
presentation each figure needs; :mod:`repro.harness.report` renders them.

The config lists are derived from :data:`repro.malleability.config.
ALL_CONFIGS`, so the views grew with the matrix: since the RMA arm became
first-class the "synchronous" figures (2/3) plot six series ``{Baseline,
Merge} x {P2P, COL, RMA}`` and the alpha/speedup/grid figures cover all
18 cells.  The paper's claims are about its 12 two-sided configurations:
:mod:`repro.harness.expmd` cuts each figure down to
:data:`~repro.malleability.config.PAPER_CONFIGS` to check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..malleability.config import ALL_CONFIGS, ASYNC_CONFIGS, SYNC_CONFIGS
from ..synthetic.presets import SCALES

__all__ = ["ExperimentSpec", "EXPERIMENTS", "pairs_for", "async_sync_pairs"]


@dataclass(frozen=True)
class ExperimentSpec:
    """What one paper artefact needs from the sweep."""

    exp_id: str
    paper_ref: str
    description: str
    #: 'reconfig_time' or 'app_time'
    metric: str
    #: 'slices' (shrink-from-max + expand-to-max lines) or 'grid' (all pairs)
    shape: str
    #: configuration keys involved
    config_keys: tuple[str, ...]
    #: fabrics involved
    fabrics: tuple[str, ...]
    #: how the figure presents the metric
    presentation: str  # 'times' | 'alpha' | 'speedup' | 'preferred'


_SYNC = tuple(c.key for c in SYNC_CONFIGS)
_ALL = tuple(c.key for c in ALL_CONFIGS)

EXPERIMENTS: dict[str, ExperimentSpec] = {
    "fig2": ExperimentSpec(
        exp_id="fig2",
        paper_ref="Figure 2",
        description="Reconfiguration times of synchronous methods, Ethernet "
        "(shrink from max / expand to max)",
        metric="reconfig_time",
        shape="slices",
        config_keys=_SYNC,
        fabrics=("ethernet",),
        presentation="times",
    ),
    "fig3": ExperimentSpec(
        exp_id="fig3",
        paper_ref="Figure 3",
        description="Reconfiguration times of synchronous methods, Infiniband",
        metric="reconfig_time",
        shape="slices",
        config_keys=_SYNC,
        fabrics=("infiniband",),
        presentation="times",
    ),
    "fig4": ExperimentSpec(
        exp_id="fig4",
        paper_ref="Figure 4",
        description="alpha = async/sync reconfiguration time, Ethernet",
        metric="reconfig_time",
        shape="slices",
        config_keys=_ALL,
        fabrics=("ethernet",),
        presentation="alpha",
    ),
    "fig5": ExperimentSpec(
        exp_id="fig5",
        paper_ref="Figure 5",
        description="alpha = async/sync reconfiguration time, Infiniband",
        metric="reconfig_time",
        shape="slices",
        config_keys=_ALL,
        fabrics=("infiniband",),
        presentation="alpha",
    ),
    "fig6": ExperimentSpec(
        exp_id="fig6",
        paper_ref="Figure 6",
        description="Preferred method per (NS, NT) by reconfiguration time",
        metric="reconfig_time",
        shape="grid",
        config_keys=_ALL,
        fabrics=("ethernet", "infiniband"),
        presentation="preferred",
    ),
    "fig7": ExperimentSpec(
        exp_id="fig7",
        paper_ref="Figure 7",
        description="Application time speedups vs Baseline COLS, Ethernet",
        metric="app_time",
        shape="slices",
        config_keys=_ALL,
        fabrics=("ethernet",),
        presentation="speedup",
    ),
    "fig8": ExperimentSpec(
        exp_id="fig8",
        paper_ref="Figure 8",
        description="Application time speedups vs Baseline COLS, Infiniband",
        metric="app_time",
        shape="slices",
        config_keys=_ALL,
        fabrics=("infiniband",),
        presentation="speedup",
    ),
    "fig9": ExperimentSpec(
        exp_id="fig9",
        paper_ref="Figure 9",
        description="Preferred method per (NS, NT) by application time",
        metric="app_time",
        shape="grid",
        config_keys=_ALL,
        fabrics=("ethernet", "infiniband"),
        presentation="preferred",
    ),
}


def pairs_for(spec: ExperimentSpec, scale: str) -> list[tuple[int, int]]:
    """(NS, NT) pairs a figure needs at the given scale."""
    ladder = SCALES[scale].ladder
    top = max(ladder)
    if spec.shape == "slices":
        shrink = [(top, x) for x in ladder if x != top]
        expand = [(x, top) for x in ladder if x != top]
        return shrink + expand
    return [(a, b) for a in ladder for b in ladder if a != b]


def async_sync_pairs() -> dict[str, str]:
    """async config key -> its synchronous counterpart (for alpha)."""
    out = {}
    for cfg in ASYNC_CONFIGS:
        out[cfg.key] = f"{cfg.spawn.value}-{cfg.redist.value}-s"
    return out
