"""Figure regeneration: turn a sweep :class:`ResultSet` into the paper's
tables, line series, α ratios, speedups and preferred-method grids."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..analysis.asciiplot import line_chart, method_grid
from ..analysis.metrics import alpha_ratio, median, speedup
from ..analysis.selection import dominance_count, preferred_map
from ..analysis.tables import markdown_table
from ..malleability.config import ReconfigConfig
from ..synthetic.presets import SCALES
from .experiments import EXPERIMENTS, ExperimentSpec, async_sync_pairs
from .runner import ResultSet

__all__ = ["FigureData", "build_figure", "figure_report"]

BASELINE_REFERENCE = "baseline-col-s"


@dataclass
class FigureData:
    """Numbers + rendered text of one regenerated figure."""

    exp_id: str
    fabric: str
    direction: str  # 'shrink' | 'expand' | 'grid'
    x_values: list[int] = field(default_factory=list)
    #: config key -> series of medians aligned with x_values
    series: dict[str, list[float]] = field(default_factory=dict)
    #: preferred-method map for grid figures
    preferred: dict[tuple[int, int], str] = field(default_factory=dict)
    rendered: str = ""

    def as_rows(self) -> list[list]:
        rows = []
        for key, values in self.series.items():
            for x, v in zip(self.x_values, values):
                rows.append([self.exp_id, self.fabric, self.direction, key, x, v])
        return rows


def _slice_pairs(ladder: Sequence[int], direction: str) -> list[tuple[int, int]]:
    top = max(ladder)
    others = [x for x in ladder if x != top]
    if direction == "shrink":
        return [(top, x) for x in others]
    return [(x, top) for x in others]


def _legend_name(key: str) -> str:
    return ReconfigConfig.parse(key).name


def build_figure(
    spec: ExperimentSpec, rs: ResultSet, scale: str, fabric: str, direction: str
) -> FigureData:
    """Compute one panel (fabric x direction) of a figure."""
    ladder = SCALES[scale].ladder
    fig = FigureData(spec.exp_id, fabric, direction)
    if spec.shape == "grid":
        pairs = [(a, b) for a in ladder for b in ladder if a != b]
        cells = rs.cell_groups(spec.metric, pairs, list(spec.config_keys), fabric)
        fig.preferred = preferred_map(cells)
        fig.rendered = method_grid(
            {k: _legend_name(v) for k, v in fig.preferred.items()},
            ladder,
            title=f"{spec.paper_ref} [{fabric}] preferred by {spec.metric}",
        )
        return fig

    def times(key: str, ns: int, nt: int) -> list[float]:
        return rs.times(spec.metric, ns, nt, key, fabric)

    pairs = _slice_pairs(ladder, direction)
    fig.x_values = [nt if direction == "shrink" else ns for ns, nt in pairs]
    if spec.presentation == "times":
        fig.series = {
            _legend_name(key): [median(times(key, ns, nt)) for ns, nt in pairs]
            for key in spec.config_keys
        }
        y_label = f"{spec.metric} (s), median"
    elif spec.presentation == "alpha":
        fig.series = {
            _legend_name(akey): [
                alpha_ratio(times(akey, ns, nt), times(skey, ns, nt))
                for ns, nt in pairs
            ]
            for akey, skey in async_sync_pairs().items()
            if akey in spec.config_keys
        }
        y_label = "alpha = async/sync reconfiguration time"
    elif spec.presentation == "speedup":
        fig.series = {
            _legend_name(key): [
                speedup(times(BASELINE_REFERENCE, ns, nt), times(key, ns, nt))
                for ns, nt in pairs
            ]
            for key in spec.config_keys
            if key != BASELINE_REFERENCE
        }
        fig.series["Baseline COLS time (s)"] = [
            median(times(BASELINE_REFERENCE, ns, nt)) for ns, nt in pairs
        ]
        y_label = "speedup vs Baseline COLS (reference series in seconds)"
    else:  # pragma: no cover - registry is closed
        raise ValueError(f"unknown presentation {spec.presentation}")
    axis = "NT (targets)" if direction == "shrink" else "NS (sources)"
    fig.rendered = line_chart(
        fig.series,
        fig.x_values,
        title=f"{spec.paper_ref} [{fabric}] {direction}: {spec.description}",
        y_label=f"{y_label}; x = {axis}",
    )
    return fig


def figure_report(exp_id: str, rs: ResultSet, scale: str) -> str:
    """Full text report of one figure (all its panels + data table)."""
    spec = EXPERIMENTS[exp_id]
    blocks: list[str] = [f"== {spec.paper_ref}: {spec.description} =="]
    rows: list[list] = []
    for fabric in spec.fabrics:
        if spec.shape == "grid":
            fig = build_figure(spec, rs, scale, fabric, "grid")
            blocks.append(fig.rendered)
            counts = dominance_count(fig.preferred)
            blocks.append(
                "dominance: "
                + ", ".join(
                    f"{_legend_name(k)}={n}" for k, n in counts.most_common()
                )
            )
        else:
            for direction in ("shrink", "expand"):
                fig = build_figure(spec, rs, scale, fabric, direction)
                blocks.append(fig.rendered)
                rows.extend(fig.as_rows())
    if rows:
        blocks.append(
            markdown_table(
                ["figure", "fabric", "direction", "series", "x", "value"], rows
            )
        )
    return "\n\n".join(blocks)
