"""Statistics and reporting: the paper's §4.3 analysis pipeline.

Shapiro-Wilk / Kruskal-Wallis / Conover post-hoc tests, α and speedup
metrics, the preferred-method map logic of Figures 6 and 9, and table /
terminal-plot emission.
"""

from .asciiplot import line_chart, method_grid
from .metrics import alpha_ratio, median, speedup
from .obs_summary import metrics_summary
from .models import (
    Prediction,
    chunk_times,
    message_time,
    predict_p2p_redistribution,
    predict_pairwise_alltoallv,
    predict_reconfiguration,
    predict_spawn,
)
from .rmsim_summary import schedule_summary, summary_json
from .selection import dominance_count, preferred_map
from .stats import (
    GroupComparison,
    compare_groups,
    conover_posthoc,
    kruskal_wallis,
    shapiro_normality,
)
from .tables import csv_table, format_cell, markdown_table

__all__ = [
    "shapiro_normality",
    "kruskal_wallis",
    "conover_posthoc",
    "compare_groups",
    "GroupComparison",
    "median",
    "alpha_ratio",
    "speedup",
    "message_time",
    "chunk_times",
    "predict_p2p_redistribution",
    "predict_pairwise_alltoallv",
    "predict_spawn",
    "predict_reconfiguration",
    "Prediction",
    "preferred_map",
    "dominance_count",
    "markdown_table",
    "csv_table",
    "format_cell",
    "line_chart",
    "method_grid",
    "metrics_summary",
    "schedule_summary",
    "summary_json",
]
