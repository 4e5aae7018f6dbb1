"""Derived metrics of the evaluation: α ratios and speedups.

* α (Figures 4, 5): "the quotient of asynchronous and synchronous time" of
  the reconfiguration — α > 1 means overlapping made the reconfiguration
  itself slower;
* speedup (Figures 7, 8): application time of Baseline COL-S divided by the
  configuration's application time — the paper's headline numbers are
  1.14x (Ethernet) and 1.21x (Infiniband).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["median", "alpha_ratio", "speedup"]


def median(samples: Sequence[float]) -> float:
    if len(samples) == 0:
        raise ValueError("median of no samples")
    return float(np.median(np.asarray(samples, dtype=np.float64)))


def alpha_ratio(async_times: Sequence[float], sync_times: Sequence[float]) -> float:
    """α = median(asynchronous) / median(synchronous) reconfiguration time."""
    sync = median(sync_times)
    if sync <= 0:
        raise ValueError("synchronous reconfiguration time must be > 0")
    return median(async_times) / sync


def speedup(baseline_times: Sequence[float], config_times: Sequence[float]) -> float:
    """Application speedup of a configuration against the reference
    (Baseline COL-S in the paper's Figures 7 and 8)."""
    cfg = median(config_times)
    if cfg <= 0:
        raise ValueError("application time must be > 0")
    return median(baseline_times) / cfg
