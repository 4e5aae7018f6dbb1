"""The paper's statistical protocol (§4.3).

"For each configuration and pair of process group, five executions are
performed, computing the median of execution times.  Then, the
Shapiro-Wilk, Kruskal-Wallis and Post hoc Conover statistical tests are
used to characterize the different configurations."

Shapiro-Wilk and Kruskal-Wallis come from scipy; the Conover-Iman post-hoc
(scikit-posthocs in the paper) is implemented here from its 1979 formulas,
with average-rank tie handling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "shapiro_normality",
    "kruskal_wallis",
    "conover_posthoc",
    "GroupComparison",
    "compare_groups",
]


def shapiro_normality(samples: Sequence[float], alpha: float = 0.05) -> tuple[float, bool]:
    """Shapiro-Wilk: returns ``(p_value, rejects_normality)``.

    Degenerate inputs (n < 3 or constant) are treated as rejecting
    normality, which routes the pipeline to the non-parametric tests —
    the same decision the paper reports for all its configurations.
    """
    from scipy import stats as sps
    x = np.asarray(samples, dtype=np.float64)
    if len(x) < 3 or np.allclose(x, x[0]):
        return 0.0, True
    _, p = sps.shapiro(x)
    return float(p), p < alpha


def kruskal_wallis(groups: Mapping[str, Sequence[float]], alpha: float = 0.05):
    """Kruskal-Wallis H-test across named groups.

    Returns ``(H, p_value, rejects_equal_medians)``.  If every observation
    is identical the groups are trivially equal (p = 1).
    """
    from scipy import stats as sps
    arrays = [np.asarray(v, dtype=np.float64) for v in groups.values()]
    if len(arrays) < 2:
        raise ValueError("Kruskal-Wallis needs at least two groups")
    pooled = np.concatenate(arrays)
    if np.allclose(pooled, pooled[0]):
        return 0.0, 1.0, False
    h, p = sps.kruskal(*arrays)
    return float(h), float(p), p < alpha


def conover_posthoc(
    groups: Mapping[str, Sequence[float]],
) -> dict[tuple[str, str], float]:
    """Conover-Iman pairwise p-values after a Kruskal-Wallis rejection.

    Implements the 1979 rank-based t statistics: with pooled average ranks
    R̄_i, tie-corrected variance S² and the Kruskal-Wallis H,

        t_ij = (R̄_i − R̄_j) / sqrt(S² · (N−1−H)/(N−k) · (1/n_i + 1/n_j))

    compared against Student's t with N−k degrees of freedom (two-sided).
    Returns a symmetric dict keyed by group-name pairs.
    """
    from scipy import stats as sps
    names = list(groups)
    if len(names) < 2:
        raise ValueError("Conover post-hoc needs at least two groups")
    arrays = [np.asarray(groups[n], dtype=np.float64) for n in names]
    sizes = np.array([len(a) for a in arrays])
    if np.any(sizes < 1):
        raise ValueError("every group needs at least one sample")
    pooled = np.concatenate(arrays)
    n_total = len(pooled)
    k = len(names)
    if n_total <= k:
        raise ValueError("need more samples than groups")
    ranks = sps.rankdata(pooled)
    # Mean rank per group.
    mean_ranks = []
    cursor = 0
    for size in sizes:
        mean_ranks.append(float(ranks[cursor : cursor + size].mean()))
        cursor += size
    # Tie-corrected total variance of ranks.
    s2 = (np.sum(ranks**2) - n_total * (n_total + 1) ** 2 / 4.0) / (n_total - 1)
    if s2 <= 0:  # all observations identical
        return {
            (a, b): 1.0 for a, b in itertools.combinations(names, 2)
        } | {(b, a): 1.0 for a, b in itertools.combinations(names, 2)}
    h, _ = sps.kruskal(*arrays)
    df = n_total - k
    factor = s2 * (n_total - 1 - h) / df
    factor = max(factor, 1e-30)
    out: dict[tuple[str, str], float] = {}
    for (i, a), (j, b) in itertools.combinations(enumerate(names), 2):
        denom = np.sqrt(factor * (1.0 / sizes[i] + 1.0 / sizes[j]))
        t = (mean_ranks[i] - mean_ranks[j]) / denom
        p = float(2.0 * sps.t.sf(abs(t), df))
        p = min(1.0, p)
        out[(a, b)] = p
        out[(b, a)] = p
    return out


@dataclass
class GroupComparison:
    """Outcome of the full §4.3 pipeline on one (NS, NT) cell."""

    medians: dict[str, float]
    shapiro_rejects: dict[str, bool]
    kruskal_p: float
    distinguishable: bool
    #: configurations statistically indistinguishable from the best median.
    winners: list[str]

    @property
    def best(self) -> str:
        """Lowest-median configuration (first among the winners)."""
        return self.winners[0]


def compare_groups(
    groups: Mapping[str, Sequence[float]], alpha: float = 0.05
) -> GroupComparison:
    """Run the full protocol: medians + Shapiro + Kruskal (+ Conover).

    ``winners`` is the set of configurations whose Conover comparison with
    the minimum-median configuration does *not* reject equality (or every
    configuration when Kruskal-Wallis cannot distinguish any); the paper's
    Figure 6/9 tie-break picks among exactly that set.
    """
    medians = {name: float(np.median(v)) for name, v in groups.items()}
    shapiro_rejects = {
        name: shapiro_normality(v)[1] for name, v in groups.items()
    }
    _, kruskal_p, distinct = kruskal_wallis(groups, alpha)
    ordered = sorted(medians, key=lambda n: medians[n])
    best = ordered[0]
    if not distinct:
        return GroupComparison(medians, shapiro_rejects, kruskal_p, False, ordered)
    pvals = conover_posthoc(groups)
    winners = [best] + [
        name for name in ordered[1:] if pvals[(best, name)] >= alpha
    ]
    return GroupComparison(medians, shapiro_rejects, kruskal_p, True, winners)
