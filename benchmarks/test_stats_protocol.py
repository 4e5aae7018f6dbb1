"""§4.3 statistics protocol on real sweep data.

The paper runs Shapiro-Wilk (normality is rejected everywhere -> medians +
non-parametric tests), Kruskal-Wallis across the configurations (12 there, 18 here) of each
(NS, NT) cell, and the Conover post-hoc where Kruskal rejects.  This bench
executes the same pipeline on the master sweep and sanity-checks it.
"""

import pytest

from conftest import run_once
from repro.analysis import compare_groups, conover_posthoc, kruskal_wallis
from repro.malleability import ALL_CONFIGS


def cell_of(rs, fabric):
    """Pick the max-shrink cell (most contrast between configs)."""
    pairs = rs.pairs()
    top = max(p[0] for p in pairs)
    bottom = min(p[1] for p in pairs)
    keys = [c.key for c in ALL_CONFIGS]
    return {
        key: rs.times("reconfig_time", top, bottom, key, fabric) for key in keys
    }


@pytest.mark.parametrize("fabric", ["ethernet", "infiniband"])
def test_full_protocol_on_one_cell(benchmark, master_results, fabric):
    groups = cell_of(master_results, fabric)

    def pipeline():
        comp = compare_groups(groups)
        h, p, distinct = kruskal_wallis(groups)
        post = conover_posthoc(groups) if distinct else {}
        return comp, p, post

    comp, kruskal_p, post = run_once(benchmark, pipeline)
    assert set(comp.medians) == set(groups)
    assert all(m > 0 for m in comp.medians.values())
    if comp.distinguishable:
        # Post-hoc must cover every ordered pair.
        assert len(post) == len(groups) * (len(groups) - 1)
    # The winner set is never empty and contains the best median.
    assert comp.best in comp.winners


def test_configurations_are_statistically_distinguishable(
    benchmark, master_results
):
    """With 18 configurations spanning Baseline/Merge and S/A/T, the cell
    must not look homogeneous — otherwise the sweep carries no signal."""
    groups = cell_of(master_results, "ethernet")
    _, p, distinct = run_once(benchmark, lambda: kruskal_wallis(groups))
    assert distinct and p < 0.05
