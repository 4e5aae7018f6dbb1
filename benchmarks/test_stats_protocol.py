"""§4.3 statistics protocol on real sweep data.

The paper runs Shapiro-Wilk (normality is rejected everywhere -> medians +
non-parametric tests), Kruskal-Wallis across the configurations (12 there, 18 here) of each
(NS, NT) cell, and the Conover post-hoc where Kruskal rejects.  This bench
executes the same pipeline on the max-shrink cell (most contrast between
configs) and sanity-checks it.
"""

import pytest

from conftest import run_once
from repro.analysis import compare_groups, conover_posthoc, kruskal_wallis
from repro.harness import run_sweep
from repro.malleability import ALL_CONFIGS
from repro.synthetic.presets import SCALES

KEYS = [c.key for c in ALL_CONFIGS]
FABRICS = ["ethernet", "infiniband"]


@pytest.fixture(scope="module")
def max_shrink(bench_scale):
    """{fabric: {config: reconfig times}} of the max-shrink cell, all reps."""
    preset = SCALES[bench_scale]
    top, bottom = max(preset.ladder), min(preset.ladder)
    rs = run_sweep([(top, bottom)], KEYS, FABRICS, scale=bench_scale,
                   repetitions=preset.repetitions)
    return {f: {k: rs.times("reconfig_time", top, bottom, k, f) for k in KEYS}
            for f in FABRICS}


@pytest.mark.parametrize("fabric", FABRICS)
def test_full_protocol_on_one_cell(benchmark, max_shrink, fabric):
    groups = max_shrink[fabric]

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


def test_configurations_are_statistically_distinguishable(benchmark, max_shrink):
    """With 18 configurations spanning Baseline/Merge and S/A/T, the cell
    must not look homogeneous — otherwise the sweep carries no signal."""
    groups = max_shrink["ethernet"]
    _, p, distinct = run_once(benchmark, lambda: kruskal_wallis(groups))
    assert distinct and p < 0.05
