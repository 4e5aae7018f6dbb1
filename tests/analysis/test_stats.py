"""Statistics pipeline: Shapiro/Kruskal wrappers, Conover from scratch,
selection logic, metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    alpha_ratio,
    compare_groups,
    conover_posthoc,
    dominance_count,
    kruskal_wallis,
    median,
    preferred_map,
    shapiro_normality,
    speedup,
)


# ------------------------------------------------------------- shapiro
def test_shapiro_normal_data_not_rejected():
    rng = np.random.default_rng(0)
    p, rejects = shapiro_normality(rng.standard_normal(200))
    assert not rejects and p > 0.05


def test_shapiro_skewed_data_rejected():
    rng = np.random.default_rng(0)
    p, rejects = shapiro_normality(rng.exponential(size=200) ** 3)
    assert rejects


def test_shapiro_degenerate_inputs_reject():
    assert shapiro_normality([1.0, 1.0])[1]
    assert shapiro_normality([2.0] * 50)[1]


# ------------------------------------------------------------- kruskal
def test_kruskal_distinguishes_shifted_groups():
    rng = np.random.default_rng(1)
    a = rng.normal(0, 1, 30)
    b = rng.normal(5, 1, 30)
    h, p, distinct = kruskal_wallis({"a": a, "b": b})
    assert distinct and p < 1e-6


def test_kruskal_same_distribution_not_distinguished():
    rng = np.random.default_rng(2)
    h, p, distinct = kruskal_wallis(
        {"a": rng.normal(0, 1, 20), "b": rng.normal(0, 1, 20)}
    )
    assert not distinct


def test_kruskal_identical_data():
    h, p, distinct = kruskal_wallis({"a": [1.0, 1.0], "b": [1.0, 1.0]})
    assert p == 1.0 and not distinct


def test_kruskal_needs_two_groups():
    with pytest.raises(ValueError):
        kruskal_wallis({"a": [1, 2, 3]})


# ------------------------------------------------------------- conover
def test_conover_separates_clearly_different_groups():
    rng = np.random.default_rng(3)
    groups = {
        "fast": list(rng.normal(1.0, 0.05, 8)),
        "slow": list(rng.normal(5.0, 0.05, 8)),
        "slower": list(rng.normal(9.0, 0.05, 8)),
    }
    p = conover_posthoc(groups)
    assert p[("fast", "slow")] < 0.01
    assert p[("fast", "slower")] < 0.01
    assert p[("fast", "slow")] == p[("slow", "fast")]  # symmetric


def test_conover_similar_groups_not_separated():
    rng = np.random.default_rng(4)
    base = rng.normal(3.0, 1.0, 12)
    groups = {"a": base + rng.normal(0, 0.01, 12), "b": base}
    p = conover_posthoc(groups)
    assert p[("a", "b")] > 0.05


def test_conover_identical_data_p_one():
    p = conover_posthoc({"a": [2.0, 2.0, 2.0], "b": [2.0, 2.0, 2.0]})
    assert p[("a", "b")] == 1.0


def test_conover_validation():
    with pytest.raises(ValueError):
        conover_posthoc({"a": [1.0, 2.0]})
    with pytest.raises(ValueError):
        conover_posthoc({"a": [1.0], "b": []})


def test_conover_against_known_reference():
    """Cross-check against scikit-posthocs' documented example behaviour:
    three groups where only the third differs."""
    groups = {
        "g1": [1.0, 2.0, 3.0, 5.0, 1.0],
        "g2": [12.0, 31.0, 54.0, 62.0, 12.0],
        "g3": [10.0, 12.0, 6.0, 74.0, 11.0],
    }
    p = conover_posthoc(groups)
    # g1 vs g2 strongly different; g2 vs g3 not.
    assert p[("g1", "g2")] < 0.05
    assert p[("g2", "g3")] > 0.05


@given(
    shift=st.floats(min_value=5.0, max_value=50.0),
    n=st.integers(min_value=5, max_value=15),
)
@settings(max_examples=25, deadline=None)
def test_conover_monotone_in_separation(shift, n):
    rng = np.random.default_rng(int(shift * 100) % 2**32)
    a = list(rng.normal(0, 1, n))
    near = {"a": a, "b": [x + 0.01 for x in a]}
    far = {"a": a, "b": [x + shift for x in a]}
    assert conover_posthoc(far)[("a", "b")] <= conover_posthoc(near)[("a", "b")]


# -------------------------------------------------------------- compare
def test_compare_groups_winner_set():
    rng = np.random.default_rng(5)
    groups = {
        "best": list(rng.normal(1.0, 0.02, 6)),
        "tied": list(rng.normal(1.001, 0.02, 6)),
        "bad": list(rng.normal(4.0, 0.02, 6)),
    }
    comp = compare_groups(groups)
    assert comp.distinguishable
    # "best" and "tied" are statistically the same group; either may hold
    # the lowest sample median, but both must be in the winner set.
    assert comp.best in ("best", "tied")
    assert {"best", "tied"} <= set(comp.winners)
    assert "bad" not in comp.winners


def test_compare_groups_indistinguishable_keeps_all():
    comp = compare_groups({"a": [1.0, 1.0, 1.0], "b": [1.0, 1.0, 1.0]})
    assert not comp.distinguishable
    assert set(comp.winners) == {"a", "b"}


# ------------------------------------------------------------- selection
def test_preferred_map_uses_frequency_tie_break():
    rng = np.random.default_rng(6)

    def cell(best, tied_with=None):
        g = {
            "m1": list(rng.normal(5.0, 0.01, 5)),
            "m2": list(rng.normal(5.0, 0.01, 5)),
            "m3": list(rng.normal(9.0, 0.01, 5)),
        }
        g[best] = list(rng.normal(1.0, 0.01, 5))
        if tied_with:
            g[tied_with] = [x + 0.001 for x in g[best]]
        return g

    cells = {
        (4, 2): cell("m1"),
        (4, 8): cell("m1"),
        (2, 8): cell("m1", tied_with="m2"),  # tie -> m1 by global frequency
    }
    pref = preferred_map(cells)
    assert pref[(4, 2)] == "m1"
    assert pref[(2, 8)] == "m1"
    counts = dominance_count(pref)
    assert counts["m1"] == 3


# --------------------------------------------------------------- metrics
def test_alpha_and_speedup():
    assert alpha_ratio([2.0, 2.2, 2.1], [2.0, 2.0, 2.0]) == pytest.approx(1.05)
    assert speedup([10.0, 10.0], [8.0, 8.0]) == pytest.approx(1.25)
    assert median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        alpha_ratio([1.0], [0.0])

