"""EXPERIMENTS.md generation from sweep data."""

import pytest

from repro.harness import (
    CLAIMS,
    EXPERIMENTS,
    ResultSet,
    evaluate_claims,
    experiments_markdown,
    figure_report,
    run_sweep,
)
from repro.malleability import ALL_CONFIGS, PAPER_CONFIGS
from repro.synthetic.presets import SCALES


@pytest.fixture(scope="module")
def grid_sweep():
    """Full tiny grid, 1 rep (claims need every figure's cells)."""
    preset = SCALES["tiny"]
    return run_sweep(
        preset.pairs(),
        [c.key for c in ALL_CONFIGS],
        ["ethernet", "infiniband"],
        scale="tiny",
        repetitions=1,
    )


#: every registered claim's verdict on the tiny 1-rep grid.  A DEVIATION
#: here is a claim the reproduction misses at this scale: it stays pinned
#: (and reported by id in EXPERIMENTS.md), it is never dropped.
TINY_VERDICTS = {
    "fig2.merge-beats-baseline.ethernet": "PASS",
    "fig3.merge-beats-baseline.infiniband": "PASS",
    "fig2.baseline-cols-slowest.ethernet": "PASS",
    "fig3.baseline-cols-slowest.infiniband": "PASS",
    "fig2.merge-within-5pct-per-point.ethernet": "PASS",
    "fig3.merge-within-5pct-per-point.infiniband": "PASS",
    # gap 0.017 s at NT=2 vs 0.016 s at NT=4 (PASS at small)
    "fig2.merge-advantage-grows-with-nt.ethernet": "DEVIATION",
    "fig3.merge-variants-close.infiniband": "PASS",
    "fig3.infiniband-faster-than-ethernet": "PASS",
    "fig4.alpha-at-or-above-1.ethernet": "PASS",
    "fig5.alpha-at-or-above-1.infiniband": "PASS",
    "fig4.median-alpha-in-band.ethernet": "PASS",
    "fig5.median-alpha-in-band.infiniband": "PASS",
    "fig4.threads-pay-more-alpha.ethernet": "PASS",
    "fig4.baseline-cola-below-1.ethernet": "PASS",
    "fig4-5.alpha-below-1-somewhere": "PASS",
    "fig5.alpha-higher-than-ethernet": "PASS",
    "fig6.merge-sync-dominates.ethernet": "PASS",
    "fig6.merge-sync-dominates.infiniband": "PASS",
    "fig7.peak-speedup-is-async.ethernet": "PASS",
    "fig8.peak-speedup-is-async.infiniband": "PASS",
    "fig7.expansion-peak-is-merge-async.ethernet": "PASS",
    "fig8.expansion-peak-is-merge-async.infiniband": "PASS",
    "fig7.headline-in-range.ethernet": "PASS",
    "fig8.headline-in-range.infiniband": "PASS",
    "fig7.merge-async-median-speedup.ethernet": "PASS",
    "fig8.merge-async-median-speedup.infiniband": "PASS",
    "fig7.merge-and-baseline-p2ps-beat-cols.ethernet": "PASS",
    "fig7.async-not-slower-than-sync.ethernet": "PASS",
    "fig8.async-not-slower-than-sync.infiniband": "PASS",
    "fig9.async-dominates.ethernet": "PASS",
    "fig9.async-dominates.infiniband": "PASS",
    "fig9.merge-async-beats-baseline-async.ethernet": "PASS",
    "fig9.merge-async-beats-baseline-async.infiniband": "PASS",
    "fig9.merge-holds-half": "PASS",
    # T wins 0 vs A 6 of 6 cells (10 vs 20 of 30 at small)
    "fig9.winners-lean-on-t.ethernet": "DEVIATION",
    "fig9.winners-lean-on-a.infiniband": "PASS",
    "rma.beats-baseline-cols.ethernet": "PASS",
}


def test_claims_cover_every_figure(grid_sweep):
    claims = evaluate_claims(grid_sweep, "tiny")
    assert {c.id: c.verdict for c in claims} == TINY_VERDICTS
    assert [c.id for c in claims] == [c.id for c in CLAIMS]


def test_paper_claims_need_only_the_paper_configs(grid_sweep):
    paper = {c.key for c in PAPER_CONFIGS}
    rs = ResultSet([r for r in grid_sweep.results if r.config.key in paper])
    rma = "rma.beats-baseline-cols.ethernet"
    verdicts = {c.id: c.verdict for c in evaluate_claims(rs, "tiny")}
    assert verdicts == {k: v for k, v in TINY_VERDICTS.items() if k != rma}
    text = experiments_markdown(rs, "tiny")
    assert f"Not covered by this sweep's configurations: `{rma}`." in text


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_figure_reports_render(grid_sweep, exp_id):
    spec = EXPERIMENTS[exp_id]
    text = figure_report(exp_id, grid_sweep, "tiny")
    assert spec.paper_ref in text
    marker = {"times": "(s), median", "alpha": "alpha = async/sync",
              "speedup": "speedup vs Baseline COLS", "preferred": "preferred by"}
    assert marker[spec.presentation] in text
    assert ("dominance:" in text) == (spec.shape == "grid")


def test_markdown_structure(grid_sweep):
    text = experiments_markdown(grid_sweep, "tiny")
    assert text.startswith("# EXPERIMENTS")
    assert "| id | source | paper claim | measured | verdict |" in text
    assert "Not covered by this sweep" not in text
    assert "Headline numbers" in text
    assert "1.14x" in text and "1.21x" in text
    assert "PASS" in text


def test_markdown_extra_sections(grid_sweep):
    text = experiments_markdown(grid_sweep, "tiny", extra_sections="## Custom\nbody")
    assert text.rstrip().endswith("body")


def test_cli_experiments_md(grid_sweep, tmp_path, capsys):
    from repro.harness.cli import main as cli_main

    csv = tmp_path / "r.csv"
    grid_sweep.to_csv(csv)
    out = tmp_path / "EXP.md"
    code = cli_main([
        "experiments-md", "--results", str(csv), "--scale", "tiny",
        "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().startswith("# EXPERIMENTS")
