"""Harness: runner determinism, ResultSet queries/CSV, figure builders, CLI."""

from dataclasses import replace

import pytest

from repro.harness import (
    EXPERIMENTS,
    ResultSet,
    RunSpec,
    async_sync_pairs,
    build_figure,
    figure_report,
    pairs_for,
    run_one,
    run_sweep,
)
from repro.harness.cli import main as cli_main
from repro.synthetic.presets import SCALES


@pytest.fixture(scope="module")
def mini_sweep():
    """The full fig2 slice at tiny scale (module-cached)."""
    return run_sweep(
        pairs=pairs_for(EXPERIMENTS["fig2"], "tiny"),
        config_keys=[
            "merge-col-s", "baseline-col-s", "merge-p2p-s", "baseline-p2p-s",
            "merge-rma-s", "baseline-rma-s",
            "merge-col-a", "merge-col-t",
        ],
        fabrics=["ethernet"],
        scale="tiny",
        repetitions=2,
    )


def test_run_one_is_deterministic():
    spec = RunSpec(4, 8, "merge-col-a", "ethernet", "tiny", rep=1)
    a = run_one(spec)
    b = run_one(spec)
    assert a == b


def test_reps_differ():
    a = run_one(RunSpec(4, 8, "merge-col-s", "ethernet", "tiny", rep=0))
    b = run_one(RunSpec(4, 8, "merge-col-s", "ethernet", "tiny", rep=1))
    assert a.app_time != b.app_time


def test_sweep_shape(mini_sweep):
    assert len(mini_sweep) == 4 * 8 * 1 * 2
    assert (8, 4) in mini_sweep.pairs() and (4, 8) in mini_sweep.pairs()
    assert mini_sweep.fabrics() == ["ethernet"]
    assert len(mini_sweep.config_keys()) == 8


def test_times_query(mini_sweep):
    t = mini_sweep.times("reconfig_time", 8, 4, "merge-col-s", "ethernet")
    assert len(t) == 2 and all(v > 0 for v in t)
    with pytest.raises(KeyError):
        mini_sweep.times("reconfig_time", 99, 4, "merge-col-s", "ethernet")


def test_cell_groups(mini_sweep):
    cells = mini_sweep.cell_groups(
        "app_time", [(8, 4)], ["merge-col-s", "baseline-col-s"], "ethernet"
    )
    assert set(cells[(8, 4)]) == {"merge-col-s", "baseline-col-s"}


def test_csv_roundtrip(mini_sweep, tmp_path):
    path = tmp_path / "results.csv"
    mini_sweep.to_csv(path)
    back = ResultSet.from_csv(path)
    assert back.results == mini_sweep.results


def test_pairs_for_slices_and_grid():
    spec = EXPERIMENTS["fig2"]
    pairs = pairs_for(spec, "tiny")
    ladder = SCALES["tiny"].ladder
    top = max(ladder)
    assert set(pairs) == {(top, x) for x in ladder if x != top} | {
        (x, top) for x in ladder if x != top
    }
    grid = pairs_for(EXPERIMENTS["fig6"], "tiny")
    assert len(grid) == len(ladder) * (len(ladder) - 1)


def test_async_sync_mapping():
    mapping = async_sync_pairs()
    assert mapping["merge-col-a"] == "merge-col-s"
    assert mapping["baseline-p2p-t"] == "baseline-p2p-s"
    assert mapping["merge-rma-a"] == "merge-rma-s"
    assert mapping["baseline-rma-t"] == "baseline-rma-s"
    assert len(mapping) == 12


def test_experiment_registry_covers_every_figure():
    assert set(EXPERIMENTS) == {f"fig{i}" for i in range(2, 10)}
    for spec in EXPERIMENTS.values():
        assert spec.metric in ("reconfig_time", "app_time")
        assert spec.presentation in ("times", "alpha", "speedup", "preferred")


def test_build_times_figure(mini_sweep):
    fig = build_figure(EXPERIMENTS["fig2"], mini_sweep, "tiny", "ethernet", "shrink")
    assert fig.exp_id == "fig2"
    assert fig.x_values == [2, 4]
    assert set(fig.series) == {
        "Merge COLS", "Baseline COLS", "Merge P2PS", "Baseline P2PS",
        "Merge RMAS", "Baseline RMAS",
    }
    # The paper's central sync finding: Merge beats Baseline.
    for x_idx in range(2):
        assert fig.series["Merge COLS"][x_idx] < fig.series["Baseline COLS"][x_idx]


def test_alpha_figure_keeps_to_the_spec_config_keys(mini_sweep):
    # The sweep lacks most async configs: alpha reads only the spec's pairs.
    keys = ("merge-col-s", "merge-col-a", "merge-col-t")
    spec = replace(EXPERIMENTS["fig4"], config_keys=keys)
    fig = build_figure(spec, mini_sweep, "tiny", "ethernet", "shrink")
    assert set(fig.series) == {"Merge COLA", "Merge COLT"}


def test_figure_report_smoke(mini_sweep):
    text = figure_report("fig2", mini_sweep, "tiny")
    assert "Figure 2" in text and "Merge COLS" in text
    # Missing cells surface as KeyError (the CLI catches and explains).
    with pytest.raises(KeyError):
        figure_report("fig3", mini_sweep, "tiny")


def test_synthetic_run_drops_no_iterations(mini_sweep):
    for r in mini_sweep.results:
        assert r.total_iterations == SCALES["tiny"].iterations


# ---------------------------------------------------------------------- CLI
def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig2" in out and "fig9" in out
    assert "merge-col-s" in out


def test_cli_run_and_report(tmp_path, capsys):
    out_csv = tmp_path / "r.csv"
    code = cli_main([
        "run", "--scale", "tiny", "--figures", "fig2", "--reps", "1",
        "--out", str(out_csv),
    ])
    assert code == 0
    assert out_csv.exists()
    code = cli_main([
        "report", "--results", str(out_csv), "--scale", "tiny",
        "--figures", "fig2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "Merge COLS" in out


def test_cli_rejects_unknown_figures():
    with pytest.raises(SystemExit):
        cli_main(["run", "--figures", "fig99"])


def test_cli_predict(capsys):
    code = cli_main([
        "predict", "--ns", "8", "--nt", "4", "--fabric", "ethernet",
        "--method", "col", "--scale", "tiny",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "redistribution" in out and "total" in out
    code = cli_main([
        "predict", "--ns", "4", "--nt", "8", "--baseline", "--scale", "tiny",
    ])
    assert code == 0
    assert "Baseline" in capsys.readouterr().out


def test_resultset_merge(mini_sweep):
    merged = mini_sweep.merge(mini_sweep)
    assert len(merged) == 2 * len(mini_sweep)
    cell = merged.times("app_time", 8, 4, "merge-col-s", "ethernet")
    assert len(cell) == 4  # duplicated samples kept
