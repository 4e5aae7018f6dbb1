"""Synthetic application: config round-trips, stages, full malleable runs."""

import pytest

from repro.cluster import ETHERNET_10G, INFINIBAND_EDR, Machine
from repro.malleability import ReconfigConfig, ReconfigRequest, RunStats
from repro.simulate import Simulator
from repro.smpi import MpiWorld, SpawnModel
from repro.synthetic import (
    SCALES,
    StageSpec,
    SyntheticApp,
    SyntheticConfig,
    cg_emulation_config,
    launch_synthetic,
)


def tiny_config(iterations=20, reconfs=(), fidelity="sketch", n_rows=4000):
    return SyntheticConfig(
        iterations=iterations,
        n_rows=n_rows,
        fidelity=fidelity,
        constant_bytes=40_000_000.0,
        variable_bytes=1_500_000.0,
        stages=(
            StageSpec(kind="compute", work=0.02, jitter=0.0),
            StageSpec(kind="allgatherv", nbytes=8.0 * n_rows),
            StageSpec(kind="allreduce", nbytes=8.0),
        ),
        reconfigurations=tuple(reconfs),
    )


def run_synthetic(config, reconfig_config, n_initial, fabric=ETHERNET_10G,
                  n_nodes=4, cores=2, seed=0):
    sim = Simulator()
    machine = Machine(sim, n_nodes, cores, fabric, seed=seed)
    world = MpiWorld(
        machine, spawn_model=SpawnModel(base=0.05, per_process=0.002, per_node=0.005)
    )
    stats = launch_synthetic(world, config, reconfig_config, n_initial)
    sim.run()
    return stats


# --------------------------------------------------------------- configfile
def test_config_toml_roundtrip():
    cfg = tiny_config(reconfs=[ReconfigRequest(10, 6)])
    text = cfg.to_toml()
    back = SyntheticConfig.from_toml(text)
    assert back == cfg


def test_config_from_file(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "run.toml"
    path.write_text(cfg.to_toml())
    assert SyntheticConfig.from_toml(path) == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(iterations=0)
    with pytest.raises(ValueError, match="beyond"):
        tiny_config(iterations=10, reconfs=[ReconfigRequest(10, 2)])
    with pytest.raises(ValueError, match="stage"):
        SyntheticConfig(
            iterations=5, n_rows=10, constant_bytes=0, variable_bytes=0, stages=()
        )
    with pytest.raises(ValueError):
        StageSpec(kind="quantum")
    with pytest.raises(ValueError):
        StageSpec(kind="compute", work=-1)


def test_async_fraction_of_cg_preset_matches_paper():
    cfg = cg_emulation_config("small")
    # Paper: 96.6 % of the 3.947 GB is asynchronously redistributable.
    assert cfg.async_fraction == pytest.approx(0.966, abs=0.01)


def test_cg_preset_paper_scale_bytes():
    cfg = cg_emulation_config("paper")
    assert cfg.total_bytes / 1e9 == pytest.approx(3.947, abs=0.08)
    assert cfg.iterations == 1000
    assert cfg.reconfigurations == ()
    assert SCALES["paper"].ladder == (2, 10, 20, 40, 80, 120, 160)
    # 42 ordered pairs in the paper's sweep.
    ladder = SCALES["paper"].ladder
    assert len([(a, b) for a in ladder for b in ladder if a != b]) == 42


# ------------------------------------------------------------------- stages
@pytest.mark.parametrize("fidelity", ["full", "sketch"])
def test_stage_fidelities_run_and_cost_similar(fidelity):
    cfg = tiny_config(iterations=8, fidelity=fidelity)
    stats = run_synthetic(cfg, ReconfigConfig.parse("merge-col-s"), n_initial=4)
    assert stats.total_iterations() == 8
    assert stats.app_time > 0


def test_sketch_and_full_iteration_times_are_close():
    """The sketch emulation must track the full collective within ~40 %."""
    times = {}
    for fidelity in ("full", "sketch"):
        cfg = tiny_config(iterations=10, fidelity=fidelity)
        stats = run_synthetic(cfg, ReconfigConfig.parse("merge-col-s"), n_initial=4)
        times[fidelity] = stats.app_time
    ratio = times["sketch"] / times["full"]
    assert 0.6 < ratio < 1.4, f"sketch/full app-time ratio {ratio:.2f}"


# ------------------------------------------------------------ full runs
@pytest.mark.parametrize("config_key", [
    "merge-col-s", "merge-col-a", "merge-col-t",
    "baseline-p2p-s", "baseline-p2p-a", "baseline-col-t",
])
@pytest.mark.parametrize("ns,nt", [(4, 2), (2, 6)])
def test_synthetic_reconfigurations(config_key, ns, nt):
    cfg = tiny_config(iterations=24, reconfs=[ReconfigRequest(8, nt)])
    stats = run_synthetic(cfg, ReconfigConfig.parse(config_key), n_initial=ns)
    assert stats.total_iterations() == 24
    rec = stats.last_reconfig
    assert rec.reconfiguration_time > 0
    assert rec.n_sources == ns and rec.n_targets == nt


def test_virtual_data_completeness_enforced():
    """on_handoff checks every virtual row arrived (session bug trap)."""
    cfg = tiny_config(iterations=16, reconfs=[ReconfigRequest(5, 3)])
    stats = run_synthetic(cfg, ReconfigConfig.parse("merge-p2p-a"), n_initial=5)
    assert stats.total_iterations() == 16


def test_infiniband_reconfigures_faster_than_ethernet():
    recs = {}
    for fabric in (ETHERNET_10G, INFINIBAND_EDR):
        cfg = tiny_config(iterations=16, reconfs=[ReconfigRequest(5, 2)])
        stats = run_synthetic(
            cfg, ReconfigConfig.parse("merge-col-s"), n_initial=4, fabric=fabric
        )
        recs[fabric.name] = stats.last_reconfig.reconfiguration_time
    assert recs["infiniband"] < recs["ethernet"]


def test_seeded_jitter_gives_distinct_reps():
    cfg = SyntheticConfig(
        iterations=10, n_rows=1000, constant_bytes=1e6, variable_bytes=1e5,
        stages=(StageSpec(kind="compute", work=0.1, jitter=0.05),),
        reconfigurations=(ReconfigRequest(4, 2),),
    )
    t = []
    for seed in (1, 2):
        stats = run_synthetic(cfg, ReconfigConfig.parse("merge-col-s"),
                              n_initial=4, seed=seed)
        t.append(stats.app_time)
    assert t[0] != t[1]
