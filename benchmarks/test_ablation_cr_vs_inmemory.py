"""Ablation: disk checkpoint/restart vs in-memory redistribution (§2).

The paper motivates in-memory malleability by the cost of traditional C/R.
This bench measures both reconfiguration styles on identical machines and
workloads, reporting the ratio (and asserting in-memory wins clearly).
"""

import pytest

from conftest import run_once
from repro.analysis import markdown_table, median
from repro.cluster import ETHERNET_10G, Machine, ParallelFileSystem
from repro.malleability import (
    CheckpointRestartConfig,
    ReconfigConfig,
    ReconfigRequest,
    RunStats,
    run_cr_malleable,
    run_malleable,
)
from repro.simulate import Simulator
from repro.smpi import MpiWorld
from repro.synthetic import SyntheticApp, cg_emulation_config
from repro.synthetic.presets import SCALES


def _machine():
    sim = Simulator()
    machine = Machine(sim, 4, 2, ETHERNET_10G)
    return sim, machine


def reconfig_time_inmemory(ns, nt, scale):
    preset = SCALES[scale]
    cfg = cg_emulation_config(scale)
    sim, machine = _machine()
    world = MpiWorld(machine, spawn_model=preset.spawn_model)
    stats = RunStats()
    app = SyntheticApp(cfg)
    world.launch(
        run_malleable, slots=range(ns),
        args=(app, ReconfigConfig.parse("merge-col-s"),
              [ReconfigRequest(preset.reconfigure_at, nt)], stats),
    )
    sim.run()
    return stats.last_reconfig.reconfiguration_time


def reconfig_time_cr(ns, nt, scale):
    preset = SCALES[scale]
    cfg = cg_emulation_config(scale)
    sim, machine = _machine()
    pfs = ParallelFileSystem(machine)
    world = MpiWorld(machine, spawn_model=preset.spawn_model)
    stats = RunStats()
    app = SyntheticApp(cfg)
    world.launch(
        run_cr_malleable, slots=range(ns),
        args=(app, [ReconfigRequest(preset.reconfigure_at, nt)], stats, pfs,
              CheckpointRestartConfig()),
    )
    sim.run()
    return stats.last_reconfig.reconfiguration_time


@pytest.mark.parametrize("ns,nt", [(8, 4), (4, 8)])
def test_in_memory_beats_checkpoint_restart(benchmark, ns, nt):
    def measure():
        return (
            reconfig_time_inmemory(ns, nt, "tiny"),
            reconfig_time_cr(ns, nt, "tiny"),
        )

    mem, cr = run_once(benchmark, measure)
    print(
        "\n"
        + markdown_table(
            ["reconfiguration", "time (ms)"],
            [["in-memory (Merge COLS)", mem * 1e3],
             ["checkpoint/restart", cr * 1e3],
             ["C/R penalty", cr / mem]],
        )
    )
    assert cr > 1.5 * mem, (
        f"C/R ({cr:.4f}s) should clearly lose to in-memory ({mem:.4f}s)"
    )
