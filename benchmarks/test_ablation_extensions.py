"""Ablation benches for the paper's future-work extensions (§5).

* **RMA redistribution** — one-sided puts skip the size pre-exchange and
  halve the message count; compared against P2P and COL on the same cells.
* **Movement-minimising Merge plans** — persisting ranks keep as much of
  their data as the balance constraint allows; measured as reconfiguration
  time against the balanced block plan.
"""

import pytest

from conftest import run_once
from repro.analysis import median
from repro.harness import RunSpec, run_one
from repro.redistribution import RedistributionPlan


def _times(config_key, ns, nt, plan_mode="block", reps=2, fabric="ethernet"):
    return [
        run_one(RunSpec(ns, nt, config_key, fabric, "tiny", rep, plan_mode=plan_mode))
        for rep in range(reps)
    ]


@pytest.mark.parametrize("ns,nt", [(8, 4), (4, 8)])
def test_rma_redistribution_competitive(benchmark, ns, nt):
    """Emulated RMA must complete correctly and sit in the same time range
    as Algorithm 1/2 (it saves the size round-trip, so it should not lose
    badly to P2P)."""

    def sweep():
        return {
            method: median([r.reconfig_time for r in _times(f"merge-{method}-s", ns, nt)])
            for method in ("p2p", "col", "rma")
        }

    times = run_once(benchmark, sweep)
    assert times["rma"] > 0
    # No size handshake: RMA within ~1.3x of P2P on these cells.
    assert times["rma"] < times["p2p"] * 1.3


def test_movement_minimizing_plan_reduces_reconfig_time(benchmark):
    """The §5 idea: letting persisting ranks keep their rows cuts moved
    bytes, so Merge reconfigurations get cheaper (expansion case)."""

    def sweep():
        block = median(
            [r.reconfig_time for r in _times("merge-p2p-s", 4, 8, "block")]
        )
        minmove = median(
            [r.reconfig_time
             for r in _times("merge-p2p-s", 4, 8, "minmove")]
        )
        return block, minmove

    block, minmove = run_once(benchmark, sweep)
    assert minmove <= block * 1.02, (
        f"movement-minimising plan slower: {minmove:.4f} vs block {block:.4f}"
    )


def test_movement_minimizing_moves_fewer_rows(benchmark):
    def count():
        n = 4_147_110 // 64
        base = RedistributionPlan.block(n, 4, 8).moved_rows()
        opt = RedistributionPlan.movement_minimizing(n, 4, 8).moved_rows()
        return base, opt

    base, opt = run_once(benchmark, count)
    assert opt < base


def test_blocking_switch_slows_redistribution(benchmark):
    """Network ablation: a 4:1 oversubscribed core switch (vs the paper's
    non-blocking fabric) inflates the reconfiguration when many node pairs
    redistribute concurrently."""

    import numpy as np

    from repro.cluster import ETHERNET_10G, Machine
    from repro.malleability import (
        ReconfigConfig, ReconfigRequest, RunStats, run_malleable,
    )
    from repro.simulate import Simulator
    from repro.smpi import MpiWorld
    from repro.synthetic import SyntheticApp, cg_emulation_config
    from repro.synthetic.presets import SCALES

    def reconfig_time(factor):
        preset = SCALES["tiny"]
        cfg = cg_emulation_config("tiny")
        sim = Simulator()
        machine = Machine(sim, 4, 2, ETHERNET_10G,
                          switch_oversubscription=factor)
        world = MpiWorld(machine, spawn_model=preset.spawn_model)
        stats = RunStats()
        world.launch(
            run_malleable, slots=range(8),
            args=(SyntheticApp(cfg), ReconfigConfig.parse("merge-p2p-s"),
                  [ReconfigRequest(preset.reconfigure_at, 4)], stats),
        )
        sim.run()
        return stats.last_reconfig.reconfiguration_time

    def measure():
        return reconfig_time(1.0), reconfig_time(8.0)

    nonblocking, blocked = run_once(benchmark, measure)
    print(f"\nswitch ablation: non-blocking {nonblocking*1e3:.1f} ms vs "
          f"8:1 oversubscribed {blocked*1e3:.1f} ms")
    assert blocked > nonblocking
