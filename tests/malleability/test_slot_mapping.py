"""Custom slot maps: reconfigurations land spawned ranks where told."""

import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.malleability import (
    ReconfigConfig,
    ReconfigRequest,
    RunStats,
    run_malleable,
)
from repro.redistribution import RedistributionPlan
from repro.simulate import Simulator
from repro.smpi import MpiWorld, SpawnModel
from tests.malleability.test_manager import ToyApp


@pytest.mark.parametrize("config_key", ["merge-p2p-s", "baseline-col-a"])
def test_spawned_ranks_follow_the_slot_map(config_key):
    """Offset slot map: all processes of the job (original + spawned) must
    stay inside the job's slot block [4, 12)."""
    base = 4
    sim = Simulator()
    machine = Machine(sim, 6, 2, ETHERNET_10G)
    world = MpiWorld(
        machine, spawn_model=SpawnModel(base=0.01, per_process=0.001, per_node=0.002)
    )
    stats = RunStats()
    app = ToyApp()
    config = ReconfigConfig.parse(config_key)
    requests = [ReconfigRequest(at_iteration=5, n_targets=6)]
    world.launch(
        run_malleable,
        slots=[base + i for i in range(3)],
        args=(
            app, config, requests, stats,
            RedistributionPlan.block,
            (lambda i: base + i),   # slot_of
        ),
    )
    sim.run()
    assert stats.total_iterations() == app.n_iterations
    # Every process the world ever placed sits inside the block.
    for gid, slot in world.slot_of.items():
        assert base <= slot < base + 8, f"gid {gid} placed at slot {slot}"
