"""Future-work extensions through the full malleability stack:
RMA redistribution configs and the movement-minimising plan factory."""

import numpy as np
import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.malleability import (
    ReconfigConfig,
    ReconfigRequest,
    RunStats,
    run_malleable,
)
from repro.redistribution import RedistMethod, RedistributionPlan
from repro.simulate import SimulationError, Simulator
from repro.smpi import MpiWorld, SpawnModel
from tests.malleability.test_manager import N_ITERS, RECONF_AT, ToyApp


def run_job(config_key, ns, nt, plan_factory=RedistributionPlan.block):
    sim = Simulator()
    machine = Machine(sim, 4, 2, ETHERNET_10G)
    world = MpiWorld(
        machine, spawn_model=SpawnModel(base=0.01, per_process=0.001, per_node=0.002)
    )
    stats = RunStats()
    app = ToyApp()
    config = ReconfigConfig.parse(config_key)
    requests = [ReconfigRequest(at_iteration=RECONF_AT, n_targets=nt)]
    world.launch(
        run_malleable,
        slots=range(ns),
        args=(app, config, requests, stats, plan_factory),
    )
    sim.run()
    return stats


def test_rma_config_parses():
    cfg = ReconfigConfig.parse("merge-rma-s")
    assert cfg.redist is RedistMethod.RMA
    assert cfg.name == "Merge RMAS"


@pytest.mark.parametrize("config_key", ["merge-rma-s", "merge-rma-a", "baseline-rma-s"])
@pytest.mark.parametrize("ns,nt", [(4, 2), (2, 4)])
def test_rma_reconfigurations_preserve_iteration_stream(config_key, ns, nt):
    stats = run_job(config_key, ns, nt)
    assert stats.total_iterations() == N_ITERS
    assert stats.last_reconfig.reconfiguration_time > 0


@pytest.mark.parametrize("config_key", ["merge-p2p-s", "merge-col-a", "baseline-p2p-t"])
def test_movement_minimizing_plan_through_full_run(config_key):
    stats = run_job(
        config_key, 2, 4, plan_factory=RedistributionPlan.movement_minimizing
    )
    assert stats.total_iterations() == N_ITERS


def test_movement_minimizing_reduces_redistributed_bytes():
    """Expansion 2->4: persisting ranks keep more rows, so less moves."""
    base = RedistributionPlan.block(40, 2, 4)
    opt = RedistributionPlan.movement_minimizing(40, 2, 4)
    assert opt.moved_rows() < base.moved_rows()
    # And the persisting ranks' self-kept rows grew.
    assert sum(opt.self_rows(r) for r in range(2)) > sum(
        base.self_rows(r) for r in range(2)
    )


@pytest.mark.parametrize("config_key", ["merge-p2p-s", "baseline-p2p-s"])
def test_chained_movement_minimizing_reconfiguration_is_refused(config_key):
    """The spawned group inherits the run's plan factory, and a plan that
    does not start from the layout the group holds is refused before any
    traffic: movement-minimising plans start from a block layout, which a
    group they produced no longer holds."""
    sim = Simulator()
    world = MpiWorld(Machine(sim, 4, 2, ETHERNET_10G))
    requests = [ReconfigRequest(3, 6), ReconfigRequest(7, 3)]
    world.launch(
        run_malleable, slots=range(4),
        args=(ToyApp(), ReconfigConfig.parse(config_key), requests, RunStats(),
              RedistributionPlan.movement_minimizing),
    )
    with pytest.raises(SimulationError) as err:
        sim.run()
    assert isinstance(err.value.__cause__, ValueError)
    assert str(err.value.__cause__).startswith(
        "RedistributionPlan.movement_minimizing plans source rank"
    )
