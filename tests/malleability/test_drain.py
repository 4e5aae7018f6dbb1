"""The drain path: iteration budget ends while a reconfiguration is in
flight — the manager must complete it rather than orphan spawned ranks.

A source with no iterations left has no checkpoint left either: it blocks
until its own part of the reconfiguration is done and then takes part in
exactly one stop agreement (docs/modeling.md, "When the iterations run
out")."""

import dataclasses
import re

import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.cluster.fabrics import fabric_by_name
from repro.malleability import (
    ALL_CONFIGS,
    ReconfigConfig,
    ReconfigRequest,
    RunStats,
    run_malleable,
)
from repro.malleability.manager import GroupRunner
from repro.redistribution import FieldSpec
from repro.simulate import Simulator
from repro.smpi import MpiWorld, SpawnModel
from repro.synthetic.application import launch_synthetic
from repro.synthetic.presets import SCALES, cg_emulation_config
from tests.malleability.test_manager import ToyApp


@pytest.mark.parametrize("config_key", ["merge-col-a", "baseline-p2p-a", "merge-p2p-t"])
def test_reconfig_requested_on_last_iterations_still_completes(config_key):
    """Reconfigure 2 iterations before the end with a spawn cost that takes
    far longer than the remaining iterations: the drain must finish the
    reconfiguration, run 0 remaining iterations on the new group, and leave
    a complete record."""
    sim = Simulator()
    machine = Machine(sim, 4, 2, ETHERNET_10G)
    # Slow spawn: the overlap cannot complete within the iteration budget.
    world = MpiWorld(
        machine, spawn_model=SpawnModel(base=0.5, per_process=0.01, per_node=0.01)
    )
    stats = RunStats()
    app = ToyApp()
    config = ReconfigConfig.parse(config_key)
    requests = [ReconfigRequest(at_iteration=app.n_iterations - 2, n_targets=6)]
    world.launch(run_malleable, slots=range(3), args=(app, config, requests, stats))
    sim.run()  # must not deadlock
    assert stats.total_iterations() == app.n_iterations
    rec = stats.last_reconfig
    assert rec.data_complete_at is not None
    assert rec.reconfiguration_time > 0.5  # dominated by the slow spawn


def test_drain_handoff_group_runs_zero_iterations():
    sim = Simulator()
    machine = Machine(sim, 4, 2, ETHERNET_10G)
    world = MpiWorld(
        machine, spawn_model=SpawnModel(base=1.0, per_process=0.01, per_node=0.01)
    )
    stats = RunStats()
    app = ToyApp()
    requests = [ReconfigRequest(at_iteration=app.n_iterations - 1, n_targets=4)]
    world.launch(
        run_malleable, slots=range(2),
        args=(app, ReconfigConfig.parse("merge-col-a"), requests, stats),
    )
    sim.run()
    # All iterations ran in group 0; group 1 exists but iterated 0 times.
    assert stats.iterations_by_group.get(0, 0) == app.n_iterations
    assert stats.iterations_by_group.get(1, 0) == 0
    assert stats.finished_at is not None


# ------------------------------------------------- one agreement, not a loop
SLOW_SPAWN = SpawnModel(base=0.5, per_process=0.01, per_node=0.01)
FAST_SPAWN = SpawnModel(base=0.01, per_process=0.001, per_node=0.002)
SLOW_MERGE = dataclasses.replace(FAST_SPAWN, merge_cost=0.5)
BIG_BLOB = (
    FieldSpec("x", "dense", constant=False),
    FieldSpec("blob", "virtual", constant=True, bytes_per_row=2e6),
)

#: phase the budget ends in -> (config, spawn model, app specs, iterations
#: left after the request).
DRAIN_PHASES = {
    "spawn-wait": ("merge-col-a", SLOW_SPAWN, ToyApp.specs, 2),
    "merge-wait": ("merge-p2p-a", SLOW_MERGE, ToyApp.specs, 8),
    "redist": ("baseline-p2p-a", FAST_SPAWN, BIG_BLOB, 8),
    "thread-wait": ("merge-p2p-t", SLOW_SPAWN, ToyApp.specs, 2),
}


@pytest.mark.parametrize("phase", DRAIN_PHASES)
def test_each_source_agrees_exactly_once_after_the_loop(phase, monkeypatch):
    config_key, spawn_model, specs, left = DRAIN_PHASES[phase]
    polls = []  # (gid, drain, phase on entry)
    poll = GroupRunner._poll_reconfig

    def counted(self, drain):
        polls.append((self.mpi.gid, drain, self._phase.value))
        verdict = yield from poll(self, drain)
        return verdict

    monkeypatch.setattr(GroupRunner, "_poll_reconfig", counted)
    sim = Simulator()
    machine = Machine(sim, 4, 2, ETHERNET_10G)
    world = MpiWorld(machine, spawn_model=spawn_model)
    stats = RunStats()
    app = ToyApp()
    app.specs = specs
    requests = [ReconfigRequest(at_iteration=app.n_iterations - left, n_targets=6)]
    world.launch(
        run_malleable, slots=range(3),
        args=(app, ReconfigConfig.parse(config_key), requests, stats),
    )
    sim.run()
    assert stats.total_iterations() == app.n_iterations
    assert stats.last_reconfig.data_complete_at is not None
    assert stats.last_reconfig.overlapped_iterations == left - 1
    drains = [(gid, at) for gid, drain, at in polls if drain]
    assert sorted(drains) == [(gid, phase) for gid in range(3)]
    # The checkpoints before it: one per source and remaining iteration.
    assert len(polls) - len(drains) == 3 * (left - 1)


def test_pending_verdict_after_a_drain_is_an_error_not_a_loop(monkeypatch):
    def never_done(self, drain):
        return "pending"
        yield  # pragma: no cover

    monkeypatch.setattr(GroupRunner, "_poll_reconfig", never_done)
    sim = Simulator()
    world = MpiWorld(Machine(sim, 4, 2, ETHERNET_10G), spawn_model=SLOW_SPAWN)
    app = ToyApp()
    requests = [ReconfigRequest(at_iteration=app.n_iterations - 1, n_targets=4)]
    world.launch(
        run_malleable, slots=range(2),
        args=(app, ReconfigConfig.parse("merge-col-a"), requests, RunStats()),
    )
    with pytest.raises(Exception) as err:
        sim.run()
    cause = err.value.__cause__ or err.value
    assert isinstance(cause, RuntimeError)
    assert re.search(r"rank [01] \(merge-col-a\).*spawn-wait", str(cause))


# ------------------------------------ every configuration, budgets 1-3 after
def run_tiny_cell(fabric, ns, nt, config, after):
    """One stock tiny cell whose budget ends ``after`` iterations after the
    reconfiguration request."""
    preset = SCALES["tiny"]
    n_iterations = preset.reconfigure_at + after
    sim = Simulator()
    machine = Machine(
        sim, preset.n_nodes, preset.cores_per_node, fabric_by_name(fabric), seed=0
    )
    world = MpiWorld(machine, spawn_model=preset.spawn_model)
    synth = dataclasses.replace(cg_emulation_config("tiny"), iterations=n_iterations)
    stats = launch_synthetic(
        world,
        synth.with_reconfigurations([ReconfigRequest(preset.reconfigure_at, nt)]),
        config,
        n_initial=ns,
    )
    sim.run()
    return stats, n_iterations


@pytest.mark.parametrize("after", [1, 2, 3])
@pytest.mark.parametrize("pair", [(2, 8), (8, 2), (4, 8), (8, 4)], ids="{0[0]}to{0[1]}".format)
@pytest.mark.parametrize("fabric", ["ethernet", "infiniband"])
def test_budget_ending_right_after_the_request_completes(fabric, pair, after):
    incomplete = []
    for config in ALL_CONFIGS:
        stats, n_iterations = run_tiny_cell(fabric, *pair, config, after)
        if (
            stats.total_iterations() != n_iterations
            or stats.last_reconfig.data_complete_at is None
        ):
            incomplete.append(config.key)
    assert not incomplete


def test_baseline_rma_async_tail_does_not_race_win_create():
    """``ethernet 8->4 baseline-rma-a`` with one iteration after the request
    deadlocked while the tail polled: sources that saw the spawn complete sat
    in ``win_create``, the others in the agreement.  No source enters the
    agreement before it is locally done now."""
    stats, n_iterations = run_tiny_cell(
        "ethernet", 8, 4, ReconfigConfig.parse("baseline-rma-a"), after=1
    )
    assert stats.total_iterations() == n_iterations
    assert stats.last_reconfig.data_complete_at is not None
