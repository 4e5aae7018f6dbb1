"""End-to-end malleability: all 12 configurations, expand and shrink.

The toy application increments its *variable* vector ``x`` by 1 every
iteration and checks ``sum(x) == sum(x0) + it * n_rows`` with an allreduce
each iteration.  This invariant fails if the reconfiguration loses or
duplicates an iteration, mis-redistributes the mutated variable data, or
resumes at the wrong place — i.e. it checks Stages 2-4 end to end.
"""

import numpy as np
import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.malleability import (
    ALL_CONFIGS,
    RankOutcome,
    ReconfigConfig,
    ReconfigRequest,
    RunStats,
    run_malleable,
)
from repro.redistribution import FieldSpec
from repro.simulate import Simulator
from repro.smpi import MpiWorld

N_ROWS = 40
N_ITERS = 12
RECONF_AT = 5


class ToyApp:
    """Shared by all ranks: keep it stateless (per-rank state lives in the
    dataset)."""

    n_iterations = N_ITERS
    n_rows = N_ROWS
    specs = (
        FieldSpec("x", "dense", constant=False),
        FieldSpec("blob", "virtual", constant=True, bytes_per_row=2000.0),
    )

    def initial_data(self, lo, hi):
        return {"x": np.arange(lo, hi, dtype=np.float64)}

    #: long enough that a few iterations overlap the (cheap) test spawn model.
    compute_per_iter = 5e-3

    def iterate(self, mpi, comm, dataset, iteration):
        yield from mpi.compute(self.compute_per_iter)
        x = dataset.stores["x"].data
        total = yield from mpi.allreduce(float(x.sum()), comm=comm)
        expected = N_ROWS * (N_ROWS - 1) / 2 + iteration * N_ROWS
        assert total == pytest.approx(expected), (
            f"iteration {iteration}: global sum {total} != {expected}"
        )
        x += 1.0

    def on_handoff(self, mpi, dataset):
        # Rebuild-nothing hook; verify the received block is the right slice.
        assert dataset.stores["x"].data.shape[0] == dataset.hi - dataset.lo


def run_job(config, ns, nt, n_iters=N_ITERS, reconf_at=RECONF_AT):
    from repro.smpi import SpawnModel

    sim = Simulator()
    machine = Machine(sim, n_nodes=4, cores_per_node=2, fabric=ETHERNET_10G)
    world = MpiWorld(
        machine,
        spawn_model=SpawnModel(base=0.01, per_process=0.001, per_node=0.002),
    )
    stats = RunStats()
    app = ToyApp()
    app.n_iterations = n_iters
    requests = [ReconfigRequest(at_iteration=reconf_at, n_targets=nt)]
    res = world.launch(
        run_malleable, slots=range(ns), args=(app, config, requests, stats)
    )
    sim.run()
    first_group_outcomes = [p.result for p in res.procs]
    spawned_outcomes = [
        p.result for p in sim._processes if p.name.startswith("spawned")
    ]
    return stats, first_group_outcomes, spawned_outcomes, sim


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.key)
@pytest.mark.parametrize("ns,nt", [(4, 2), (2, 4)])
def test_all_configs_preserve_the_iteration_stream(config, ns, nt):
    stats, first, spawned, sim = run_job(config, ns, nt)
    # Every iteration ran exactly once across groups.
    assert stats.total_iterations() == N_ITERS
    # The reconfiguration completed with full milestones.
    rec = stats.last_reconfig
    assert rec.reconfiguration_time > 0
    assert rec.spawn_started_at is not None
    assert rec.data_complete_at is not None
    assert stats.finished_at is not None
    # Outcome bookkeeping per spawn method.
    from repro.malleability import SpawnMethod

    if config.spawn is SpawnMethod.BASELINE:
        assert all(o is RankOutcome.RETIRED for o in first)
        assert spawned.count(RankOutcome.COMPLETED) == nt
    else:
        completed_first = first.count(RankOutcome.COMPLETED)
        if nt >= ns:  # expansion: all sources persist
            assert completed_first == ns
            assert spawned.count(RankOutcome.COMPLETED) == nt - ns
        else:  # shrink: nt persist, rest retire
            assert completed_first == nt
            assert first.count(RankOutcome.RETIRED) == ns - nt


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.key)
def test_same_size_reconfiguration(config):
    """NS == NT is legal (pure data reshuffle / process refresh)."""
    stats, first, spawned, sim = run_job(config, 3, 3)
    assert stats.total_iterations() == N_ITERS


def test_async_strategies_overlap_iterations():
    """A/T must execute iterations while reconfiguring; S must not."""
    sync = ReconfigConfig.parse("merge-col-s")
    async_nb = ReconfigConfig.parse("merge-col-a")
    stats_s, *_ = run_job(sync, 4, 2)
    stats_a, *_ = run_job(async_nb, 4, 2)
    assert stats_s.last_reconfig.overlapped_iterations == 0
    assert stats_a.last_reconfig.overlapped_iterations >= 1
    # Async sources stop later than the checkpoint iteration.
    assert stats_a.last_reconfig.sources_stopped_iteration > RECONF_AT
    assert stats_s.last_reconfig.sources_stopped_iteration == RECONF_AT


class VariableOnlyApp(ToyApp):
    """ToyApp without its constant field."""

    specs = ToyApp.specs[:1]


@pytest.mark.parametrize("key", ["merge-p2p-s", "merge-p2p-a", "merge-p2p-t"])
def test_variable_data_crosses_the_wire_once(key):
    """With no constant field, A/T have no first wave to overlap: the
    variable vector moves once, after the sources stop, as under S."""
    sim = Simulator()
    world = MpiWorld(Machine(sim, n_nodes=4, cores_per_node=2, fabric=ETHERNET_10G))
    stats = RunStats()
    requests = [ReconfigRequest(at_iteration=RECONF_AT, n_targets=4)]
    world.launch(
        run_malleable, slots=range(2),
        args=(VariableOnlyApp(), ReconfigConfig.parse(key), requests, stats),
    )
    sim.run()
    assert stats.total_iterations() == N_ITERS
    assert world.bytes_by_label["reconf0:values"] == 240


def test_two_sequential_reconfigurations():
    """Expand then shrink in one run (the manager supports chains)."""
    config = ReconfigConfig.parse("merge-p2p-s")
    sim = Simulator()
    machine = Machine(sim, n_nodes=4, cores_per_node=2, fabric=ETHERNET_10G)
    world = MpiWorld(machine)
    stats = RunStats()
    app = ToyApp()
    requests = [
        ReconfigRequest(at_iteration=4, n_targets=6),
        ReconfigRequest(at_iteration=8, n_targets=2),
    ]
    res = world.launch(run_malleable, slots=range(3), args=(app, config, requests, stats))
    sim.run()
    assert stats.total_iterations() == N_ITERS
    assert len(stats.reconfigs) == 2
    assert stats.reconfigs[0].n_targets == 6
    assert stats.reconfigs[1].n_targets == 2


def test_baseline_chain_of_reconfigurations():
    config = ReconfigConfig.parse("baseline-p2p-s")
    sim = Simulator()
    machine = Machine(sim, n_nodes=4, cores_per_node=2, fabric=ETHERNET_10G)
    world = MpiWorld(machine)
    stats = RunStats()
    app = ToyApp()
    requests = [
        ReconfigRequest(at_iteration=3, n_targets=4),
        ReconfigRequest(at_iteration=9, n_targets=2),
    ]
    res = world.launch(run_malleable, slots=range(2), args=(app, config, requests, stats))
    sim.run()
    assert stats.total_iterations() == N_ITERS
    assert len(stats.reconfigs) == 2


def test_config_parsing_and_names():
    c = ReconfigConfig.parse("Merge COLS")
    assert c.name == "Merge COLS"
    assert c.key == "merge-col-s"
    c2 = ReconfigConfig.parse("baseline-p2p-t")
    assert c2.name == "Baseline P2PT"
    assert ReconfigConfig.parse(c2.key) == c2
    with pytest.raises(ValueError):
        ReconfigConfig.parse("bogus")
    c3 = ReconfigConfig.parse("Merge RMAT")
    assert c3.key == "merge-rma-t"
    assert len(ALL_CONFIGS) == 18
    assert len({c.key for c in ALL_CONFIGS}) == 18


def test_all_18_keys_and_names_round_trip():
    """Every cell of the matrix parses back from both spellings, in any
    case and with any separator convention."""
    for c in ALL_CONFIGS:
        assert ReconfigConfig.parse(c.key) == c
        assert ReconfigConfig.parse(c.name) == c
        assert ReconfigConfig.parse(c.key.upper().replace("-", "_")) == c
    assert sum(c.redist.value == "rma" for c in ALL_CONFIGS) == 6


def test_rms_scripting():
    from repro.malleability import ScriptedRMS

    rms = ScriptedRMS([ReconfigRequest(5, 4), ReconfigRequest(9, 2)])
    assert rms.check(0) is None
    assert rms.check(5).n_targets == 4
    assert rms.check(5) is None  # fires once
    assert rms.check(10).n_targets == 2
    assert rms.exhausted
    with pytest.raises(ValueError):
        ScriptedRMS([ReconfigRequest(5, 4), ReconfigRequest(5, 2)])
    with pytest.raises(ValueError):
        ReconfigRequest(-1, 2)
    with pytest.raises(ValueError):
        ReconfigRequest(0, 0)
