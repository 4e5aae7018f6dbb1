"""Failure-tolerant reconfiguration: the escalation ladder end to end.

The acceptance matrix of the fault-injection tentpole: a seeded node crash
in the middle of a redistribution (P2P/COL/RMA x Baseline/Merge) must
complete via the recovery ladder — no ``DeadlockError``, no silent partial
results — with ``retries``/``recovery_time`` stamped on the record.  The
toy application's per-iteration invariant (global sum of the variable
vector) makes a mis-recovered dataset fail loudly.
"""

import numpy as np
import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.faults import FaultInjector
from repro.malleability import (
    GroupRunner,
    RankOutcome,
    ReconfigConfig,
    ReconfigRequest,
    RunStats,
    run_malleable,
)
from repro.redistribution import FieldSpec
from repro.simulate import Simulator
from repro.smpi import MpiWorld, SpawnModel

N_ROWS = 40
N_ITERS = 12
RECONF_AT = 5


class ToyApp:
    """Per-iteration invariant: sum(x) == sum(x0) + it * n_rows.

    ``blob`` is large enough that the redistribution takes milliseconds of
    simulated time, giving ``redist``-anchored crashes a window to land
    mid-transfer.
    """

    n_iterations = N_ITERS
    n_rows = N_ROWS
    specs = (
        FieldSpec("x", "dense", constant=False),
        FieldSpec("blob", "virtual", constant=True, bytes_per_row=2e6),
    )
    compute_per_iter = 5e-3

    def initial_data(self, lo, hi):
        return {"x": np.arange(lo, hi, dtype=np.float64)}

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
        assert dataset.stores["x"].data.shape[0] == dataset.hi - dataset.lo


def _entry(mpi, app, config, requests, stats):
    outcome = yield from run_malleable(mpi, app, config, requests, stats)
    return outcome


def run_faulty_job(config, ns, nt, faults, n_iters=N_ITERS, requests=None):
    if isinstance(config, str):
        config = ReconfigConfig.parse(config)
    sim = Simulator()
    machine = Machine(sim, n_nodes=4, cores_per_node=2, fabric=ETHERNET_10G)
    world = MpiWorld(
        machine,
        spawn_model=SpawnModel(base=0.01, per_process=0.001, per_node=0.002),
    )
    stats = RunStats()
    app = ToyApp()
    app.n_iterations = n_iters
    if requests is None:
        requests = [ReconfigRequest(at_iteration=RECONF_AT, n_targets=nt)]
    res = world.launch(
        _entry, slots=range(ns), args=(app, config, requests, stats)
    )
    inj = FaultInjector(faults, machine, world).attach()
    sim.run()
    return stats, res, sim, inj


def _outcomes(sim, prefix):
    return [p.result for p in sim._processes if p.name.startswith(prefix)]


# ------------------------------------------------- retry: the full S matrix
@pytest.mark.parametrize("redist", ["p2p", "col", "rma"])
@pytest.mark.parametrize("spawn", ["baseline", "merge"])
def test_crash_mid_redistribution_recovers_by_retry(spawn, redist):
    """Node 1 (hosting only *targets*) dies mid-redistribution: the ladder
    terminates the half-built group and respawns on surviving slots."""
    stats, res, sim, inj = run_faulty_job(
        f"{spawn}-{redist}-s", ns=2, nt=4,
        faults="crash@redist+0.002:node=1",
    )
    assert inj.faults_fired == 1
    # The run completed every iteration exactly once despite the crash.
    assert stats.total_iterations() == N_ITERS
    assert stats.finished_at is not None
    rec = stats.last_reconfig
    assert rec.retries >= 1
    assert rec.recovery_policy == "retry"
    assert rec.recovery_time > 0
    assert rec.data_complete_at is not None
    # The final group has the requested size and every member completed.
    assert _outcomes(sim, "spawned").count(RankOutcome.COMPLETED) == (
        4 if spawn == "baseline" else 2
    )


# -------------------------------------------------- retry: injected spawnfail
def test_spawn_failure_is_retried():
    stats, res, sim, inj = run_faulty_job(
        "merge-p2p-s", ns=2, nt=4, faults="spawnfail:attempt=0",
    )
    assert stats.total_iterations() == N_ITERS
    rec = stats.last_reconfig
    assert rec.retries == 1
    assert rec.recovery_policy == "retry"
    assert rec.recovery_time > 0


# ------------------------------------------------------------ shrink fallback
SPAWN_FAILS_3 = "spawnfail:attempt=0;spawnfail:attempt=1;spawnfail:attempt=2"


def test_shrink_fallback_when_retries_exhausted():
    """The first spawn and both retries fail: the job abandons the
    reconfiguration and finishes on the sources."""
    stats, res, sim, inj = run_faulty_job(
        "merge-p2p-s", ns=2, nt=4, faults=SPAWN_FAILS_3,
    )
    assert stats.total_iterations() == N_ITERS
    rec = stats.last_reconfig
    assert rec.recovery_policy == "shrink"
    assert rec.retries == 2
    # Every iteration ran on the original group; nothing was ever spawned
    # successfully.
    assert stats.iterations_by_group == {0: N_ITERS}
    assert [p.result for p in res.procs] == [RankOutcome.COMPLETED] * 2


# ------------------------------------------------------- checkpoint/restart
def test_source_death_degrades_to_checkpoint_restart():
    """Node 1 hosts sources 2-3 of a 4->2 shrink: their death loses
    in-memory state, so survivors requeue the job from the in-run
    checkpoint."""
    stats, res, sim, inj = run_faulty_job(
        "merge-p2p-s", ns=4, nt=2, faults="crash@redist+0.002:node=1",
    )
    rec = stats.reconfigs[0]
    assert rec.recovery_policy == "checkpoint_restart"
    assert rec.recovery_time > 0
    assert stats.finished_at is not None
    # The restarted group re-executed the lost iterations from the in-run
    # checkpoint (iteration 0 for a first-generation group).
    assert stats.iterations_by_group[1] == N_ITERS
    assert stats.total_iterations() >= N_ITERS
    restarted = _outcomes(sim, "restarted")
    assert restarted.count(RankOutcome.COMPLETED) == 2
    # The crashed sources were killed, the survivors were requeued.
    assert all(o is not RankOutcome.COMPLETED for o in [p.result for p in res.procs])


def test_restarted_group_losing_a_source_is_requeued_again():
    """Each lost group is requeued once: a relaunched group that loses a
    source in its own reconfiguration is relaunched in turn and the job
    still finishes.  4 -> 6 loses node 1's sources (first relaunch on 6
    surviving slots, nodes 0/2/3); the relaunched group's 6 -> 2 then loses
    node 3's."""

    def run(faults):
        sim = Simulator()
        machine = Machine(sim, n_nodes=4, cores_per_node=2, fabric=ETHERNET_10G)
        world = MpiWorld(
            machine,
            spawn_model=SpawnModel(base=0.01, per_process=0.001, per_node=0.002),
        )
        stats = RunStats()
        requests = [ReconfigRequest(5, 6), ReconfigRequest(9, 2)]
        world.launch(
            _entry, slots=range(4),
            args=(ToyApp(), ReconfigConfig.parse("merge-p2p-s"), requests, stats),
        )
        FaultInjector(faults, machine, world).attach()
        sim.run()
        return stats

    first = "crash@redist+0.002:node=1"
    once = run(first)
    assert [r.recovery_policy for r in once.reconfigs] == ["checkpoint_restart", None]
    second_redist = once.reconfigs[1].redist_started_at
    stats = run(f"{first};crash@{second_redist + 5e-4}:node=3")
    assert [r.recovery_policy for r in stats.reconfigs] == [
        "checkpoint_restart", "checkpoint_restart",
    ]
    assert stats.finished_at is not None
    # Both relaunches resume from iteration 0, the first group's start.
    assert stats.iterations_by_group == {0: RECONF_AT, 1: 9, 2: N_ITERS}


@pytest.mark.parametrize(
    "config", ["merge-p2p-s", "baseline-p2p-s", "merge-p2p-a", "baseline-col-t"]
)
def test_request_after_shrink_fallback_is_its_own_reconfiguration(config):
    """A group that shrank back at its first request is asked again: the
    second request is its own reconfiguration with its own record, and the
    group it spawns does not fire either request again."""
    stats, res, sim, inj = run_faulty_job(
        config, ns=2, nt=4, faults=SPAWN_FAILS_3,
        requests=[ReconfigRequest(RECONF_AT, 4), ReconfigRequest(9, 4)],
    )
    first, second = stats.reconfigs
    assert (first.n_sources, first.n_targets, first.requested_iteration) == (2, 4, 5)
    assert first.recovery_policy == "shrink"
    assert first.retries == 2
    assert (second.n_sources, second.n_targets, second.requested_iteration) == (2, 4, 9)
    assert second.recovery_policy is None
    assert second.retries == 0
    assert second.data_complete_at is not None
    assert stats.finished_at is not None
    assert stats.total_iterations() == N_ITERS
    if config.endswith("-s"):
        assert stats.iterations_by_group == {0: 9, 1: 3}


# ------------------------------------------------------ overlapped strategies
@pytest.mark.parametrize("strategy", ["a", "t"])
def test_overlapped_reconfiguration_recovers(strategy):
    """A/T: the failure is observed at a checkpoint (vote -1 in the stop
    agreement) and recovery falls back to the synchronous ladder."""
    stats, res, sim, inj = run_faulty_job(
        f"merge-p2p-{strategy}", ns=2, nt=4,
        faults="crash@redist+0.002:node=1",
    )
    assert stats.total_iterations() == N_ITERS
    rec = stats.last_reconfig
    assert rec.retries >= 1
    assert rec.recovery_policy == "retry"
    assert stats.finished_at is not None
    assert _outcomes(sim, "spawned").count(RankOutcome.COMPLETED) == 2


# ------------------------------------------------------ one stop agreement
#: (config, failed spawns) -> each source's drained verdicts, in order.
DRAINED_VERDICTS = {
    ("merge-p2p-s", 0): ["done"],
    ("merge-p2p-s", 1): ["failed", "done"],
    ("merge-p2p-s", 3): ["failed"] * 3,
    ("baseline-col-s", 1): ["failed", "done"],
    ("merge-p2p-a", 1): ["done"],
    ("merge-p2p-t", 1): ["done"],
}


@pytest.mark.parametrize("config, failed_spawns", DRAINED_VERDICTS)
def test_every_drained_attempt_commits_through_the_stop_agreement(
    config, failed_spawns, monkeypatch
):
    """S's attempt and every retry drain at once and vote in the same stop
    agreement as A/T's checkpoints: each source sees one drained verdict
    per attempt, in order.  A/T's first attempt fails at a checkpoint, so
    only its retry is drained."""
    drained = {}
    poll = GroupRunner._poll_reconfig

    def recorded(self, drain):
        verdict = yield from poll(self, drain)
        if drain:
            drained.setdefault(self.mpi.gid, []).append(verdict)
        return verdict

    monkeypatch.setattr(GroupRunner, "_poll_reconfig", recorded)
    faults = ";".join(f"spawnfail:attempt={i}" for i in range(failed_spawns))
    stats, res, sim, inj = run_faulty_job(config, ns=2, nt=4, faults=faults)
    assert stats.total_iterations() == N_ITERS
    verdicts = DRAINED_VERDICTS[config, failed_spawns]
    assert drained == {0: verdicts, 1: verdicts}
