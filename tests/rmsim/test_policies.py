"""Scheduling policies: registry, ordering keys, cost model, backfilling."""

import pytest

from repro.cluster import ETHERNET_10G
from repro.malleability import ReconfigConfig
from repro.rmsim import (
    EasyBackfillPolicy,
    FifoPolicy,
    JobSpec,
    MalleableAwarePolicy,
    POLICIES,
    PriorityPolicy,
    TraceScheduler,
    policy_by_name,
)
from repro.rmsim.policies import reconfiguration_cost
from repro.smpi import SpawnModel


# ---------------------------------------------------------------- registry
def test_registry_names_match_classes():
    assert POLICIES == {
        "fifo": FifoPolicy,
        "priority": PriorityPolicy,
        "easy": EasyBackfillPolicy,
        "malleable": MalleableAwarePolicy,
    }
    for name in POLICIES:
        assert policy_by_name(name).name == name


def test_unknown_policy_name():
    with pytest.raises(ValueError, match="unknown policy"):
        policy_by_name("lottery")


def test_policy_kwargs_forwarded():
    pol = policy_by_name("malleable", grow_payoff=9.0, backfill_window=4)
    assert pol.grow_payoff == 9.0
    assert pol.backfill_window == 4
    with pytest.raises(ValueError):
        policy_by_name("easy", backfill_window=-1)


def test_negative_grow_window_rejected():
    with pytest.raises(ValueError, match="grow_window"):
        policy_by_name("malleable", grow_window=-1)


# ------------------------------------------------------------ ordering keys
def test_priority_sort_key_orders_by_priority_then_arrival_then_name():
    pol = PriorityPolicy()
    hi = JobSpec("hi", 5.0, 10, 0.1, 1, 1, priority=2)
    lo_early = JobSpec("a", 1.0, 10, 0.1, 1, 1, priority=0)
    lo_late = JobSpec("b", 1.0, 10, 0.1, 1, 1, priority=0)
    ordered = sorted([lo_late, lo_early, hi], key=pol.sort_key)
    assert [s.name for s in ordered] == ["hi", "a", "b"]


def test_fifo_sort_key_is_arrival_order():
    pol = FifoPolicy()
    a = JobSpec("z", 1.0, 10, 0.1, 1, 1, priority=5)
    b = JobSpec("y", 2.0, 10, 0.1, 1, 1, priority=0)
    assert sorted([b, a], key=pol.sort_key) == [a, b]  # priority ignored


# --------------------------------------------------------------- cost model
def test_reconfiguration_cost_positive_and_cached():
    config = ReconfigConfig.parse("merge-p2p-s")
    spawn = SpawnModel(0.02, 0.002, 0.005)
    args = (100_000, 64.0, 8, 16, config, ETHERNET_10G, spawn, 16)
    reconfiguration_cost.cache_clear()
    cost = reconfiguration_cost(*args)
    assert cost > 0.0
    assert reconfiguration_cost(*args) == cost
    info = reconfiguration_cost.cache_info()
    assert info.hits == 1 and info.misses == 1
    # More data to move costs more.
    bigger = reconfiguration_cost(
        100_000, 640.0, 8, 16, config, ETHERNET_10G, spawn, 16
    )
    assert bigger > cost


# ------------------------------------------------------------- backfilling
def _sched(jobs, policy, total_slots=8):
    return TraceScheduler(total_slots, jobs, policy=policy)


def _blocked_head_workload():
    # wide holds 7 of 8 slots; big (8 procs) blocks the queue; tiny
    # (1 proc, short) fits the idle slot but only starts early if
    # backfilling works.
    return [
        JobSpec("wide", 0.0, iterations=100, work_per_iteration=1.0,
                min_procs=7, max_procs=7),
        JobSpec("big", 1.0, iterations=100, work_per_iteration=1.0,
                min_procs=8, max_procs=8),
        JobSpec("tiny", 2.0, iterations=3, work_per_iteration=0.1,
                min_procs=1, max_procs=1),
    ]


def test_easy_backfill_lets_small_job_jump_blocked_head():
    jobs = _blocked_head_workload()
    fifo = _sched(jobs, FifoPolicy()).run()
    assert fifo.records["tiny"].started_at >= fifo.records["big"].started_at

    easy = _sched(jobs, EasyBackfillPolicy()).run()
    assert easy.records["tiny"].started_at < easy.records["big"].started_at
    # Backfilling never delays the reserved head.
    assert easy.records["big"].started_at <= fifo.records["big"].started_at
    assert easy.records["tiny"].started_at == pytest.approx(2.0)


def test_backfill_never_delays_reservation_holder():
    # slow would finish *after* the head's reservation at any width: EASY
    # must refuse to backfill it even though slots are free right now.
    jobs = [
        JobSpec("wide", 0.0, iterations=20, work_per_iteration=1.0,
                min_procs=6, max_procs=6),
        JobSpec("head", 1.0, iterations=20, work_per_iteration=1.0,
                min_procs=8, max_procs=8),
        JobSpec("slow", 2.0, iterations=500, work_per_iteration=1.0,
                min_procs=2, max_procs=2),
    ]
    res = _sched(jobs, EasyBackfillPolicy()).run()
    assert res.records["slow"].started_at >= res.records["head"].started_at


def test_zero_backfill_window_degrades_to_fifo():
    jobs = _blocked_head_workload()
    fifo = _sched(jobs, FifoPolicy()).run()
    no_bf = _sched(jobs, EasyBackfillPolicy(backfill_window=0)).run()
    assert (
        no_bf.records["tiny"].started_at == fifo.records["tiny"].started_at
    )


# ------------------------------------------------------- priced malleability
def test_malleable_policy_grows_into_idle_slots():
    # blocker forces solo to start narrow (width 2); once blocker
    # finishes, the idle slots should be handed to solo (the predicted
    # time saved dwarfs the reconfiguration cost).
    jobs = [
        JobSpec("blocker", 0.0, iterations=10, work_per_iteration=0.6,
                min_procs=6, max_procs=6),
        JobSpec("solo", 0.1, iterations=2000, work_per_iteration=4.0,
                min_procs=2, max_procs=8, serial_fraction=0.02),
    ]
    res = _sched(jobs, MalleableAwarePolicy(min_dwell=0.0)).run()
    assert res.n_grows >= 1
    sizes = [p for _, p in res.records["solo"].size_history]
    assert max(sizes) > sizes[0]


def test_min_dwell_suppresses_immediate_resizes():
    jobs = [
        JobSpec("solo", 0.0, iterations=50, work_per_iteration=4.0,
                min_procs=2, max_procs=8, serial_fraction=0.02),
    ]
    # Dwell longer than the whole job: no resize can ever fire.
    res = _sched(jobs, MalleableAwarePolicy(min_dwell=1e9)).run()
    assert res.n_grows == 0 and res.n_shrinks == 0


def test_malleable_policy_shrinks_to_admit_waiting_head():
    # donor holds the whole machine; head needs 4 slots and runs long
    # enough to be worth the disruption.
    jobs = [
        JobSpec("donor", 0.0, iterations=3000, work_per_iteration=4.0,
                min_procs=2, max_procs=8, serial_fraction=0.02),
        JobSpec("head", 10.0, iterations=600, work_per_iteration=2.0,
                min_procs=4, max_procs=4),
    ]
    res = _sched(jobs, MalleableAwarePolicy(min_dwell=0.0)).run()
    assert res.n_shrinks >= 1
    assert res.records["head"].started_at is not None
    assert res.records["head"].finished_at is not None
