"""RMS simulation: slot pool, decision boards, scheduler end-to-end."""

import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.malleability import ReconfigConfig, RunStats
from repro.analysis.rmsim_summary import schedule_summary
from repro.rmsim import (
    DecisionBoard,
    DynamicRMS,
    FifoPolicy,
    JobSpec,
    MalleableScheduler,
    SchedulingPolicy,
    SlotPool,
)
from repro.simulate import Simulator


# ---------------------------------------------------------------- slot pool
def test_pool_first_fit_and_release():
    pool = SlotPool(10)
    assert pool.allocate_runs(4) == [(0, 4)]
    assert pool.allocate_runs(3) == [(4, 7)]
    assert pool.free_slots == 3
    pool.release_runs([(0, 4)])
    assert pool.allocate_runs(2) == [(0, 2)]  # the lowest free slots first
    # 2 + 3 free in two fragments: a 5-slot ask spans both.
    assert pool.allocate_runs(5) == [(2, 4), (7, 10)]
    assert pool.allocate_runs(1) is None


def test_pool_merges_adjacent_frees():
    pool = SlotPool(10)
    a = pool.allocate_runs(5)
    b = pool.allocate_runs(5)
    pool.release_runs(a)
    pool.release_runs(b)
    assert pool._free == [(0, 10)]
    assert pool.allocate_runs(10) == [(0, 10)]


def test_pool_double_free_detected():
    pool = SlotPool(10)
    runs = pool.allocate_runs(4)
    pool.release_runs(runs)
    with pytest.raises(ValueError):
        pool.release_runs(runs)


def test_pool_validation():
    with pytest.raises(ValueError):
        SlotPool(0)
    pool = SlotPool(4)
    with pytest.raises(ValueError):
        pool.allocate_runs(0)


# -------------------------------------------------------------------- board
def test_board_posts_beyond_latest_checkpoint():
    stats = RunStats()
    stats.latest_checked_iteration = 7
    board = DecisionBoard(stats)
    req = board.post(4)
    assert req.at_iteration == 7 + DecisionBoard.SAFETY_MARGIN
    assert board.decisions == [req]


def test_board_refuses_overlapping_decisions():
    stats = RunStats()
    stats.latest_checked_iteration = 3
    board = DecisionBoard(stats)
    assert board.post(4) is not None
    assert board.post(2) is None  # first one still in flight


def test_dynamic_rms_views_share_board_with_private_cursors():
    stats = RunStats()
    stats.latest_checked_iteration = 0
    board = DecisionBoard(stats)
    board.post(4)
    rms_a = DynamicRMS(board)
    rms_b = DynamicRMS(board)
    assert rms_a.check(1) is None
    got_a = rms_a.check(2)
    got_b = rms_b.check(5)
    assert got_a is got_b  # same decision object, both ranks fire
    assert rms_a.check(6) is None  # consumed


def test_dynamic_rms_child_factory_skips_consumed():
    stats = RunStats()
    stats.latest_checked_iteration = 0
    board = DecisionBoard(stats)
    board.post(4)
    parent = DynamicRMS(board)
    child = parent.child_factory(consumed=1)()
    assert child.check(100) is None  # decision 0 already consumed upstream


# ---------------------------------------------------------------- scheduler
def small_workload(malleable):
    return [
        JobSpec("a", 0.0, iterations=40, work_per_iteration=0.3,
                min_procs=4, max_procs=8 if malleable else 4),
        JobSpec("b", 0.1, iterations=30, work_per_iteration=0.2,
                min_procs=2, max_procs=6 if malleable else 2),
        JobSpec("c", 0.4, iterations=20, work_per_iteration=0.15,
                min_procs=4, max_procs=4),
    ]


def run_schedule(jobs, enable=True):
    sim = Simulator()
    machine = Machine(sim, 4, 2, ETHERNET_10G)
    policy = FifoPolicy() if enable else SchedulingPolicy()
    return MalleableScheduler(machine, jobs, policy=policy).run()


def test_all_jobs_finish_rigid():
    res = run_schedule(small_workload(False), enable=False)
    assert all(r.finished_at is not None for r in res.records.values())
    assert res.makespan > 0
    assert 0 < res.utilization <= 1


def test_all_jobs_finish_malleable():
    res = run_schedule(small_workload(True), enable=True)
    assert all(r.finished_at is not None for r in res.records.values())
    # At least one job actually resized.
    assert any(len(r.size_history) > 1 for r in res.records.values())


def test_malleability_improves_the_schedule():
    rigid = run_schedule(small_workload(False), enable=False)
    melt = run_schedule(small_workload(True), enable=True)
    assert melt.makespan <= rigid.makespan * 1.02
    assert melt.utilization >= rigid.utilization * 0.95


def test_malleable_job_shrinks_when_queue_fills():
    res = run_schedule(small_workload(True), enable=True)
    a = res.records["a"]
    sizes = [p for _, p in a.size_history]
    assert sizes[0] == 8          # started wide on the empty machine
    assert min(sizes) <= 4        # shrank when others arrived


def test_engine_result_counts_resizes_and_names_its_policy():
    res = run_schedule(small_workload(True))
    assert res.policy == "fifo"
    resizes = sum(len(r.size_history) - 1 for r in res.records.values())
    assert resizes > 0
    assert res.n_grows + res.n_shrinks == resizes
    assert res.n_events > 0
    summary = schedule_summary(res)
    assert summary["policy"] == "fifo"
    assert summary["n_grows"] == res.n_grows


def test_unique_job_names_required():
    jobs = [
        JobSpec("x", 0.0, 10, 0.1, 1, 1),
        JobSpec("x", 1.0, 10, 0.1, 1, 1),
    ]
    sim = Simulator()
    machine = Machine(sim, 2, 2, ETHERNET_10G)
    with pytest.raises(ValueError):
        MalleableScheduler(machine, jobs)


def test_jobspec_validation():
    with pytest.raises(ValueError):
        JobSpec("bad", -1.0, 10, 0.1, 1, 2)
    with pytest.raises(ValueError):
        JobSpec("bad", 0.0, 10, 0.1, 3, 2)
    with pytest.raises(ValueError):
        JobSpec("bad", 0.0, 0, 0.1, 1, 2)
    with pytest.raises(ValueError):
        JobSpec("bad", 0.0, 10, 0.0, 1, 2)
    assert not JobSpec("r", 0.0, 10, 0.1, 2, 2).malleable
    assert JobSpec("m", 0.0, 10, 0.1, 2, 4).malleable
