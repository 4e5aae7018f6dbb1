"""Regression tests for the scheduler bugfix sweep.

* ``ScheduleResult`` statistics on empty / partially-completed workloads
  (historically a ``ZeroDivisionError`` on empty, and a ``RuntimeError``
  as soon as one record never finished).
* Duplicate-arrival determinism: ``MalleableScheduler`` enforces the
  ``(arrival_time, name)`` total order, so submission order of
  same-instant jobs cannot change the schedule.
"""

from repro.cluster import ETHERNET_10G, Machine
from repro.rmsim import (
    JobRecord,
    JobSpec,
    MalleableScheduler,
    ScheduleResult,
    SchedulingPolicy,
    arrival_order,
)
from repro.simulate import Simulator


# ---------------------------------------------------------- ScheduleResult
def test_empty_workload_statistics_are_zero():
    res = ScheduleResult(records={}, makespan=0.0, utilization=0.0)
    assert res.n_completed == 0
    assert res.completed == []
    assert res.mean_waiting_time == 0.0
    assert res.mean_turnaround == 0.0


def test_means_skip_unfinished_records():
    done = JobSpec("done", 0.0, 10, 0.1, 1, 1)
    stuck = JobSpec("stuck", 0.0, 10, 0.1, 1, 1)
    records = {
        "done": JobRecord(spec=done, started_at=2.0, finished_at=12.0),
        "stuck": JobRecord(spec=stuck),  # never started
    }
    res = ScheduleResult(records=records, makespan=12.0, utilization=0.5)
    assert res.n_completed == 1
    assert [r.spec.name for r in res.completed] == ["done"]
    assert res.mean_waiting_time == 2.0
    assert res.mean_turnaround == 12.0


def test_nothing_completed_yields_zero_not_error():
    spec = JobSpec("q", 0.0, 10, 0.1, 1, 1)
    res = ScheduleResult(
        records={"q": JobRecord(spec=spec)}, makespan=0.0, utilization=0.0
    )
    assert res.n_completed == 0
    assert res.mean_waiting_time == 0.0
    assert res.mean_turnaround == 0.0


# ----------------------------------------------- duplicate-arrival ordering
def _same_instant_jobs():
    # Three jobs arriving at the same instant; only capacity for one at a
    # time, so admission order decides the whole schedule.
    return [
        JobSpec(name, 1.0, iterations=10, work_per_iteration=0.2,
                min_procs=4, max_procs=4)
        for name in ("zeta", "alpha", "mid")
    ]


def _run(jobs):
    sim = Simulator()
    machine = Machine(sim, 2, 2, ETHERNET_10G)  # 4 slots total
    return MalleableScheduler(machine, jobs, policy=SchedulingPolicy()).run()


def test_arrival_order_key():
    a = JobSpec("a", 5.0, 10, 0.1, 1, 1)
    b = JobSpec("b", 5.0, 10, 0.1, 1, 1)
    assert arrival_order(a) == (5.0, "a")
    assert sorted([b, a], key=arrival_order) == [a, b]


def test_duplicate_arrivals_scheduled_in_name_order():
    res = _run(_same_instant_jobs())
    starts = sorted(
        (r.started_at, r.spec.name) for r in res.records.values()
    )
    assert [name for _, name in starts] == ["alpha", "mid", "zeta"]


def test_submission_order_of_tied_arrivals_is_irrelevant():
    jobs = _same_instant_jobs()
    baseline = _run(jobs)
    for rotation in range(1, len(jobs)):
        shuffled = jobs[rotation:] + jobs[:rotation]
        res = _run(shuffled)
        assert res.makespan == baseline.makespan
        for name, rec in baseline.records.items():
            other = res.records[name]
            assert other.started_at == rec.started_at
            assert other.finished_at == rec.finished_at
