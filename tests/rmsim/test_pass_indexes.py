"""The incremental indexes a ``TraceScheduler`` pass reads, checked against
the scans they replace after every pass of real traces.

A pass pays only for jobs that can act: the resize loops read ordered
ready-sets instead of filtering the candidate dicts, an EASY reservation
walks a live finish index instead of a lazily pruned heap, and the RMS is
one simulator callback per event timestamp instead of a process.  Each
check below recomputes what the index must hold with the old full scan --
which lives here, as the reference, and not in ``src/`` -- and counts the
work handed to the policies rather than timing it.
"""

import pytest

from repro.rmsim import (
    JobSpec,
    SchedulingPolicy,
    TraceConfig,
    TraceScheduler,
    generate_trace,
    policy_by_name,
)
from repro.rmsim.scheduler import _RECONF, _RUNNING
from repro.simulate import DeadlockError

#: the 400-job traces of ``test_trace_identity.py``: (seed, load).
SLOTS = 64 * 16
N_JOBS = 400
TRACES = [(0, 0.85), (1, 0.85), (2, 0.97)]


@pytest.fixture(scope="module")
def traces():
    return {
        key: generate_trace(TraceConfig.sized(SLOTS, N_JOBS, key[0], load=key[1])).jobs
        for key in TRACES
    }


def _ready_scan(members):
    """The old resize scan: every candidate, filtered on its flag."""
    return [job for job in members.values() if job.ready]


def _reservation_scan(sched, live, width):
    """Brute-force EASY reservation over the live jobs, soonest key first."""
    free = sched.pool.free_slots
    if free >= width:
        return (sched.now, free - width)
    for job in sorted(live, key=lambda j: j.fin_entry[:2]):
        free += job.pool_procs
        if free >= width:
            return (job.fin_entry[0], free - width)
    raise AssertionError("the whole machine never frees")


class CheckedScheduler(TraceScheduler):
    """Checks every index after each pass and counts what the resize
    loops are handed against how many of those jobs could act."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.passes = 0
        self.handed: list[tuple[int, int]] = []  # (jobs handed, ready)

    def _tally(self, jobs, members):
        self.handed.append((len(jobs), len(_ready_scan(members))))
        return jobs

    def ready_to_shrink(self):
        return self._tally(super().ready_to_shrink(), self._wide.members)

    def ready_to_grow(self):
        return self._tally(super().ready_to_grow(), self._narrow.members)

    def grow_candidates(self):
        return self._tally(super().grow_candidates(), self._narrow.members)

    def _pass(self):
        super()._pass()
        self.passes += 1
        assert self.ready_to_shrink() == _ready_scan(self._wide.members)
        assert self.ready_to_grow() == _ready_scan(self._narrow.members)
        del self.handed[-2:]  # the checks' own calls
        live = [j for j in self._tjobs.values() if j.state in (_RUNNING, _RECONF)]
        index = self._fin
        assert len(index) == len(live)
        assert {id(entry[2]) for entry in index} == {id(j) for j in live}
        assert index == sorted(index)
        for job in live:
            assert job.fin_entry[0] == pytest.approx(job.proj_finish, rel=1e-12)
        widths = {1, self.total_slots}
        if self.queue:
            widths.add(self.queue[0].spec.min_procs)
        for width in widths:
            assert self.reservation_for(width) == _reservation_scan(self, live, width)


@pytest.mark.parametrize("policy", ["fifo", "easy", "malleable"])
@pytest.mark.parametrize("key", TRACES, ids=str)
def test_indexes_match_the_full_scans_after_every_pass(traces, key, policy):
    sched = CheckedScheduler(SLOTS, traces[key], policy=policy_by_name(policy))
    res = sched.run()
    assert res.n_completed == N_JOBS
    assert sched.passes > N_JOBS
    assert not sched._fin and not sched._wide.members and not sched._narrow.members
    if policy != "malleable":
        # The FIFO-family loops are handed exactly the jobs that can act.
        assert sched.handed
        assert all(handed == ready for handed, ready in sched.handed)
        assert sum(handed for handed, _ in sched.handed) > 0


# ------------------------------------------------------------- coalescing
class PassCounter(TraceScheduler):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pass_times: list[float] = []

    def _pass(self):
        self.pass_times.append(self.now)
        super()._pass()


def test_one_pass_per_distinct_event_timestamp():
    """Three jobs arrive together and finish together; two more arrive
    exactly when they finish; three malleable ones arrive later, wider
    together than the machine, and resize.  Every distinct event timestamp
    gets exactly one pass."""
    jobs = [JobSpec(f"a{i}", 1.0, 4, 16.0, 8, 8) for i in range(3)]
    jobs += [JobSpec(f"b{i}", 9.0, 4, 1.0, 8, 8) for i in range(2)]
    jobs += [JobSpec(f"m{i}", 20.0, 60, 1.0, 4, 32) for i in range(3)]
    sched = PassCounter(64, jobs, policy=policy_by_name("fifo"))
    res = sched.run()
    times = sched.pass_times
    assert times == sorted(set(times))
    events = {0.0} | {j.arrival_time for j in jobs}
    for rec in res.records.values():
        events.add(rec.finished_at)
        events.update(t for t, _ in rec.size_history)
    assert set(times) == events
    assert res.records["a0"].finished_at == 9.0  # the coinciding instant
    assert res.n_grows + res.n_shrinks > 0


@pytest.mark.parametrize("policy", ["fifo", "malleable"])
def test_arrivals_at_the_start_share_the_opening_pass(policy):
    """Jobs that arrive at t = 0 are admitted by the opening pass and wake
    no second one (a second pass at t = 0 would rotate the malleable
    policy's grow window once more than the events warrant)."""
    jobs = [JobSpec(f"a{i}", 0.0, 4, 16.0, 8, 8) for i in range(3)]
    jobs += [JobSpec(f"m{i}", 0.0, 60, 1.0, 4, 32) for i in range(3)]
    jobs += [JobSpec(f"b{i}", 9.0, 4, 1.0, 8, 8) for i in range(2)]
    sched = PassCounter(64, jobs, policy=policy_by_name(policy))
    res = sched.run()
    times = sched.pass_times
    assert times == sorted(set(times))
    assert len(times) == {"fifo": 13, "malleable": 7}[policy]
    assert res.makespan == 9.5


def test_a_trace_that_cannot_finish_ends_in_a_deadlock_error():
    class NeverStart(SchedulingPolicy):
        def schedule(self, sched):
            pass

    jobs = [JobSpec("j0", 1.0, 4, 1.0, 2, 2)]
    with pytest.raises(DeadlockError) as err:
        TraceScheduler(8, jobs, policy=NeverStart()).run()
    assert err.value.blocked
