"""One malleability-aware scheduler core with two executors (the paper's
future-work §5 study: "how malleability affects the real makespan of a
system").

:class:`TraceScheduler` is the core: the waiting queue, the slot pool
(``[lo, hi)`` runs over a linear slot space), the policy calls of
:mod:`repro.rmsim.policies`, the ``ready`` flags, allocated-core-second
billing and the :class:`ScheduleResult`.  How a started job makes progress
is left to four executor hooks:

* ``_launch`` — run a started job (analytic: set its finish timer);
* ``_post_resize`` — a resize was decided (analytic: progress is frozen and
  the commit is timed with the paper's cost model);
* ``_retime`` — the resize committed (analytic: re-time the finish);
* ``_rem_iters_at`` — iterations left.

The base class integrates progress analytically ("integrate it").
:class:`MalleableScheduler` overrides only the hooks and runs every job
through the full malleability engine ("simulate it"): decisions go on the
job's :class:`~repro.rmsim.board.DecisionBoard`, and reconfigurations cost
what the simulated MPI machinery makes them cost.  Both are event-driven
daemons on one simulator and run the same traces under the same policies.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Optional, Sequence

from ..cluster.fabrics import ETHERNET_10G, FabricSpec
from ..cluster.machine import Machine
from ..malleability.manager import run_malleable
from ..malleability.stats import RunStats
from ..obs.registry import MetricsRegistry
from ..redistribution.plan import RedistributionPlan
from ..simulate.core import Simulator
from ..simulate.primitives import Passivate
from ..smpi.spawn import SpawnModel
from ..smpi.world import MpiWorld
from ..synthetic.application import SyntheticApp
from .board import DecisionBoard, DynamicRMS
from .jobs import JobRecord, JobSpec
from .policies import FifoPolicy, SchedulingPolicy, reconfiguration_cost

__all__ = [
    "SlotPool",
    "MalleableScheduler",
    "ScheduleResult",
    "TraceScheduler",
    "arrival_order",
]


def arrival_order(spec: JobSpec) -> tuple[float, str]:
    """The scheduler's total order over submitted jobs.

    ``(arrival_time, name)`` — job names are unique within a workload, so
    identical-arrival traces enqueue identically across runs and hosts.
    Every queue/admission path in this module sorts with this key.
    """
    return (spec.arrival_time, spec.name)


class SlotPool:
    """Slot allocator over a linear slot space.

    ``_free`` is the sorted, coalesced list of free ``[lo, hi)`` ranges and
    ``free_slots`` its total, kept as state so a read is O(1) (policies
    read it on every decision).  Slots go out and come back as ``[lo, hi)``
    runs.  Every mutator validates before it mutates: a rejected call
    leaves the pool exactly as it was.
    """

    def __init__(self, total: int):
        if total < 1:
            raise ValueError("pool needs >= 1 slot")
        self.total = total
        #: sorted list of free [lo, hi) ranges.
        self._free: list[tuple[int, int]] = [(0, total)]
        #: == sum(hi - lo for lo, hi in _free); read-only for callers.
        self.free_slots = total

    def allocate_runs(self, k: int) -> Optional[list[tuple[int, int]]]:
        """Take the ``k`` lowest free slots, contiguous or not: their
        ``[lo, hi)`` runs in ascending order, or None if fewer are free."""
        if k < 1:
            raise ValueError("allocation must be >= 1 slot")
        if self.free_slots < k:
            return None
        free = self._free
        runs: list[tuple[int, int]] = []
        used = 0  # free ranges consumed whole
        need = k
        while need:
            lo, hi = free[used]
            take = min(need, hi - lo)
            runs.append((lo, lo + take))
            need -= take
            if lo + take == hi:
                used += 1
            else:
                free[used] = (lo + take, hi)
        del free[:used]
        self.free_slots -= k
        return runs

    def release_runs(self, runs: Sequence[tuple[int, int]]) -> None:
        """Free ``[lo, hi)`` runs, merging adjacent free ranges.  Every run
        is validated (in range, not already free, not given twice) before
        the first is freed, so a rejected call changes nothing."""
        runs = sorted(runs)
        end = 0
        for lo, hi in runs:
            self._check_free_ok(lo, hi)
            if lo < end:
                raise ValueError(f"double free: [{lo},{hi}) given twice")
            end = hi
        free = self._free
        for lo, hi in runs:
            self.free_slots += hi - lo
            i = bisect.bisect_left(free, (lo, hi))
            if i > 0 and free[i - 1][1] == lo:
                i -= 1
                lo = free.pop(i)[0]
            if i < len(free) and free[i][0] == hi:
                hi = free.pop(i)[1]
            free.insert(i, (lo, hi))

    def _check_free_ok(self, lo: int, hi: int) -> None:
        """Raise if freeing [lo, hi) is out of range or a double free (it
        can only overlap its neighbours in sort order).  No mutation."""
        if not 0 <= lo < hi <= self.total:
            raise ValueError(f"release out of range: [{lo},{hi})")
        i = bisect.bisect_left(self._free, (lo, hi))
        if i > 0 and self._free[i - 1][1] > lo:
            raise ValueError(
                f"double free: [{lo},{hi}) overlaps {self._free[i - 1]}"
            )
        if i < len(self._free) and self._free[i][0] < hi:
            raise ValueError(
                f"double free: [{lo},{hi}) overlaps {self._free[i]}"
            )


@dataclass
class ScheduleResult:
    """Outcome of one workload run.

    The mean statistics are taken over *completed* jobs only (a record that
    never started has no waiting time, and folding it in used to raise
    ``RuntimeError`` — or silently skew the mean).  An empty workload, or
    one where nothing completed, yields 0.0 rather than dividing by zero.
    """

    records: dict[str, JobRecord]
    makespan: float
    utilization: float
    #: slots in the machine the schedule ran on (0 = unknown/legacy).
    total_slots: int = 0
    #: allocated core-seconds summed over all jobs (slots held, busy or not).
    busy_coreseconds: float = 0.0
    #: scheduler events processed (arrivals/starts/completions/decisions).
    n_events: int = 0
    #: scheduling policy that produced the run (a ``POLICIES`` name, or
    #: ``"base"`` for the rigid :class:`SchedulingPolicy`).
    policy: str = ""
    #: committed resizes, per direction.
    n_grows: int = 0
    n_shrinks: int = 0

    @cached_property
    def completed(self) -> list[JobRecord]:
        """Records of jobs that ran to completion, in name order (computed
        once: a result describes a finished run)."""
        return [
            self.records[name]
            for name in sorted(self.records)
            if self.records[name].finished_at is not None
        ]

    @property
    def n_completed(self) -> int:
        return len(self.completed)

    @property
    def mean_waiting_time(self) -> float:
        waits = [r.waiting_time for r in self.completed]
        return sum(waits) / len(waits) if waits else 0.0

    @property
    def mean_turnaround(self) -> float:
        vals = [r.turnaround for r in self.completed]
        return sum(vals) / len(vals) if vals else 0.0


#: lifecycle states of a job inside :class:`TraceScheduler`.
_QUEUED, _RUNNING, _RECONF, _DONE = 0, 1, 2, 3
_QUEUE_KEY = attrgetter("queue_key")


class _TraceJob:
    """Mutable per-job state of the core (projected progress, slots, busy)."""

    __slots__ = (
        "spec",
        "record",
        "state",
        "procs",
        "pool_procs",
        "pending_procs",
        "slots",
        "ready",
        "queue_key",
        "cost_class",
        "it_time",
        "rem_iters",
        "synced_at",
        "proj_finish",
        "finish_handle",
        "fin_epoch",
        "alloc_since",
        "busy",
    )

    def __init__(self, spec: JobSpec, record: JobRecord, cost_class: int):
        self.spec = spec
        self.record = record
        self.state = _QUEUED
        #: the policy's sort key of the job, computed once, on arrival.
        self.queue_key: tuple = ()
        #: jobs of one class share rows, bytes and configuration (the price key).
        self.cost_class = cost_class
        #: may post a resize decision: running, malleable, not yet past the
        #: remaining-iterations guard (monotone, so it fails only once).
        self.ready = False
        #: active compute width (the Amdahl speed the job runs at).
        self.procs = 0
        #: slots currently held in the pool (a growing job holds its new
        #: slots from the decision on; a shrinking one frees at commit).
        self.pool_procs = 0
        self.pending_procs = 0
        #: [lo, hi) slot runs held, in allocation order: the first run
        #: starts at ``record.base`` and a shrink frees from the tail.
        self.slots: list[tuple[int, int]] = []
        self.it_time = 0.0
        #: iterations left *as of* ``synced_at`` (progress is integrated
        #: lazily — only at decision points, never per iteration).
        self.rem_iters = 0.0
        self.synced_at = 0.0
        self.proj_finish = math.inf
        self.finish_handle = None
        #: bumped whenever the projected finish is invalidated; stale
        #: entries in the scheduler's finish heap are skipped lazily.
        self.fin_epoch = 0
        self.alloc_since = 0.0
        #: allocated core-seconds accumulated so far.
        self.busy = 0.0


class TraceScheduler:
    """The scheduler core, with the analytic executor: 10^3 nodes / 10^4
    jobs in seconds.

    :class:`MalleableScheduler` runs every rank of every job through the
    simulated MPI machinery — perfect for tens of jobs, hopeless for a
    datacenter trace.  This class keeps the *scheduling* physics and
    replaces per-rank execution with the analytic model:

    * a job's iteration time follows Amdahl's law at its current width
      (:meth:`~repro.rmsim.jobs.JobSpec.iteration_time`);
    * a reconfiguration fires after the decision's safety-margin
      iterations, stalls the job for the paper's predicted spawn +
      redistribution cost (:func:`~repro.rmsim.policies.reconfiguration_cost`,
      memoised), then resumes at the new width — the same
      decide → margin → stall → resume shape the full engine produces;
    * progress is integrated lazily at decision points, so simulated cost
      is O(events), not O(iterations).

    **Batched main loop.**  All trace arrivals enter the event heap in one
    :meth:`~repro.simulate.core.Simulator.schedule_batch` call, and the
    daemon is event-driven rather than tick-polling: every arrival /
    completion / commit callback wakes it at most once per timestamp
    (same-time events coalesce into one pass), and each pass drains its
    event buffers in batch before consulting the policy.  With a fixed
    trace and policy the run is fully deterministic — byte-identical
    summaries across repeats and hosts (see ``docs/rmsim.md``).

    **Cost of a pass** is O(its events + resize candidates at one
    attribute test each): the free count is pool state, jobs hold slot
    *runs*, and the resize scans skip a job that cannot act on its
    ``ready`` flag.  See "Cost of a pass" in ``docs/rmsim.md``.

    The policy object (see :mod:`repro.rmsim.policies`) decides queue
    order, starts, and resizes through this class's verbs: :meth:`start`,
    :meth:`request_resize`, :meth:`reservation_for`, :meth:`resize_cost`.
    The analytic projections (``proj_finish``, the finish heap) are kept
    under either executor: they are the runtime estimates the policies
    price and reserve with.
    """

    def __init__(
        self,
        total_slots: int,
        jobs: Sequence[JobSpec],
        policy: Optional[SchedulingPolicy] = None,
        fabric: FabricSpec = ETHERNET_10G,
        spawn_model: Optional[SpawnModel] = None,
        cores_per_node: int = 16,
        registry: Optional[MetricsRegistry] = None,
        sim: Optional[Simulator] = None,
    ):
        names = [j.name for j in jobs]
        if len(set(names)) != len(names):
            raise ValueError("job names must be unique")
        too_big = [j.name for j in jobs if j.min_procs > total_slots]
        if too_big:
            raise ValueError(
                f"jobs can never start on {total_slots} slots: {too_big[:5]}"
            )
        self.total_slots = total_slots
        self.policy = policy or FifoPolicy()
        self.fabric = fabric
        self.spawn_model = spawn_model or SpawnModel(
            base=0.02, per_process=0.002, per_node=0.005
        )
        self.cores_per_node = cores_per_node
        self.registry = registry
        self.sim = sim or Simulator()
        self.pool = SlotPool(total_slots)
        self.jobs = sorted(jobs, key=arrival_order)
        classes: dict[tuple, int] = {}
        self._tjobs: dict[str, _TraceJob] = {}
        for j in self.jobs:
            cls = classes.setdefault((j.n_rows, j.data_bytes, j.config), len(classes))
            self._tjobs[j.name] = _TraceJob(j, JobRecord(spec=j), cls)
        self._cost_memo: dict[tuple[int, int, int], float] = {}
        self.queue: list[_TraceJob] = []
        self.running: dict[str, _TraceJob] = {}
        #: running malleable jobs above their minimum / below their maximum
        #: width — the policies' resize candidate sets.  Kept incrementally
        #: so an all-shrunk (or all-grown) steady state costs O(1) per pass.
        #: Insertion order is who is offered slots first: never re-insert.
        self._wide: dict[str, _TraceJob] = {}
        self._narrow: dict[str, _TraceJob] = {}
        self._arrival_ptr = 0
        self._finished_buf: list[_TraceJob] = []
        self._commit_buf: list[_TraceJob] = []
        self._staged: list[tuple[float, object]] = []
        self._staged_jobs: list[_TraceJob] = []
        #: projected-finish heap for EASY reservations: (t, seq, job, epoch).
        self._fin_heap: list[tuple[float, int, _TraceJob, int]] = []
        self._fin_seq = itertools.count()
        self._proc = None
        self._woke = False
        self._done = 0
        self.n_events = 0
        self.n_starts = 0
        self.n_backfills = 0
        self.n_grows = 0
        self.n_shrinks = 0
        self.busy_total = 0.0
        if registry is not None:
            self._m = {
                "arrived": registry.counter("rmsim.jobs.arrived"),
                "started": registry.counter("rmsim.jobs.started"),
                "backfilled": registry.counter("rmsim.jobs.backfilled"),
                "completed": registry.counter("rmsim.jobs.completed"),
                "grow": registry.counter("rmsim.resizes", direction="grow"),
                "shrink": registry.counter("rmsim.resizes", direction="shrink"),
                "wait": registry.histogram("rmsim.job.wait_s"),
                "turnaround": registry.histogram("rmsim.job.turnaround_s"),
                "resize_cost": registry.histogram("rmsim.resize.cost_s"),
                "queue_depth": registry.gauge("rmsim.queue.depth"),
                "free_slots": registry.gauge("rmsim.slots.free"),
            }
        else:
            self._m = None

    # ------------------------------------------------------------ properties
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def free_slots(self) -> int:
        return self.pool.free_slots

    # ------------------------------------------------------------------ run
    def run(self) -> ScheduleResult:
        """Execute the whole trace; returns the schedule metrics."""
        if self._proc is not None:
            raise RuntimeError("run() may only be called once")
        self._proc = self.sim.spawn(self._daemon(), name="rms-daemon")
        if self.jobs:
            # The batch-wakeup lane: all trace arrivals enter the heap in
            # one O(N + K) heapify instead of K pushes.
            self.sim.schedule_batch(
                (spec.arrival_time, self._wake) for spec in self.jobs
            )
        self.sim.run()
        unfinished = [
            name
            for name, j in self._tjobs.items()
            if j.record.finished_at is None
        ]
        if unfinished:  # pragma: no cover - the daemon only exits when done
            raise RuntimeError(f"jobs never finished: {unfinished[:5]}")
        records = {name: j.record for name, j in self._tjobs.items()}
        finished = [r.finished_at for r in records.values()]
        makespan = max(finished) if finished else 0.0
        util = (
            self.busy_total / (makespan * self.total_slots) if makespan else 0.0
        )
        return ScheduleResult(
            records=records,
            makespan=makespan,
            utilization=util,
            total_slots=self.total_slots,
            busy_coreseconds=self.busy_total,
            n_events=self.n_events,
            policy=self.policy.name,
            n_grows=self.n_grows,
            n_shrinks=self.n_shrinks,
        )

    # ---------------------------------------------------------------- daemon
    def _daemon(self):
        """Event-driven RMS main loop: wake, drain buffers, consult policy."""
        n_jobs = len(self.jobs)
        while True:
            self._woke = False
            self._pass()
            if self._done >= n_jobs:
                return "rms-done"
            yield Passivate("rms-idle")

    def _wake(self) -> None:
        # Coalesce same-timestamp callbacks into one daemon pass: the first
        # one queues the resume, the rest just land in the event buffers.
        if not self._woke:
            self._woke = True
            self.sim.resume(self._proc)

    def _pass(self) -> None:
        now = self.sim.now
        # ---- batch 1: admissions (arrival events up to the current time)
        jobs = self.jobs
        ptr = self._arrival_ptr
        n = len(jobs)
        while ptr < n and jobs[ptr].arrival_time <= now:
            self._enqueue(self._tjobs[jobs[ptr].name])
            ptr += 1
        arrived = ptr - self._arrival_ptr
        self._arrival_ptr = ptr
        self.n_events += arrived
        # ---- batch 2: reconfiguration commits
        if self._commit_buf:
            buf, self._commit_buf = self._commit_buf, []
            for job in buf:
                self._commit_resize(job, now)
        # ---- batch 3: completions
        if self._finished_buf:
            buf, self._finished_buf = self._finished_buf, []
            for job in buf:
                self._finish(job, now)
        # ---- policy: starts, then (with finish timers live) resizes
        self.policy.schedule(self)
        self._flush_staged()
        self.policy.resize(self)
        self._flush_staged()
        m = self._m
        if m is not None:
            if arrived:
                m["arrived"].inc(arrived)
            m["queue_depth"].set(float(len(self.queue)), t=now)
            m["free_slots"].set(float(self.pool.free_slots), t=now)

    def _flush_staged(self) -> None:
        """Schedule the pass's finish timers in one heap batch."""
        if not self._staged:
            return
        handles = self.sim.schedule_batch(self._staged)
        for job, handle in zip(self._staged_jobs, handles):
            job.finish_handle = handle
        self._staged.clear()
        self._staged_jobs.clear()

    # ------------------------------------------------------------- lifecycle
    def _enqueue(self, job: _TraceJob) -> None:
        job.queue_key = self.policy.sort_key(job.spec)
        bisect.insort(self.queue, job, key=_QUEUE_KEY)

    def start(self, job: _TraceJob, width: int, backfilled: bool = False) -> bool:
        """Launch a queued job at ``width`` slots.  Returns False when the
        pool cannot supply the slots (the policy should stop trying)."""
        spec = job.spec
        if job.state != _QUEUED:
            raise ValueError(f"job {spec.name} is not queued")
        if not spec.min_procs <= width <= spec.max_procs:
            raise ValueError(
                f"width {width} outside [{spec.min_procs}, {spec.max_procs}]"
            )
        slots = self.pool.allocate_runs(width)
        if slots is None:
            return False
        now = self.sim.now
        # Queue keys are unique (they end in the job name): bisect finds it.
        del self.queue[bisect.bisect_left(self.queue, job.queue_key, key=_QUEUE_KEY)]
        job.state = _RUNNING
        job.ready = spec.malleable
        job.slots = slots
        job.procs = width
        job.pool_procs = width
        job.it_time = spec.iteration_time(width)
        job.rem_iters = float(spec.iterations)
        job.synced_at = now
        job.alloc_since = now
        rec = job.record
        rec.started_at = now
        rec.base = slots[0][0]
        rec.procs = width
        rec.size_history.append((now, width))
        self.running[spec.name] = job
        self._update_width_sets(job)
        finish = now + job.rem_iters * job.it_time
        job.proj_finish = finish
        heapq.heappush(
            self._fin_heap, (finish, next(self._fin_seq), job, job.fin_epoch)
        )
        self._launch(job, finish)
        self.n_events += 1
        self.n_starts += 1
        if backfilled:
            self.n_backfills += 1
        if self._m is not None:
            self._m["started"].inc()
            if backfilled:
                self._m["backfilled"].inc()
        return True

    def _on_finish(self, job: _TraceJob) -> None:
        self._finished_buf.append(job)
        self._wake()

    def _on_commit(self, job: _TraceJob) -> None:
        self._commit_buf.append(job)
        self._wake()

    def _finish(self, job: _TraceJob, now: float) -> None:
        self._account(job, now)
        job.state = _DONE
        job.ready = False
        job.fin_epoch += 1
        job.finish_handle = None
        self.pool.release_runs(job.slots)
        job.slots = []
        job.pool_procs = 0
        rec = job.record
        rec.finished_at = now
        del self.running[job.spec.name]
        self._update_width_sets(job)
        self.busy_total += job.busy
        self._done += 1
        self.n_events += 1
        if self._m is not None:
            self._m["completed"].inc()
            self._m["wait"].observe(rec.waiting_time)
            self._m["turnaround"].observe(rec.turnaround)

    # --------------------------------------------------------------- resizes
    def can_resize(self, job: _TraceJob) -> bool:
        """True when a resize decision may still fire safely: the job is
        running (one reconfiguration in flight at a time), malleable, and
        has enough iterations left for the safety margin plus a useful
        remainder (the executor's :meth:`_rem_iters_at` counts them)."""
        if not job.ready:
            return False
        rem = self._rem_iters_at(job, self.sim.now)
        job.ready = rem > DecisionBoard.SAFETY_MARGIN + 3
        return job.ready

    def resize_cost(self, job: _TraceJob, new_procs: int) -> float:
        """Predicted stall of resizing ``job`` to ``new_procs``.

        Memoised per scheduler on ``(cost class, width-from, width-to)``:
        the class stands for the job's rows, bytes and configuration, and
        fabric, spawn model and cores per node are fixed per scheduler, so
        a hit hashes three ints.  A miss falls through to
        :func:`reconfiguration_cost`'s process-wide cache, which hashes the
        frozen dataclasses and carries prices across schedulers.
        """
        key = (job.cost_class, job.procs, new_procs)
        cost = self._cost_memo.get(key)
        if cost is None:
            spec = job.spec
            cost = self._cost_memo[key] = reconfiguration_cost(
                spec.n_rows, spec.data_bytes / spec.n_rows, job.procs, new_procs,
                spec.config, self.fabric, self.spawn_model, self.cores_per_node
            )
        return cost

    def est_remaining(self, job: _TraceJob) -> float:
        """Projected seconds until the job finishes at its current plan."""
        return job.proj_finish - self.sim.now

    def time_saved(self, job: _TraceJob, new_procs: int) -> float:
        """Projected runtime reduction of finishing at ``new_procs`` instead
        of the current width (negative for a shrink)."""
        rem = self._rem_iters_at(job, self.sim.now)
        return rem * (job.it_time - job.spec.iteration_time(new_procs))

    def shrink_candidates(self) -> list[_TraceJob]:
        """Running malleable jobs above their minimum width (insertion
        order — deterministic, since the event order is)."""
        return list(self._wide.values())

    def grow_candidates(self) -> list[_TraceJob]:
        """Running malleable jobs below their maximum width."""
        return list(self._narrow.values())

    def request_resize(self, job: _TraceJob, target: int) -> bool:
        """Post a resize decision.  The projection: the job runs its
        safety-margin iterations at the old width, stalls for the predicted
        reconfiguration cost, then resumes at ``target``; the executor's
        :meth:`_post_resize` carries it out.

        A grow claims its new slots *now* (they are committed to the job
        and billed from this moment); a shrink frees its tail only when the
        redistribution commits.
        """
        spec = job.spec
        if not self.can_resize(job) or target == job.procs:
            return False
        if not spec.min_procs <= target <= spec.max_procs:
            raise ValueError(
                f"target {target} outside [{spec.min_procs}, {spec.max_procs}]"
            )
        now = self.sim.now
        if target > job.pool_procs:
            extra = self.pool.allocate_runs(target - job.pool_procs)
            if extra is None:
                return False
            self._account(job, now)
            job.slots.extend(extra)
            job.pool_procs = target
        # Sync progress, then freeze it: the job completes the fractional
        # iteration in flight plus the safety margin at the old speed, then
        # stalls for the predicted cost until the commit callback.
        rem_now = self._rem_iters_at(job, now)
        margin = rem_now - math.floor(rem_now) + DecisionBoard.SAFETY_MARGIN
        cost = self.resize_cost(job, target)
        t_commit = now + margin * job.it_time + cost
        job.rem_iters = rem_now - margin
        job.synced_at = t_commit
        job.state = _RECONF
        job.ready = False
        job.pending_procs = target
        job.proj_finish = t_commit + job.rem_iters * spec.iteration_time(target)
        job.fin_epoch += 1
        heapq.heappush(
            self._fin_heap,
            (job.proj_finish, next(self._fin_seq), job, job.fin_epoch),
        )
        self._update_width_sets(job)
        self._post_resize(job, target, t_commit)
        self.n_events += 1
        if self._m is not None:
            self._m["resize_cost"].observe(cost)
        return True

    def _commit_resize(self, job: _TraceJob, now: float) -> None:
        spec = job.spec
        target = job.pending_procs
        if target < job.pool_procs:  # shrink: the freed tail opens now
            self._account(job, now)
            self.pool.release_runs(self._cut_tail(job, job.pool_procs - target))
            job.pool_procs = target
            self.n_shrinks += 1
            if self._m is not None:
                self._m["shrink"].inc()
        else:
            self.n_grows += 1
            if self._m is not None:
                self._m["grow"].inc()
        job.procs = target
        job.pending_procs = 0
        job.it_time = spec.iteration_time(target)
        job.state = _RUNNING
        job.ready = True  # it passed the guard when the decision was posted
        # synced_at was set to this commit time when the decision was
        # posted, so the remaining iterations burn from now at the new rate.
        finish = now + job.rem_iters * job.it_time
        job.proj_finish = finish
        self._retime(job, finish)
        rec = job.record
        rec.procs = target
        rec.size_history.append((now, target))
        self._update_width_sets(job)
        self.n_events += 1

    # -------------------------------------------------------- executor hooks
    def _launch(self, job: _TraceJob, finish: float) -> None:
        """Run a job that just started; ``finish`` is its projected end.
        Analytic: a finish timer, scheduled with the pass's others."""
        self._staged.append((finish, lambda j=job: self._on_finish(j)))
        self._staged_jobs.append(job)

    def _post_resize(self, job: _TraceJob, target: int, t_commit: float) -> None:
        """Execute a resize decision (progress is already frozen).
        Analytic: the finish timer is void and the commit fires at the
        priced ``t_commit``."""
        if job.finish_handle is not None:
            job.finish_handle.cancelled = True
            job.finish_handle = None
        self.sim.schedule_at(t_commit, lambda j=job: self._on_commit(j))

    #: A resize committed; the job now ends at ``finish``.  Analytic: a new
    #: finish timer, as at the start (an executor overrides both hooks).
    _retime = _launch

    def _rem_iters_at(self, job: _TraceJob, now: float) -> float:
        """Iterations left at ``now`` (frozen during a reconfiguration:
        ``synced_at`` then lies in the future, at the commit time)."""
        if job.state == _RUNNING and now > job.synced_at:
            return job.rem_iters - (now - job.synced_at) / job.it_time
        return job.rem_iters

    # -------------------------------------------------------------- internal

    @staticmethod
    def _cut_tail(job: _TraceJob, n: int) -> list[tuple[int, int]]:
        """Remove the ``n`` last-allocated slots from the job's runs."""
        slots = job.slots
        cut: list[tuple[int, int]] = []
        while n:
            lo, hi = slots.pop()
            if hi - lo > n:
                slots.append((lo, hi - n))
                lo = hi - n
            cut.append((lo, hi))
            n -= hi - lo
        return cut

    def _account(self, job: _TraceJob, now: float) -> None:
        """Bill the slots held since the last accounting boundary."""
        job.busy += job.pool_procs * (now - job.alloc_since)
        job.alloc_since = now

    def _update_width_sets(self, job: _TraceJob) -> None:
        spec = job.spec
        name = spec.name
        alive = job.state in (_RUNNING, _RECONF) and spec.malleable
        if alive and job.pool_procs > spec.min_procs:
            self._wide[name] = job
        else:
            self._wide.pop(name, None)
        if alive and job.pool_procs < spec.max_procs:
            self._narrow[name] = job
        else:
            self._narrow.pop(name, None)

    def reservation_for(self, width: int) -> tuple[float, int]:
        """EASY reservation for the queue head: the *shadow time* when
        ``width`` slots are projected to be free, and the *extra* slots
        beyond the head's need at that moment.  Backfilled jobs must fit
        in the extra slots or finish before the shadow time."""
        free = self.pool.free_slots
        if free >= width:
            return (self.sim.now, free - width)
        heap = self._fin_heap
        # Prune stale heads in place so repeated calls stay cheap.
        while heap and (
            heap[0][3] != heap[0][2].fin_epoch or heap[0][2].state == _DONE
        ):
            heapq.heappop(heap)
        snap = list(heap)
        released = 0
        while snap:
            t, _seq, job, epoch = heapq.heappop(snap)
            if epoch != job.fin_epoch or job.state == _DONE:
                continue
            released += job.pool_procs
            if free + released >= width:
                return (t, free + released - width)
        return (math.inf, 0)  # pragma: no cover - width is capped at total


class MalleableScheduler(TraceScheduler):
    """The scheduler core with the engine executor: every job runs through
    the full malleability engine on ``machine``.

    A started job is :func:`~repro.malleability.manager.run_malleable` on
    the ids of its slot runs; a resize is posted on the job's
    :class:`DecisionBoard` and costs what the simulated spawn and
    redistribution make it cost.  Queue, pool, policy and billing are the
    core's, so both executors run the same trace under the same policy
    (rigid is ``policy=SchedulingPolicy()``).
    """

    #: simulated seconds between looks at an in-flight resize's record:
    #: it commits when all its targets hold their data.
    COMMIT_POLL = 0.01

    def __init__(
        self,
        machine: Machine,
        jobs: Sequence[JobSpec],
        policy: Optional[SchedulingPolicy] = None,
    ):
        super().__init__(
            machine.total_cores, jobs, policy, fabric=machine.fabric,
            cores_per_node=machine.cores_per_node, sim=machine.sim,
        )
        self.machine = machine
        #: per started job: its run stats, decision board (None when rigid)
        #: and machine slot ids, indexed by job-internal slot.
        self._engine: dict[
            str, tuple[RunStats, Optional[DecisionBoard], list[int]]
        ] = {}

    def _launch(self, job: _TraceJob, finish: float) -> None:
        spec = job.spec
        stats = RunStats()
        stats.finished_event = self.sim.event(name=f"job-done:{spec.name}")
        stats.finished_event.add_callback(lambda _e, j=job: self._on_finish(j))
        board = DecisionBoard(stats) if spec.malleable else None
        ids = [s for lo, hi in job.slots for s in range(lo, hi)]
        self._engine[spec.name] = (stats, board, ids)
        MpiWorld(self.machine, spawn_model=self.spawn_model).launch(
            run_malleable,
            slots=list(ids),
            args=(
                SyntheticApp(spec.synthetic_config()),
                spec.config,
                [],                      # decisions come from the board
                stats,
                RedistributionPlan.block,
                ids.__getitem__,         # slot_of reads the live id list
                (lambda: DynamicRMS(board)) if board is not None else None,
            ),
            name_prefix=f"job-{spec.name}",
        )

    def _post_resize(self, job: _TraceJob, target: int, t_commit: float) -> None:
        stats, board, ids = self._engine[job.spec.name]
        # A grow's slots are claimed already; future spawns land on them.
        ids[:] = [s for lo, hi in job.slots for s in range(lo, hi)]
        board.post(target)
        k = len(board.decisions) - 1

        def poll() -> None:
            if job.state != _RECONF:
                return  # the job finished with the resize in flight
            recs = stats.reconfigs
            if len(recs) > k and recs[k].data_complete_at is not None:
                self._on_commit(job)
            else:
                self.sim.schedule(self.COMMIT_POLL, poll)

        self.sim.schedule(self.COMMIT_POLL, poll)

    def _retime(self, job: _TraceJob, finish: float) -> None:
        # A shrink's retired ranks held the tail ids (Merge keeps the low ones).
        del self._engine[job.spec.name][2][job.pool_procs:]

    def _rem_iters_at(self, job: _TraceJob, now: float) -> float:
        stats = self._engine[job.spec.name][0]
        return job.spec.iterations - (stats.latest_checked_iteration + 1)
