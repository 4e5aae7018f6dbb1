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
what the simulated MPI machinery makes them cost.  Both drive the core from
simulator callbacks and run the same traces under the same policies.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial
from operator import attrgetter
from typing import Optional, Sequence

from ..cluster.fabrics import ETHERNET_10G, FabricSpec
from ..cluster.machine import Machine
from ..malleability.manager import run_malleable
from ..malleability.stats import RunStats
from ..obs.registry import MetricsRegistry
from ..redistribution.plan import RedistributionPlan
from ..simulate.core import Simulator
from ..simulate.errors import DeadlockError
from ..smpi.spawn import SpawnModel
from ..smpi.world import MpiWorld
from ..synthetic.application import SyntheticApp
from .board import DecisionBoard
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
        the first is freed, so a rejected call changes nothing.

        One bisect per run: validation finds each run's gap in ``_free``
        (a double free can only overlap its neighbours there), and the runs
        are then applied from the highest down.  Applying a run touches the
        list only from its left neighbour on, and merges into that
        neighbour only when no lower run shares its gap, so every lower
        run's index stays valid.
        """
        free = self._free
        n = len(free)
        total = self.total
        found: list[tuple[int, int, int]] = []
        end = freed = 0
        for lo, hi in sorted(runs):
            if not 0 <= lo < hi <= total:
                raise ValueError(f"release out of range: [{lo},{hi})")
            i = bisect.bisect_left(free, (lo, hi))
            if i > 0 and free[i - 1][1] > lo:
                raise ValueError(f"double free: [{lo},{hi}) overlaps {free[i - 1]}")
            if i < n and free[i][0] < hi:
                raise ValueError(f"double free: [{lo},{hi}) overlaps {free[i]}")
            if lo < end:
                raise ValueError(f"double free: [{lo},{hi}) given twice")
            end = hi
            freed += hi - lo
            found.append((i, lo, hi))
        self.free_slots += freed
        for i, lo, hi in reversed(found):
            if i > 0 and free[i - 1][1] == lo:
                i -= 1
                lo = free.pop(i)[0]
            if i < len(free) and free[i][0] == hi:
                hi = free.pop(i)[1]
            free.insert(i, (lo, hi))


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
        "_on_timer",
        "_timer_seq",
        "fin_entry",
        "wide_seq",
        "narrow_seq",
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
        #: the analytic executor's one owner-held simulator timer: the
        #: finish while running, the commit while reconfiguring.
        self._on_timer = None
        self._timer_seq = -1
        #: this job's ``(t, seq, job)`` entry in the scheduler's finish
        #: index while it runs or reconfigures, else None.
        self.fin_entry: Optional[tuple] = None
        #: when it last joined the wide / narrow candidate set.
        self.wide_seq = -1
        self.narrow_seq = -1
        self.alloc_since = 0.0
        #: allocated core-seconds accumulated so far.
        self.busy = 0.0


class _CandidateSet:
    """Running malleable jobs that may resize one way, in first-insertion
    order: ``members`` (name -> job) and, in the same order, the ``ready``
    ones.  A job takes a fresh sequence number (``seq_attr``) each time it
    joins, so one that leaves and rejoins goes to the end, as a dict
    re-insertion would; ``ready`` is kept sorted on that number."""

    __slots__ = ("members", "ready", "_seq_attr", "_seq_of", "_seqs")

    def __init__(self, seq_attr: str):
        self.members: dict[str, _TraceJob] = {}
        self.ready: list[_TraceJob] = []
        self._seq_attr = seq_attr
        self._seq_of = attrgetter(seq_attr)
        self._seqs = itertools.count()

    def update(self, job: _TraceJob, member: bool) -> None:
        """Make ``job`` a member or not, with its ``ready`` entry following
        ``job.ready``."""
        name = job.spec.name
        ready = self.ready
        if name not in self.members:
            if member:
                self.members[name] = job
                setattr(job, self._seq_attr, next(self._seqs))
                if job.ready:
                    ready.append(job)  # the newest member sorts last
            return
        if not member:
            del self.members[name]
        i = bisect.bisect_left(ready, self._seq_of(job), key=self._seq_of)
        listed = i < len(ready) and ready[i] is job
        keep = member and job.ready
        if listed and not keep:
            del ready[i]
        elif keep and not listed:
            ready.insert(i, job)


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

    **Callback-driven main loop.**  All trace arrivals enter the event heap
    in one :meth:`~repro.simulate.core.Simulator.schedule_batch` call.  The
    RMS is no process: every arrival / completion / commit callback arms at
    most one *pass* per timestamp (an owner-held simulator timer, so
    same-time events coalesce into one pass), and each pass drains its
    event buffers in batch before consulting the policy.  A trace that can
    never finish ends :meth:`run` in a :class:`DeadlockError`.  With a fixed
    trace and policy the run is fully deterministic — byte-identical
    summaries across repeats and hosts (see ``docs/rmsim.md``).

    **Cost of a pass** is O(its events + the jobs that can act): the free
    count is pool state, jobs hold slot *runs*, the FIFO-family resize loops
    and the malleable donor list read ordered ready-sets (the ``ready``
    members of the candidate sets, in first-insertion order), and an EASY
    reservation walks a live finish index, one entry per running job, from
    the soonest finish only as far as the head needs.  See "Cost of a pass"
    in ``docs/rmsim.md``.

    The policy object (see :mod:`repro.rmsim.policies`) decides queue
    order, starts, and resizes through this class's verbs: :meth:`start`,
    :meth:`request_resize`, :meth:`reservation_for`, :meth:`resize_cost`.
    The analytic projections (``proj_finish``, the finish index) are kept
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
        #: width — the policies' resize candidate sets, each with its ready
        #: members in the same order.  Kept incrementally, one update per
        #: state change, so a pass pays only for the jobs that can act.
        #: Insertion order is who is offered slots first.
        self._wide = _CandidateSet("wide_seq")
        self._narrow = _CandidateSet("narrow_seq")
        self._arrival_ptr = 0
        self._finished_buf: list[_TraceJob] = []
        self._commit_buf: list[_TraceJob] = []
        #: the live finish index for EASY reservations: one ``(t, seq, job)``
        #: per running or reconfiguring job, sorted; ``t`` is the projected
        #: finish when the job started or last posted a resize.
        self._fin: list[tuple[float, int, _TraceJob]] = []
        self._fin_seq = itertools.count()
        self._started = False
        #: a pass is pending (or the trace is done); the pass is this
        #: object's owner-held simulator timer (``_on_timer``).
        self._woke = False
        self._timer_seq = -1
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
        if self._started:
            raise RuntimeError("run() may only be called once")
        self._started = True
        self._woke = True
        self.sim.set_timer(self, 0.0)
        start = self.sim.now
        # The batch-wakeup lane: all trace arrivals enter the heap in one
        # O(N + K) heapify instead of K pushes.  Arrivals at the start
        # instant need no wake: the opening pass admits them.
        self.sim.schedule_batch(
            (spec.arrival_time, self._wake)
            for spec in self.jobs
            if spec.arrival_time != start
        )
        self.sim.run()
        if self._done < len(self.jobs):
            # Nothing is left to wake a pass (say, a policy that never
            # starts the head): the RMS is blocked for good.
            unfinished = [
                name
                for name, j in self._tjobs.items()
                if j.record.finished_at is None
            ]
            raise DeadlockError(
                [f"rms ({len(unfinished)} jobs never finished: {unfinished[:5]})"]
            )
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

    # ------------------------------------------------------------ main loop
    def _on_timer(self) -> None:
        """The RMS main loop body, one simulator callback per wake-up:
        drain the event buffers, consult the policy."""
        self._woke = False
        self._pass()
        if self._done >= len(self.jobs):
            self._woke = True  # the trace is done: later wakes are no-ops

    def _wake(self) -> None:
        # Coalesce same-timestamp callbacks into one pass: the first one
        # queues the pass behind the events already due now, the rest just
        # land in the event buffers.
        if not self._woke:
            self._woke = True
            self.sim.set_timer(self, 0.0)

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
        self.policy.resize(self)
        m = self._m
        if m is not None:
            if arrived:
                m["arrived"].inc(arrived)
            m["queue_depth"].set(float(len(self.queue)), t=now)
            m["free_slots"].set(float(self.pool.free_slots), t=now)

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
        self._sync_sets(job)
        finish = now + job.rem_iters * job.it_time
        job.proj_finish = finish
        self._index_finish(job, finish)
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

    def _on_job_timer(self, job: _TraceJob) -> None:
        """The analytic executor's job timer fired: a reconfiguring job
        commits, a running one finishes."""
        if job.state == _RECONF:
            self._on_commit(job)
        else:
            self._on_finish(job)

    def _finish(self, job: _TraceJob, now: float) -> None:
        self._account(job, now)
        job.state = _DONE
        job.ready = False
        job._on_timer = None  # job -> callback -> scheduler is a cycle
        fin = self._fin
        del fin[bisect.bisect_left(fin, job.fin_entry)]
        job.fin_entry = None
        self.pool.release_runs(job.slots)
        job.slots = []
        job.pool_procs = 0
        rec = job.record
        rec.finished_at = now
        del self.running[job.spec.name]
        self._sync_sets(job)
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
        if self._rem_iters_at(job, self.sim.now) > DecisionBoard.SAFETY_MARGIN + 3:
            return True
        job.ready = False
        self._sync_sets(job)
        return False

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

    def ready_to_shrink(self) -> list[_TraceJob]:
        """Running malleable jobs above their minimum width that can post a
        resize (``ready``), in first-insertion order (deterministic, since
        the event order is)."""
        return list(self._wide.ready)

    def ready_to_grow(self) -> list[_TraceJob]:
        """Running malleable jobs below their maximum width that can post a
        resize, in first-insertion order."""
        return list(self._narrow.ready)

    def grow_candidates(self) -> list[_TraceJob]:
        """Running malleable jobs below their maximum width, ready or not,
        in first-insertion order."""
        return list(self._narrow.members.values())

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
        self._index_finish(job, job.proj_finish)
        self._sync_sets(job)
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
        self._sync_sets(job)
        self.n_events += 1

    # -------------------------------------------------------- executor hooks
    def _launch(self, job: _TraceJob, finish: float) -> None:
        """Run a job that just started; ``finish`` is its projected end.
        Analytic: the job's timer, armed for the finish."""
        job._on_timer = partial(self._on_job_timer, job)
        self.sim.set_timer(job, finish - self.sim.now)

    def _post_resize(self, job: _TraceJob, target: int, t_commit: float) -> None:
        """Execute a resize decision (progress is already frozen).
        Analytic: the job's timer is re-armed for the priced ``t_commit``,
        which voids the finish."""
        self.sim.set_timer(job, t_commit - self.sim.now)

    def _retime(self, job: _TraceJob, finish: float) -> None:
        """A resize committed; the job now ends at ``finish``.  Analytic:
        the job's timer, re-armed for the finish."""
        self.sim.set_timer(job, finish - self.sim.now)

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

    def _sync_sets(self, job: _TraceJob) -> None:
        """Bring the job's candidate-set and ready-set entries in line with
        its state, width and ``ready`` flag (one call per state change)."""
        spec = job.spec
        lo, hi = spec.min_procs, spec.max_procs
        if lo < hi:  # malleable
            live = job.state != _DONE
            self._wide.update(job, live and job.pool_procs > lo)
            self._narrow.update(job, live and job.pool_procs < hi)

    def _index_finish(self, job: _TraceJob, t: float) -> None:
        """(Re-)key the job's one finish-index entry at ``t``; a later key
        of the same ``t`` sorts after the earlier ones (``seq``)."""
        fin = self._fin
        if job.fin_entry is not None:
            del fin[bisect.bisect_left(fin, job.fin_entry)]
        job.fin_entry = (t, next(self._fin_seq), job)
        bisect.insort(fin, job.fin_entry)

    def reservation_for(self, width: int) -> tuple[float, int]:
        """EASY reservation for the queue head: the *shadow time* when
        ``width`` slots are projected to be free, and the *extra* slots
        beyond the head's need at that moment.  Backfilled jobs must fit
        in the extra slots or finish before the shadow time."""
        free = self.pool.free_slots
        if free >= width:
            return (self.sim.now, free - width)
        for t, _seq, job in self._fin:
            free += job.pool_procs
            if free >= width:
                return (t, free - width)
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
                board.decisions if board is not None else [],  # read live
                stats,
                RedistributionPlan.block,
                ids.__getitem__,         # slot_of reads the live id list
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
        # The commit lands at the engine's instant, not the priced one:
        # re-key the finish index on the projection made from it.
        self._index_finish(job, finish)
        # A shrink's retired ranks held the tail ids (Merge keeps the low ones).
        del self._engine[job.spec.name][2][job.pool_procs:]

    def _rem_iters_at(self, job: _TraceJob, now: float) -> float:
        stats = self._engine[job.spec.name][0]
        return job.spec.iterations - (stats.latest_checked_iteration + 1)
