"""A malleability-aware slot scheduler (the paper's future-work §5 study:
"how malleability affects the real makespan of a system").

Model: the cluster's cores form a linear slot space; every job owns one
contiguous block.  First-fit placement; a FIFO queue.  Malleability policy:

* **shrink** — while jobs wait in the queue, running malleable jobs are
  asked to shrink to their minimum (the Merge method keeps the surviving
  ranks in the low slots, so the block's tail frees);
* **expand** — when the queue is empty and the slots adjacent to a
  malleable job's block are free, the job grows toward its maximum.

Decisions are posted on each job's :class:`~repro.rmsim.board.DecisionBoard`
and executed by the ordinary malleability engine — reconfigurations cost
what the paper says they cost, which is the whole point of the experiment.

The scheduler runs as a simulated daemon process, ticking at a fixed
period like a real RMS main loop.
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
from ..simulate.core import Simulator
from ..simulate.primitives import Passivate, Timeout
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
    runs; the id-list methods adapt them for the engine lane, which needs
    explicit slot ids.  Every mutator validates before it mutates: a
    rejected call leaves the pool exactly as it was.
    """

    def __init__(self, total: int):
        if total < 1:
            raise ValueError("pool needs >= 1 slot")
        self.total = total
        #: sorted list of free [lo, hi) ranges.
        self._free: list[tuple[int, int]] = [(0, total)]
        #: == sum(hi - lo for lo, hi in _free); read-only for callers.
        self.free_slots = total

    def allocate(self, k: int) -> Optional[int]:
        """First-fit contiguous block: returns its base, or None."""
        if k < 1:
            raise ValueError("allocation must be >= 1 slot")
        for i, (lo, hi) in enumerate(self._free):
            if hi - lo >= k:
                self._take(i, k)
                return lo
        return None

    def _take(self, i: int, k: int) -> None:
        """Claim the first ``k`` slots of free range ``i`` (k <= its size)."""
        lo, hi = self._free[i]
        if hi - lo == k:
            del self._free[i]
        else:
            self._free[i] = (lo + k, hi)
        self.free_slots -= k

    def extension_room(self, base: int, current: int) -> int:
        """Free slots contiguously to the right of [base, base+current)."""
        start = base + current
        i = bisect.bisect_left(self._free, (start,))
        if i < len(self._free) and self._free[i][0] == start:
            return self._free[i][1] - start
        return 0

    def claim_extension(self, base: int, current: int, extra: int) -> None:
        room = self.extension_room(base, current)
        if not 0 < extra <= room:
            raise ValueError(f"cannot extend by {extra}: only {room} free")
        self._take(bisect.bisect_left(self._free, (base + current,)), extra)

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

    def release(self, base: int, k: int) -> None:
        """Free the block [base, base+k)."""
        if k:
            self.release_runs([(base, base + k)])

    def allocate_scattered(self, k: int) -> Optional[list[int]]:
        """:meth:`allocate_runs` as a slot-id list (the engine lane's
        expansion path: the malleability engine takes arbitrary slots)."""
        runs = self.allocate_runs(k)
        if runs is None:
            return None
        return [slot for lo, hi in runs for slot in range(lo, hi)]

    def release_slots(self, slots: Sequence[int]) -> None:
        """:meth:`release_runs` for an arbitrary slot-id list; a duplicate
        id is rejected (merging it would leak the double-counted slot)."""
        runs: list[tuple[int, int]] = []
        for slot in sorted(slots):
            if runs and slot == runs[-1][1]:
                runs[-1] = (runs[-1][0], slot + 1)
            elif runs and slot < runs[-1][1]:
                raise ValueError(f"duplicate slot id {slot} in release_slots")
            else:
                runs.append((slot, slot + 1))
        self.release_runs(runs)

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
    #: allocated core-seconds summed over all jobs.
    busy_coreseconds: float = 0.0
    #: scheduler events processed (arrivals/starts/completions/decisions).
    n_events: int = 0
    #: scheduling policy that produced the run.
    policy: str = ""
    #: (time, free_slots_before -> after) resize commits, per direction.
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


class _RunningJob:
    def __init__(self, record: JobRecord, stats: RunStats,
                 board: Optional[DecisionBoard], slots: list[int]):
        self.record = record
        self.stats = stats
        self.board = board
        self.finished = False
        #: machine slots owned by the job, indexed by job-internal slot id.
        #: The malleability engine reads it through the slot_of closure, so
        #: appending here makes future spawns land on the new slots.
        self.slots = slots
        #: sizes already accounted into the slot pool.
        self.pool_procs = record.procs
        #: completed reconfigurations already processed by the scheduler.
        self.processed_reconfigs = 0


class MalleableScheduler:
    """Drives a workload of jobs over one machine; see module docstring."""

    def __init__(
        self,
        machine: Machine,
        jobs: Sequence[JobSpec],
        spawn_model: Optional[SpawnModel] = None,
        tick: float = 0.02,
        enable_malleability: bool = True,
    ):
        names = [j.name for j in jobs]
        if len(set(names)) != len(names):
            raise ValueError("job names must be unique")
        self.machine = machine
        self.sim = machine.sim
        # Total order: (arrival_time, name).  Sorting by arrival_time alone
        # left identical-arrival traces at the mercy of the caller's list
        # order, so the same trace could schedule differently across runs
        # and hosts.  Names are unique (checked above), so this ordering is
        # deterministic for any input permutation.
        self.jobs = sorted(jobs, key=arrival_order)
        self.spawn_model = spawn_model or SpawnModel(
            base=0.02, per_process=0.002, per_node=0.005
        )
        self.tick = tick
        self.enable_malleability = enable_malleability
        self.pool = SlotPool(machine.total_cores)
        self.queue: list[JobSpec] = []
        self.running: dict[str, _RunningJob] = {}
        self.records: dict[str, JobRecord] = {
            j.name: JobRecord(spec=j) for j in jobs
        }
        self._arrival_ptr = 0
        self._done = 0

    # ------------------------------------------------------------------ run
    def run(self) -> ScheduleResult:
        """Execute the whole workload; returns the schedule metrics."""
        self.sim.spawn(self._daemon(), name="rms-daemon")
        self.sim.run()
        finished = [r.finished_at for r in self.records.values()]
        if any(f is None for f in finished):
            unfinished = [n for n, r in self.records.items() if r.finished_at is None]
            raise RuntimeError(f"jobs never finished: {unfinished}")
        makespan = max(finished) if finished else 0.0
        busy = sum(n.busy_coreseconds for n in self.machine.nodes)
        utilization = busy / (makespan * self.machine.total_cores) if makespan else 0.0
        return ScheduleResult(
            records=dict(self.records),
            makespan=makespan,
            utilization=utilization,
            total_slots=self.machine.total_cores,
            busy_coreseconds=busy,
            policy="fifo-tick",
        )

    def _daemon(self):
        """The RMS main loop."""
        while self._done < len(self.jobs):
            self._admit_arrivals()
            self._collect_completions()
            self._sync_shrunk_blocks()
            self._try_start_queued()
            if self.enable_malleability:
                self._policy_shrink()
                self._policy_expand()
            yield Timeout(self.tick)
        return "rms-done"

    # ------------------------------------------------------------ lifecycle
    def _admit_arrivals(self) -> None:
        now = self.sim.now
        jobs, ptr = self.jobs, self._arrival_ptr
        while ptr < len(jobs) and jobs[ptr].arrival_time <= now:
            ptr += 1
        self.queue.extend(jobs[self._arrival_ptr:ptr])
        self._arrival_ptr = ptr

    def _try_start_queued(self) -> None:
        # FIFO with no backfilling: the head blocks the queue (keeps the
        # malleability effect easy to read in the results).
        started = 0
        while started < len(self.queue) and self._try_start(self.queue[started]):
            started += 1
        del self.queue[:started]

    def _try_start(self, spec: JobSpec) -> bool:
        # Prefer the largest size that fits right now.
        for p in range(spec.max_procs, spec.min_procs - 1, -1):
            base = self.pool.allocate(p)
            if base is not None:
                self._launch(spec, base, p)
                return True
        return False

    def _launch(self, spec: JobSpec, base: int, procs: int) -> None:
        record = self.records[spec.name]
        record.started_at = self.sim.now
        record.base = base
        record.procs = procs
        record.size_history.append((self.sim.now, procs))
        stats = RunStats()
        stats.finished_event = self.sim.event(name=f"job-done:{spec.name}")
        board = DecisionBoard(stats) if spec.malleable else None
        world = MpiWorld(self.machine, spawn_model=self.spawn_model)
        app = SyntheticApp(spec.synthetic_config())
        from ..redistribution.plan import RedistributionPlan

        rms_factory = (lambda b=board: DynamicRMS(b)) if board is not None else None
        slots = [base + i for i in range(procs)]
        rj = _RunningJob(record, stats, board, slots)
        world.launch(
            run_malleable,
            slots=list(slots),
            args=(
                app,
                spec.config,
                [],                            # no scripted requests ...
                stats,
                RedistributionPlan.block,
                (lambda i, s=rj.slots: s[i]),  # slot_of: the job's slot list
                rms_factory,                   # ... decisions come from the board
            ),
            name_prefix=f"job-{spec.name}",
        )
        self.running[spec.name] = rj

    def _collect_completions(self) -> None:
        for name, rj in list(self.running.items()):
            if rj.finished:
                continue
            if rj.stats.finished_at is not None:
                rj.finished = True
                self._done += 1
                rj.record.finished_at = rj.stats.finished_at
                self.pool.release_slots(rj.slots[: rj.pool_procs])
                del self.running[name]

    def _sync_shrunk_blocks(self) -> None:
        """Process newly completed reconfigurations, exactly once each.

        At most one decision is ever in flight (the policies check
        ``board.pending``) and this sync runs before the policies in every
        tick, so when a *shrink* record completes the job's slot list still
        has its pre-shrink length — the invariant the truncation relies on.
        """
        for rj in self.running.values():
            completed = [
                r for r in rj.stats.reconfigs if r.data_complete_at is not None
            ]
            for rec in completed[rj.processed_reconfigs:]:
                new = rec.n_targets
                if new < len(rj.slots):  # a shrink finished: free the tail
                    self.pool.release_slots(rj.slots[new:])
                    del rj.slots[new:]
                    rj.pool_procs = new
                rj.record.procs = new
                rj.record.size_history.append((self.sim.now, new))
            rj.processed_reconfigs = len(completed)

    # ---------------------------------------------------------------- policy
    def _policy_shrink(self) -> None:
        if not self.queue:
            return
        for rj in self.running.values():
            spec = rj.record.spec
            if rj.board is None or rj.board.pending:
                continue
            if rj.pool_procs > spec.min_procs and self._worth_reconfiguring(rj):
                rj.board.post(spec.min_procs)

    def _policy_expand(self) -> None:
        if self.queue:
            return
        for rj in self.running.values():
            spec = rj.record.spec
            if rj.board is None or rj.board.pending:
                continue
            if rj.pool_procs >= spec.max_procs or not self._worth_reconfiguring(rj):
                continue
            extra = min(spec.max_procs - rj.pool_procs, self.pool.free_slots)
            if extra <= 0:
                continue
            new_slots = self.pool.allocate_scattered(extra)
            req = rj.board.post(rj.pool_procs + extra)
            if req is None:  # board busy after all: give the slots back
                self.pool.release_slots(new_slots)
                continue
            rj.slots.extend(new_slots)
            rj.pool_procs += extra  # slots are committed immediately

    def _worth_reconfiguring(self, rj: _RunningJob) -> bool:
        """Don't reconfigure jobs about to finish (the decision could not
        even fire safely before the last iteration)."""
        spec = rj.record.spec
        remaining = spec.iterations - (rj.stats.latest_checked_iteration + 1)
        return remaining > DecisionBoard.SAFETY_MARGIN + 3


# ---------------------------------------------------------------------------
# Trace-driven datacenter lane
# ---------------------------------------------------------------------------

#: lifecycle states of a job inside :class:`TraceScheduler`.
_QUEUED, _RUNNING, _RECONF, _DONE = 0, 1, 2, 3
_QUEUE_KEY = attrgetter("queue_key")


class _TraceJob:
    """Mutable per-job state of the analytic lane (progress, slots, busy)."""

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
    """Datacenter-scale trace lane: 10^3 nodes / 10^4 jobs in seconds.

    The full-fidelity :class:`MalleableScheduler` runs every rank of every
    job through the simulated MPI machinery — perfect for tens of jobs,
    hopeless for a datacenter trace.  This lane keeps the *scheduling*
    physics and replaces per-rank execution with the analytic model:

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
        self._staged.append((finish, lambda j=job: self._on_finish(j)))
        self._staged_jobs.append(job)
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
        remainder — the same guard the full-fidelity scheduler applies."""
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
        """Post a resize decision: the job runs its safety-margin
        iterations at the old width, stalls for the predicted
        reconfiguration cost, then resumes at ``target``.

        A grow claims its new slots *now* (they are committed to the job
        and billed from this moment, exactly like the full engine); a
        shrink frees its tail only when the redistribution commits.
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
        if job.finish_handle is not None:
            job.finish_handle.cancelled = True
            job.finish_handle = None
        job.proj_finish = t_commit + job.rem_iters * spec.iteration_time(target)
        job.fin_epoch += 1
        heapq.heappush(
            self._fin_heap,
            (job.proj_finish, next(self._fin_seq), job, job.fin_epoch),
        )
        self._update_width_sets(job)
        self.sim.schedule_at(t_commit, lambda j=job: self._on_commit(j))
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
        self._staged.append((finish, lambda j=job: self._on_finish(j)))
        self._staged_jobs.append(job)
        rec = job.record
        rec.procs = target
        rec.size_history.append((now, target))
        self._update_width_sets(job)
        self.n_events += 1

    # -------------------------------------------------------------- internal
    def _rem_iters_at(self, job: _TraceJob, now: float) -> float:
        """Iterations left at ``now`` (frozen during a reconfiguration:
        ``synced_at`` then lies in the future, at the commit time)."""
        if job.state == _RUNNING and now > job.synced_at:
            return job.rem_iters - (now - job.synced_at) / job.it_time
        return job.rem_iters

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
