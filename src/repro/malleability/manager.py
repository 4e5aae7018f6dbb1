"""The malleability engine: Stages 1-4 for all eighteen configurations.

One :class:`GroupRunner` per rank drives the application loop with the
paper's checkpoint protocol embedded (Algorithms 3 and 4):

* **Stage 1** (resource reallocation) is the scripted RMS decision;
* **Stage 2** (process management) spawns/merges per the Baseline or Merge
  method — blocking (S), non-blocking handles (A) or inside the auxiliary
  thread (T);
* **Stage 3** (data redistribution) runs the P2P/COL/RMA session: constant
  fields may overlap the application (A/T); variable fields always move
  synchronously once the sources stop (§3.2);
* **Stage 4** (resuming) hands the new group its communicator, dataset and
  resume iteration.

The async stop protocol: a source may only leave the loop when *every*
source finished its redistribution, because per-iteration collectives would
otherwise hang.  Sources agree with a one-scalar allreduce per checkpoint
(the kind of reduction iterative solvers perform anyway).  A source whose
iterations ran out has no checkpoint left and nothing to overlap with: it
blocks until its own part is done (T sleeps in the thread join, A polls in
the spawn/merge wait and the session's ``finish()``) and then agrees once.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional, Protocol

from ..faults.policy import RecoveryPolicy
from ..redistribution.api import Strategy, make_session
from ..redistribution.blockdist import block_range
from ..redistribution.plan import RedistributionPlan
from ..redistribution.stores import Dataset, FieldSpec
from ..smpi.collectives import op_min
from ..smpi.errors import CommFailedError
from .config import ReconfigConfig, SpawnMethod
from .rms import ReconfigRequest, ScriptedRMS
from .stats import ReconfigRecord, RunStats

__all__ = ["MalleableApp", "GroupRunner", "run_malleable", "RankOutcome"]


class MalleableApp(Protocol):
    """What the manager needs from an application."""

    #: total iterations the job must complete (across all groups).
    n_iterations: int
    #: global row count of the distributed data.
    n_rows: int
    #: the distributed objects (constant/variable split drives overlap).
    specs: tuple[FieldSpec, ...]

    def initial_data(self, lo: int, hi: int) -> dict[str, Any]:
        """Initial blocks for a first-group rank owning rows [lo, hi)."""
        ...

    def iterate(self, mpi, comm, dataset: Dataset, iteration: int):
        """Generator: execute one iteration on the current group."""
        ...

    def on_handoff(self, mpi, dataset: Dataset) -> None:
        """Hook after a rank receives its post-reconfiguration dataset."""
        ...


class RankOutcome(enum.Enum):
    """How a rank's participation ended."""

    COMPLETED = "completed"      # member of the final group, ran to the end
    RETIRED = "retired"          # source that handed off and exited


class _Phase(enum.Enum):
    IDLE = "idle"
    SPAWN_WAIT = "spawn-wait"
    MERGE_WAIT = "merge-wait"
    REDIST = "redist"
    THREAD_WAIT = "thread-wait"


class GroupRunner:
    """Drives one rank of the currently active group."""

    def __init__(
        self,
        mpi,
        app: MalleableApp,
        config: ReconfigConfig,
        rms: ScriptedRMS,
        stats: RunStats,
        comm,
        dataset: Dataset,
        start_iter: int = 0,
        group_index: int = 0,
        plan_factory: Callable[[int, int, int], RedistributionPlan] = RedistributionPlan.block,
        slot_of: Callable[[int], int] = lambda i: i,
        recovery: Optional[RecoveryPolicy] = None,
    ):
        self.mpi = mpi
        self.app = app
        self.config = config
        self.rms = rms
        self.stats = stats
        self.comm = comm
        self.dataset = dataset
        self.it = start_iter
        #: the group's entry iteration — the in-run checkpoint the
        #: checkpoint/restart fallback resumes from.
        self.start_iter = start_iter
        self.group_index = group_index
        self.plan_factory = plan_factory
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        #: maps a job-internal slot index to a machine slot — identity for
        #: single-job worlds; a base offset in multi-job RMS simulations.
        self.slot_of = slot_of
        self._phase = _Phase.IDLE
        # per-reconfiguration scratch:
        self._req: Optional[ReconfigRequest] = None
        self._plan: Optional[RedistributionPlan] = None
        self._spawn_handle = None
        self._merge_handle = None
        self._inter = None
        self._merged = None
        self._session = None
        self._thread = None
        self._record: Optional[ReconfigRecord] = None
        self._dst_dataset: Optional[Dataset] = None
        #: failure observed during an overlapped (A/T) reconfiguration.
        self._overlap_error: Optional[CommFailedError] = None

    # ------------------------------------------------------------- utilities
    @property
    def rank(self) -> int:
        return self.comm.rank_of_gid(self.mpi.gid)

    def _fault_mode(self) -> bool:
        """Is a fault schedule attached to this run?  The fault-tolerant
        agreement/retry machinery is gated on this so fault-free runs are
        byte-identical to the pre-fault-layer engine."""
        return getattr(self.mpi.world, "fault_injector", None) is not None

    def _const_names(self) -> list[str]:
        return self.dataset.field_names(constant=True)

    def _var_names(self) -> list[str]:
        return self.dataset.field_names(constant=False)

    def _ensure_record(self) -> ReconfigRecord:
        while len(self.stats.reconfigs) <= self.group_index:
            self.stats.reconfigs.append(
                ReconfigRecord(
                    n_sources=self.comm.size,
                    n_targets=self._req.n_targets,
                    requested_iteration=self._req.at_iteration,
                )
            )
        return self.stats.reconfigs[self.group_index]

    def _make_target_dataset(self, plan: RedistributionPlan, t: int) -> Dataset:
        lo, hi = plan.dst_range(t)
        return Dataset.create(self.app.n_rows, tuple(self.dataset.specs), lo, hi)

    def _session_for(self, comm, names, dst_dataset=None) -> Any:
        """Build this source rank's Stage-3 session on ``comm``."""
        ns, nt = self._plan.n_sources, self._plan.n_targets
        is_merge = self.config.spawn is SpawnMethod.MERGE
        src_rank = self.rank
        dst_rank = self.rank if (is_merge and self.rank < nt) else None
        return make_session(
            self.config.redist,
            self.mpi,
            comm,
            self._plan,
            names=names,
            src_rank=src_rank,
            dst_rank=dst_rank,
            src_dataset=self.dataset,
            dst_dataset=dst_dataset,
            label=f"reconf{self.group_index}",
        )

    # ------------------------------------------------------------- main loop
    def run(self):
        """The malleable application loop (Algorithm 3/4 shape)."""
        mpi = self.mpi
        if self.group_index == 0 and self.rank == 0:
            self.stats.started_at = mpi.now
        while self.it < self.app.n_iterations:
            # ---- begin malleability code -------------------------------
            if self.it > self.stats.latest_checked_iteration:
                self.stats.latest_checked_iteration = self.it
            if self._phase is _Phase.IDLE:
                req = self.rms.check(self.it)
                if req is not None:
                    try:
                        outcome = yield from self._begin_reconfig(req)
                    except CommFailedError as e:
                        if not self._fault_mode():
                            raise
                        outcome = yield from self._degrade_to_cr(
                            e, self._ensure_record()
                        )
                    if outcome is RankOutcome.RETIRED:
                        return RankOutcome.RETIRED
                    # For strategy S, _begin_reconfig completed the handoff
                    # inline and we continue as a member of the new group.
            else:
                outcome = yield from self._overlap_checkpoint(drain=False)
                if outcome is RankOutcome.RETIRED:
                    return RankOutcome.RETIRED
            # ---- end malleability code ---------------------------------
            t0 = mpi.now
            yield from self.app.iterate(mpi, self.comm, self.dataset, self.it)
            if self.rank == 0:
                self.stats.iteration_times.append((self.it, mpi.now - t0))
                self.stats.iterations_by_group[self.group_index] = (
                    self.stats.iterations_by_group.get(self.group_index, 0) + 1
                )
            self.it += 1
        # The iteration budget ran out with a reconfiguration still in
        # flight: complete it, or the spawned processes would wait forever.
        # Algorithms 3/4 test once per iteration and none is left, so this is
        # no checkpoint loop — block to local completion, agree once.
        if self._phase is not _Phase.IDLE:
            outcome = yield from self._overlap_checkpoint(drain=True)
            if outcome is RankOutcome.RETIRED:
                return RankOutcome.RETIRED
        if self.rank == 0:
            self.stats.finished_at = mpi.now
            if self.stats.finished_event is not None:
                self.stats.finished_event.trigger(self.stats)
        mpi.finalize()
        return RankOutcome.COMPLETED

    # ----------------------------------------------------------- stage 2 + 3
    def _begin_reconfig(self, req: ReconfigRequest):
        """Checkpoint hit: start Stages 2+3 according to the strategy."""
        self._req = req
        ns, nt = self.comm.size, req.n_targets
        record = self._record = self._ensure_record()
        if record.decision_at is None:
            record.decision_at = self.mpi.now
        self._plan = self.plan_factory(self.app.n_rows, ns, nt)
        if record.plan_built_at is None:
            record.plan_built_at = self.mpi.now
        if record.spawn_started_at is None:
            record.spawn_started_at = self.mpi.now

        if self.config.strategy is Strategy.SYNC:
            if self._fault_mode():
                outcome = yield from self._ft_sync_reconfig()
            else:
                outcome = yield from self._sync_reconfig()
            return outcome
        if self.config.strategy is Strategy.ASYNC_NONBLOCKING:
            yield from self._begin_async()
            return None
        yield from self._begin_thread()
        return None

    # .................................................... synchronous path S
    def _sync_reconfig(self):
        yield from self._sync_stage23()
        outcome = yield from self._handoff(stopped_at=self.it)
        return outcome

    def _sync_stage23(self):
        """Blocking Stage 2 + Stage 3 (first data wave); Stage 4 is left to
        :meth:`_handoff` so the fault-tolerant ladder can interpose its
        agreement between the data movement and the commit."""
        ns, nt = self._plan.n_sources, self._plan.n_targets
        record = self._record = self._ensure_record()
        # Under A/T configs the recovery ladder replays the overlapped shape
        # synchronously: the first wave moves the constant fields (what the
        # targets expect), the variable fields follow in _handoff.
        is_async = self.config.strategy is not Strategy.SYNC
        names = (
            (self._const_names() or self.dataset.field_names())
            if is_async
            else self.dataset.field_names()
        )
        if self.config.spawn is SpawnMethod.BASELINE:
            inter = yield from self.mpi.comm_spawn(
                _target_entry, slots=self._spawn_slots(range(nt)),
                comm=self.comm, args=self._child_args(),
            )
            self._inter = inter
            record.spawn_finished_at = self.mpi.now
            record.redist_started_at = self.mpi.now
            session = self._session_for(inter, names=names)
        else:  # Merge method
            merged = yield from self._merge_stage2_blocking()
            self._merged = merged
            record.spawn_finished_at = self.mpi.now
            record.redist_started_at = self.mpi.now
            self._dst_dataset = dst_dataset = (
                self._make_target_dataset(self._plan, self.rank)
                if self.rank < nt
                else None
            )
            session = self._session_for(merged, names=names, dst_dataset=dst_dataset)
        self._session = session
        if self.config.strategy is Strategy.ASYNC_NONBLOCKING:
            # A-config targets post the non-blocking collectives (see
            # _target_entry); COL's blocking pair is another wire schedule.
            yield from session.start()
            yield from session.finish()
        else:
            yield from session.run_blocking()

    def _merge_stage2_blocking(self):
        ns, nt = self._plan.n_sources, self._plan.n_targets
        if nt > ns:
            inter = yield from self.mpi.comm_spawn(
                _target_entry, slots=self._spawn_slots(range(ns, nt)),
                comm=self.comm, args=self._child_args(),
            )
            self._inter = inter
            merged = yield from self.mpi.merge_intercomm(inter, high=False)
            return merged
        # Shrink: no spawn — sources already hold ranks 0..NS-1.  Duplicate
        # the communicator so Stage-3 traffic cannot cross-match the
        # application's (paper §3.2).
        dup = yield from self.mpi.comm_dup(self.comm)
        return dup

    # ........................................ fault-tolerant ladder (faults)
    def _spawn_slots(self, indices) -> list[int]:
        """Slot placement that routes around failed nodes.

        Identical to :meth:`_slots` while every node is healthy (fault-free
        runs stay byte-identical); once a node has failed, the spawned group
        is placed on the first surviving slots instead."""
        slots = self._slots(indices)
        machine = self.mpi.machine
        if not any(machine.node_for_slot(s).failed for s in slots):
            return slots
        alive = [
            s for s in range(machine.total_cores)
            if not machine.node_for_slot(s).failed
        ]
        if len(alive) < len(slots):
            raise CommFailedError(
                f"cannot place {len(slots)} targets: only {len(alive)} "
                "slots survive"
            )
        return alive[: len(slots)]

    def _dead_newcomers(self) -> list[int]:
        """Gids of spawned targets that died after joining the new group.

        Rendezvous sends complete locally once the stream starts, so a
        target dying mid-transfer may not fail any *source* operation —
        every source would then commit a half-delivered dataset.  This
        explicit liveness check closes that window before the commit
        agreement."""
        if self._inter is None:
            return []
        dead = self.mpi.world.dead_gids
        return sorted(g for g in self._inter.remote_group if g in dead)

    def _abort_session_comms(self) -> None:
        """Abandon this attempt's session communicators (idempotent).

        :meth:`~repro.smpi.world.MpiWorld.abort_comm` completes every
        outstanding operation on them in error, so group members blocked
        inside the session's collectives fall out into their own recovery
        paths instead of waiting for a peer that already left."""
        world = self.mpi.world
        for c in (self._merged, self._inter):
            if c is not None:
                world.abort_comm(c)

    def _ft_sync_reconfig(self):
        """Synchronous reconfiguration under a fault schedule: run the
        escalation ladder from a clean slate."""
        record = self._ensure_record()
        outcome = yield from self._ft_ladder(record, attempt=0, last_err=None)
        return outcome

    def _ft_ladder(
        self,
        record: ReconfigRecord,
        attempt: int,
        last_err: Optional[CommFailedError],
    ):
        """The escalation ladder (docs/faults.md): bounded retries with
        backoff, then shrink-on-demand, then checkpoint/restart.

        Every attempt ends with a one-scalar agreement over the source
        communicator so all sources observe the same verdict — a source
        whose own Stage 2/3 failed still participates (vote 0) instead of
        leaving its peers hanging.  The agreement failing at all means a
        *source* died, which loses in-memory state: escalate straight to
        checkpoint/restart."""
        policy = self.recovery
        while True:
            if attempt > 0:
                if attempt > policy.max_retries:
                    outcome = yield from self._exhausted(last_err, record)
                    return outcome
                if self.rank == 0:
                    record.retries += 1
                # Model the RMS requeue latency of a respawn attempt.
                yield from self.mpi.sleep(policy.retry_backoff * attempt)
            err: Optional[CommFailedError] = None
            try:
                yield from self._sync_stage23()
            except CommFailedError as e:
                err = e
                # Unstick peers still blocked inside this attempt's session
                # before the vote: they fall out with their own failure and
                # participate in the agreement instead of hanging.
                self._abort_session_comms()
            if err is None:
                dead = self._dead_newcomers()
                if dead:
                    err = CommFailedError(
                        "targets died during redistribution", dead_gids=dead
                    )
                    self._abort_session_comms()
            try:
                agreed = yield from self.mpi.allreduce(
                    0 if err is not None else 1, op_min, comm=self.comm
                )
            except CommFailedError as e:
                outcome = yield from self._degrade_to_cr(e, record)
                return outcome
            if agreed:
                self._finish_recovery(record)
                try:
                    outcome = yield from self._handoff(stopped_at=self.it)
                except CommFailedError as e:
                    outcome = yield from self._degrade_to_cr(e, record)
                return outcome
            # At least one source failed Stage 2/3: tear down, escalate.
            last_err = err if err is not None else last_err
            yield from self._abort_attempt(err, record)
            attempt += 1

    def _exhausted(self, err, record: ReconfigRecord):
        """Retries are spent: shrink if allowed, else checkpoint/restart."""
        if self.recovery.allow_shrink:
            outcome = yield from self._shrink_fallback(record)
            return outcome
        outcome = yield from self._degrade_to_cr(err, record)
        return outcome

    def _abort_attempt(self, err, record: ReconfigRecord):
        """Tear down a half-built attempt so the next rung starts clean:
        mark the failure, excuse outstanding traffic on the attempt's
        communicators, kill my auxiliary thread, and (rank 0) terminate the
        surviving members of the half-spawned target group."""
        record.mark_first_failure(self.mpi.now)
        world = self.mpi.world
        for comm in (self._merged, self._inter):
            if comm is not None:
                world.abort_comm(comm)
        if self._thread is not None and not self._thread.finished:
            self.mpi.sim.kill_now(
                self._thread.proc,
                reason=f"reconf{self.group_index} attempt aborted",
            )
        if self.rank == 0 and self._inter is not None:
            doomed = [
                g for g in self._inter.remote_group
                if g not in world.dead_gids
            ]
            if doomed:
                world.terminate_ranks(
                    doomed,
                    reason=f"reconf{self.group_index} attempt aborted",
                )
        self._phase = _Phase.IDLE
        self._spawn_handle = None
        self._merge_handle = None
        self._inter = None
        self._merged = None
        self._session = None
        self._thread = None
        self._dst_dataset = None
        # Zero-cost yield keeps this a generator and lets the kernel settle
        # the synchronous kills before the next attempt begins.
        yield from self.mpi.sleep(0.0)

    def _stamp_recovery(self, record: ReconfigRecord, policy: str) -> None:
        """Idempotently stamp the winning rung and emit the obs metrics."""
        if record.recovery_policy is None:
            record.recovery_policy = policy
        if record.recovered_at is None:
            record.recovered_at = self.mpi.now
            m = self.mpi.world.metrics
            if m is not None:
                m.counter("recoveries", policy=record.recovery_policy).inc()
                if record.first_failure_at is not None:
                    m.timer("recovery_time").record(
                        record.first_failure_at,
                        self.mpi.now,
                        label=f"reconf{self.group_index}",
                    )

    def _finish_recovery(self, record: ReconfigRecord) -> None:
        if record.first_failure_at is None:
            return  # clean first attempt — nothing was recovered from
        self._stamp_recovery(record, "retry")

    def _shrink_fallback(self, record: ReconfigRecord):
        """Abandon the reconfiguration and keep running on the surviving
        source group: the data never left the sources, so nothing is lost
        (shrink-on-demand)."""
        self._stamp_recovery(record, "shrink")
        record.mark_data_complete(self.mpi.now)
        record.mark_commit_finished(self.mpi.now)
        self._reset_reconfig_state()
        return None
        yield  # pragma: no cover - generator for call-site symmetry

    def _recover_overlap(self):
        """An overlapped (A/T) reconfiguration failed locally on some source:
        abort the attempt and fall back to the synchronous ladder (the
        remaining attempts run without overlap)."""
        err = self._overlap_error
        self._overlap_error = None
        if not self._fault_mode():
            raise err if err is not None else CommFailedError(
                "overlapped reconfiguration failed"
            )
        record = self._ensure_record()
        yield from self._abort_attempt(err, record)
        outcome = yield from self._ft_ladder(record, attempt=1, last_err=err)
        return outcome

    def _degrade_to_cr(self, err, record: ReconfigRecord):
        """A source rank died (or recovery is otherwise impossible): the
        group's in-memory state is gone.  Terminate what is left of the job
        and relaunch it from the in-run checkpoint — the iteration this
        group started from — on surviving slots."""
        if not self.recovery.allow_checkpoint_restart:
            raise err if err is not None else CommFailedError(
                "reconfiguration failed and checkpoint/restart is disabled"
            )
        record.mark_first_failure(self.mpi.now)
        if record.recovery_policy is None:
            record.recovery_policy = "checkpoint_restart"
        world = self.mpi.world
        yield from self._abort_attempt(err, record)
        if not getattr(world, "_cr_scheduled", False):
            # First survivor to get here coordinates: every other surviving
            # rank of the job is terminated (they would otherwise block on
            # traffic that can never complete) and the relaunch is queued.
            world._cr_scheduled = True
            doomed = sorted(
                g for g in self.comm.group
                if g != self.mpi.gid and g not in world.dead_gids
            )
            if doomed:
                world.terminate_ranks(
                    doomed, reason="checkpoint/restart: job requeued"
                )
            self._schedule_restart(record)
        world.abort_comm(self.comm)
        self.mpi.finalize()
        self._reset_reconfig_state()
        return RankOutcome.RETIRED

    def _schedule_restart(self, record: ReconfigRecord) -> None:
        """Queue the checkpoint/restart relaunch after the RMS requeue and
        restart costs (same knobs as the on-disk C/R baseline)."""
        from .checkpoint_restart import CheckpointRestartConfig

        world = self.mpi.world
        machine = self.mpi.machine
        cr = CheckpointRestartConfig()
        app, config, stats = self.app, self.config, self.stats
        n_targets = (
            self._req.n_targets if self._req is not None else self.comm.size
        )
        group_index = self.group_index + 1
        rms_factory = self.rms.child_factory(group_index)
        plan_factory = self.plan_factory
        slot_of = self.slot_of
        start_iter = self.start_iter
        recovery = self.recovery

        def relaunch() -> None:
            alive = [
                s for s in range(machine.total_cores)
                if not machine.node_for_slot(s).failed
            ]
            n = min(n_targets, len(alive))
            if n == 0:  # pragma: no cover - the whole machine died
                return
            record.recovered_at = world.sim.now
            record.mark_data_complete(world.sim.now)
            record.mark_commit_finished(world.sim.now)
            m = world.metrics
            if m is not None:
                m.counter("recoveries", policy="checkpoint_restart").inc()
                if record.first_failure_at is not None:
                    m.timer("recovery_time").record(
                        record.first_failure_at,
                        world.sim.now,
                        label=f"reconf{group_index - 1}",
                    )
            world.launch(
                _restart_entry,
                alive[:n],
                args=(
                    app, config, rms_factory, group_index, stats,
                    plan_factory, slot_of, start_iter, recovery,
                ),
                name_prefix="restarted",
            )

        world.sim.schedule(cr.requeue_delay + cr.restart_cost, relaunch)

    # ................................................. non-blocking path (A)
    def _begin_async(self):
        ns, nt = self._plan.n_sources, self._plan.n_targets
        if self.config.spawn is SpawnMethod.BASELINE:
            self._spawn_handle = yield from self.mpi.comm_spawn_async(
                _target_entry, slots=self._spawn_slots(range(nt)),
                comm=self.comm, args=self._child_args(),
            )
            self._phase = _Phase.SPAWN_WAIT
        elif nt > ns:  # Merge expansion
            self._spawn_handle = yield from self.mpi.comm_spawn_async(
                _target_entry, slots=self._spawn_slots(range(ns, nt)),
                comm=self.comm, args=self._child_args(),
            )
            self._phase = _Phase.SPAWN_WAIT
        else:  # Merge shrink: redistribute over a duplicate communicator
            self._merged = yield from self.mpi.comm_dup(self.comm)
            yield from self._start_const_session(self._merged)
            self._phase = _Phase.REDIST

    def _advance_async(self, drain: bool):
        """Advance the A-strategy pipeline and return local completion of
        the constant-data redistribution: one non-blocking step per
        checkpoint, or — ``drain`` — every remaining step, blocking."""
        record = self._ensure_record()
        if self._phase is _Phase.SPAWN_WAIT:
            if drain:
                yield from self.mpi.wait_async(self._spawn_handle)
            if self._spawn_handle.failed:
                self._spawn_handle.result  # raises the stored failure
            if not self._spawn_handle.completed:
                return False
            self._inter = self._spawn_handle.result
            if record.spawn_finished_at is None:
                record.spawn_finished_at = self.mpi.now
            if self.config.spawn is SpawnMethod.BASELINE:
                yield from self._start_const_session(self._inter)
                self._phase = _Phase.REDIST
            else:
                self._merge_handle = yield from self.mpi.merge_intercomm_async(
                    self._inter, high=False
                )
                self._phase = _Phase.MERGE_WAIT
        if self._phase is _Phase.MERGE_WAIT:
            if drain:
                yield from self.mpi.wait_async(self._merge_handle)
            if self._merge_handle.failed:
                self._merge_handle.result  # raises the stored failure
            if not self._merge_handle.completed:
                return False
            self._merged = self._merge_handle.result
            yield from self._start_const_session(self._merged)
            self._phase = _Phase.REDIST
        if self._phase is _Phase.REDIST:
            if drain:
                if not self._session.finished:
                    yield from self._session.finish()
                return True
            done = yield from self._session.test()
            return done
        return False

    def _start_const_session(self, comm):
        record = self._ensure_record()
        if record.redist_started_at is None:
            record.redist_started_at = self.mpi.now
        nt = self._plan.n_targets
        names = self._const_names() or self.dataset.field_names()
        dst_dataset = None
        if self.config.spawn is SpawnMethod.MERGE and self.rank < nt:
            self._dst_dataset = dst_dataset = self._make_target_dataset(
                self._plan, self.rank
            )
        self._session = self._session_for(comm, names=names, dst_dataset=dst_dataset)
        yield from self._session.start()

    # .................................................... thread path (T)
    def _begin_thread(self):
        runner = self

        def stage23_thread(tmpi):
            """Auxiliary thread: blocking Stage 2 + constant-data Stage 3.

            A communication failure is *returned* (not raised) so the main
            flow reads the verdict at its next checkpoint and drives the
            recovery ladder itself — a dead auxiliary thread must never
            take the rank down with it."""
            try:
                if runner.config.spawn is SpawnMethod.BASELINE:
                    inter = yield from tmpi.comm_spawn(
                        _target_entry,
                        slots=runner._spawn_slots(range(runner._plan.n_targets)),
                        comm=runner.comm, args=runner._child_args(),
                    )
                    runner._inter = inter
                    comm = inter
                    dst_dataset = None
                else:
                    ns, nt = runner._plan.n_sources, runner._plan.n_targets
                    if nt > ns:
                        inter = yield from tmpi.comm_spawn(
                            _target_entry,
                            slots=runner._spawn_slots(range(ns, nt)),
                            comm=runner.comm, args=runner._child_args(),
                        )
                        runner._inter = inter
                        merged = yield from tmpi.merge_intercomm(inter, high=False)
                    else:
                        merged = yield from tmpi.comm_dup(runner.comm)
                    runner._merged = comm = merged
                    dst_dataset = None
                    if runner.rank < nt:
                        runner._dst_dataset = dst_dataset = (
                            runner._make_target_dataset(runner._plan, runner.rank)
                        )
                record = runner._ensure_record()
                if record.spawn_finished_at is None:
                    record.spawn_finished_at = tmpi.now
                if record.redist_started_at is None:
                    record.redist_started_at = tmpi.now
                names = runner._const_names() or runner.dataset.field_names()
                nt = runner._plan.n_targets
                session = make_session(
                    runner.config.redist, tmpi, comm, runner._plan,
                    names=names,
                    src_rank=runner.rank,
                    dst_rank=(
                        runner.rank
                        if runner.config.spawn is SpawnMethod.MERGE and runner.rank < nt
                        else None
                    ),
                    src_dataset=runner.dataset,
                    dst_dataset=dst_dataset,
                    label=f"reconf{runner.group_index}",
                )
                yield from session.run_blocking()
            except CommFailedError as e:
                return ("stage23-failed", e)
            return "stage23-done"

        self._thread = yield from self.mpi.spawn_thread(
            stage23_thread, name=f"auxthread.g{self.mpi.gid}"
        )
        self._phase = _Phase.THREAD_WAIT

    # ------------------------------------------------------- stop agreement
    def _overlap_checkpoint(self, drain: bool):
        """Poll the overlapped reconfiguration and act on the agreed
        verdict: keep iterating, hand off, or enter the recovery ladder.
        A failure is handled alike whether a test at a checkpoint or a
        blocked wait of the drain observed it."""
        try:
            verdict = yield from self._poll_reconfig(drain)
            if verdict == "done":
                outcome = yield from self._complete_reconfig()
                return outcome
        except CommFailedError as e:
            # The agreement or the handoff failed: a fellow source died.
            if not self._fault_mode():
                raise
            outcome = yield from self._degrade_to_cr(e, self._ensure_record())
            return outcome
        if verdict == "failed":
            outcome = yield from self._recover_overlap()
            return outcome
        if drain:
            # Every source voted after blocking to completion or failure.
            raise RuntimeError(
                f"rank {self.rank} ({self.config.key}): drain agreement "
                f"still pending in phase {self._phase.value}"
            )
        if self.rank == 0 and self._record is not None:
            self._record.overlapped_iterations += 1
        return None

    def _poll_reconfig(self, drain: bool):
        """One stop agreement of an overlapped reconfiguration: advance my
        pipeline — a non-blocking step at a checkpoint, blocking until it is
        through when ``drain`` — then agree with the other sources on
        stopping.

        Returns ``"done"`` / ``"pending"`` / ``"failed"``.  Failures vote
        ``-1`` in the same agreement scalar, so every source learns about a
        peer's failure at the next checkpoint without extra traffic; without
        a fault schedule attached the error is raised instead and the votes
        are the historical 0/1 — fault-free runs are unchanged."""
        err: Optional[CommFailedError] = None
        if self._phase is _Phase.THREAD_WAIT:
            if drain:
                yield from self.mpi.join_thread(self._thread)
            local_done = self._thread.finished
            if local_done:
                res = self._thread.result
                if isinstance(res, tuple) and res and res[0] == "stage23-failed":
                    err = res[1]
        else:
            try:
                local_done = yield from self._advance_async(drain)
            except CommFailedError as e:
                err = e
                local_done = False
        if err is not None and not self._fault_mode():
            raise err
        if err is None and local_done and self._fault_mode():
            dead = self._dead_newcomers()
            if dead:
                err = CommFailedError(
                    "targets died during redistribution", dead_gids=dead
                )
                local_done = False
        if err is not None and drain:
            # A peer blocked in this attempt's session cannot read my vote:
            # fail its waits first, as the synchronous ladder does.
            self._abort_session_comms()
        vote = -1 if err is not None else (1 if local_done else 0)
        agreed = yield from self.mpi.allreduce(vote, op_min, comm=self.comm)
        if agreed == -1:
            if self._overlap_error is None:
                self._overlap_error = err
            return "failed"
        return "done" if agreed == 1 else "pending"

    # ------------------------------------------------------------- stage 4
    def _complete_reconfig(self):
        """All sources stopped: move variable data synchronously, hand off."""
        record = self._ensure_record()
        record.mark_const_complete(self.mpi.now)
        outcome = yield from self._handoff(stopped_at=self.it)
        return outcome

    def _handoff(self, stopped_at: int):
        """Synchronous tail of every reconfiguration: redistribute variable
        fields, transmit the resume iteration, retire or continue."""
        record = self._ensure_record()
        record.sources_stopped_iteration = stopped_at
        is_async = self.config.strategy is not Strategy.SYNC
        var_names = self._var_names() if is_async else []
        comm3 = self._merged if self._merged is not None else self._inter
        if comm3 is None:
            comm3 = self.comm  # Merge shrink
        nt = self._plan.n_targets

        if var_names:
            dst_dataset = getattr(self, "_dst_dataset", None)
            session = self._session_for(comm3, names=var_names, dst_dataset=dst_dataset)
            yield from session.run_blocking()

        if self.config.spawn is SpawnMethod.BASELINE:
            # Tell the new group where to resume, then retire.
            if self.rank == 0:
                yield from self.mpi.send(
                    stopped_at, dest=0, tag=1900, comm=self._inter
                )
            yield from self.mpi.disconnect(self._inter)
            record.mark_commit_finished(self.mpi.now)
            self.mpi.finalize()
            self._reset_reconfig_state()
            return RankOutcome.RETIRED

        # Merge method.
        ns = self._plan.n_sources
        if nt > ns:
            # Expansion: new ranks need the resume iteration.
            yield from self.mpi.bcast(stopped_at, root=0, comm=self._merged)
            new_comm = self._merged
        else:
            # Shrink: survivors get a right-sized communicator.
            new_comm = yield from self.mpi.comm_create(self.comm, range(nt))
            if new_comm is None:
                record.mark_commit_finished(self.mpi.now)
                self.mpi.finalize()
                self._reset_reconfig_state()
                return RankOutcome.RETIRED
        # Persisting rank: swap to the new group's state and keep looping.
        dst_dataset = getattr(self, "_dst_dataset", None)
        if dst_dataset is None:
            raise RuntimeError("persisting rank has no target dataset")
        record.mark_data_complete(self.mpi.now)
        self.comm = new_comm
        self.dataset = dst_dataset
        self.app.on_handoff(self.mpi, dst_dataset)
        self.it = stopped_at
        self.group_index += 1
        record.mark_commit_finished(self.mpi.now)
        self._reset_reconfig_state()
        return None

    def _reset_reconfig_state(self) -> None:
        self._phase = _Phase.IDLE
        self._req = None
        self._plan = None
        self._spawn_handle = None
        self._merge_handle = None
        self._inter = None
        self._merged = None
        self._session = None
        self._thread = None
        self._record = None
        self._dst_dataset = None

    # --------------------------------------------------------- child plumbing
    def _slots(self, indices) -> list[int]:
        return [self.slot_of(i) for i in indices]

    def _child_args(self) -> tuple:
        return (
            self.app,
            self.config,
            self.rms.child_factory(self.group_index + 1),
            self.group_index + 1,
            self.stats,
            self._plan,
            self.slot_of,
            self.recovery,
        )


def _target_entry(
    mpi, app, config, rms_factory, group_index, stats, plan, slot_of,
    recovery=None,
):
    """Entry point of spawned processes (Baseline targets / Merge newcomers).

    Stages 2-4 (merge, redistribution, resume) run under a failure guard:
    if a peer dies before the handoff commits, this target excuses its
    outstanding traffic and retires — the sources' recovery ladder decides
    what happens next.  Failures *after* the handoff stay loud (a completed
    reconfiguration must never return silent partial results)."""
    ns, nt = plan.n_sources, plan.n_targets
    is_merge = config.spawn is SpawnMethod.MERGE
    record = stats.reconfigs[group_index - 1]
    comm3 = None

    try:
        if is_merge:
            comm3 = yield from mpi.merge_intercomm(mpi.parent, high=True)
            my_target = comm3.rank_of_gid(mpi.gid)
        else:
            comm3 = mpi.parent
            my_target = mpi.rank
        lo, hi = plan.dst_range(my_target)
        dataset = Dataset.create(app.n_rows, tuple(app.specs), lo, hi)

        is_async = config.strategy is not Strategy.SYNC
        const_names = dataset.field_names(constant=True)
        var_names = dataset.field_names(constant=False)
        first_names = (const_names or dataset.field_names()) if is_async else dataset.field_names()

        session = make_session(
            config.redist, mpi, comm3, plan,
            names=first_names,
            dst_rank=my_target,
            dst_dataset=dataset,
            label=f"reconf{group_index - 1}",
        )
        if config.strategy is Strategy.ASYNC_NONBLOCKING:
            # Everyone must enter the same non-blocking collectives (§3.2).
            yield from session.start()
            yield from session.finish()
        else:
            yield from session.run_blocking()
        record.mark_const_complete(mpi.now)

        if is_async and var_names:
            var_session = make_session(
                config.redist, mpi, comm3, plan,
                names=var_names,
                dst_rank=my_target,
                dst_dataset=dataset,
                label=f"reconf{group_index - 1}v",
            )
            yield from var_session.run_blocking()

        # Stage 4: learn where to resume.
        if is_merge:
            resume_at = yield from mpi.bcast(None, root=0, comm=comm3)
            new_comm = comm3
        else:
            if mpi.rank == 0:
                resume_at = yield from mpi.recv(source=0, tag=1900, comm=mpi.parent)
            else:
                resume_at = None
            resume_at = yield from mpi.bcast(resume_at, root=0, comm=mpi.comm_world)
            new_comm = mpi.comm_world
    except CommFailedError:
        # The attempt is being aborted by the sources.  Excuse whatever is
        # still posted on this rank's communicators and leave quietly; a
        # fresh target group will be spawned (or the job shrinks/restarts).
        for c in (comm3, mpi.parent, mpi.comm_world):
            if c is not None:
                mpi.world.abort_comm(c)
        mpi.finalize()
        return RankOutcome.RETIRED
    record.mark_data_complete(mpi.now)
    record.mark_commit_finished(mpi.now)
    app.on_handoff(mpi, dataset)

    runner = GroupRunner(
        mpi, app, config,
        rms_factory(),
        stats,
        comm=new_comm,
        dataset=dataset,
        start_iter=resume_at,
        group_index=group_index,
        slot_of=slot_of,
        recovery=recovery,
    )
    outcome = yield from runner.run()
    return outcome


def _restart_entry(
    mpi, app, config, rms_factory, group_index, stats, plan_factory, slot_of,
    start_iter, recovery,
):
    """Entry point of ranks relaunched by the checkpoint/restart fallback.

    The in-run checkpoint is modelled at the iteration the failed group
    started from: each rank rebuilds its block there and re-executes the
    lost iterations — the classic cost of degrading to C/R (§2)."""
    lo, hi = block_range(app.n_rows, mpi.size, mpi.rank)
    dataset = Dataset.create(
        app.n_rows, tuple(app.specs), lo, hi,
        data=app.initial_data(lo, hi),
        fill_virtual=True,
    )
    app.on_handoff(mpi, dataset)
    runner = GroupRunner(
        mpi, app, config,
        rms_factory(),
        stats,
        comm=mpi.comm_world,
        dataset=dataset,
        start_iter=start_iter,
        group_index=group_index,
        plan_factory=plan_factory,
        slot_of=slot_of,
        recovery=recovery,
    )
    outcome = yield from runner.run()
    return outcome


def run_malleable(
    mpi,
    app: MalleableApp,
    config: ReconfigConfig,
    requests,
    stats: RunStats,
    plan_factory: Callable[[int, int, int], RedistributionPlan] = RedistributionPlan.block,
    slot_of: Callable[[int], int] = lambda i: i,
    rms_factory: Optional[Callable[[], ScriptedRMS]] = None,
    recovery: Optional[RecoveryPolicy] = None,
):
    """Entry point for ranks of the *first* group.

    Builds the rank's initial dataset from ``app.initial_data`` and runs the
    malleable loop; returns the rank's :class:`RankOutcome`.

    ``requests`` is the scripted reconfiguration schedule; a dynamic RMS
    (``repro.rmsim``) passes ``rms_factory`` instead and each rank builds
    its own live view.
    """
    lo, hi = block_range(app.n_rows, mpi.size, mpi.rank)
    dataset = Dataset.create(
        app.n_rows, tuple(app.specs), lo, hi,
        data=app.initial_data(lo, hi),
        fill_virtual=True,
    )
    rms = rms_factory() if rms_factory is not None else ScriptedRMS(list(requests))
    runner = GroupRunner(
        mpi, app, config, rms, stats,
        comm=mpi.comm_world, dataset=dataset,
        plan_factory=plan_factory,
        slot_of=slot_of,
        recovery=recovery,
    )
    outcome = yield from runner.run()
    return outcome
