"""The malleability engine: Stages 1-4 for all eighteen configurations.

One :class:`GroupRunner` per rank drives the application loop with the
paper's checkpoint protocol embedded (Algorithms 3 and 4):

* **Stage 1** (resource reallocation) is the scripted RMS decision;
* **Stage 2** (process management) spawns/merges per the Baseline or Merge
  method;
* **Stage 3** (data redistribution) runs the P2P/COL/RMA session: constant
  fields may overlap the application (A/T); variable fields always move
  synchronously once the sources stop (§3.2);
* **Stage 4** (resuming) hands the new group its communicator, dataset and
  resume iteration.

Stage 2 and the first Stage-3 wave are one program,
:meth:`GroupRunner._stage23`: A steps it at its checkpoints, T runs it
blocking on its auxiliary thread, and S and every retry drain it at once.

One stop agreement commits every attempt: a source may only leave the loop
when *every* source finished its redistribution, because per-iteration
collectives would otherwise hang.  Sources vote -1 (failed), 0 (pending) or
1 (done) in a one-scalar allreduce per checkpoint (the kind of reduction
iterative solvers perform anyway).  S, a retry, or A/T whose iterations ran
out has no checkpoint to overlap with: it blocks until its own part is done
or failed (T sleeps in the thread join) and then agrees once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol

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

#: spawn/redistribution attempts after the first failure of a
#: reconfiguration; once they are spent the job shrinks back.
MAX_RETRIES = 2
#: simulated seconds before retry ``k`` waits ``k`` times this (the RMS
#: requeue latency of a respawn).
RETRY_BACKOFF = 0.25


def _waves(strategy: Strategy, dataset: Dataset) -> tuple[list[str], list[str]]:
    """The fields of Stage 3's two waves (§3.2).  Under S one wave moves
    every field.  Under A/T the first wave, which may overlap the
    application, moves the constant fields (none, so no session, when the
    application has none), and the variable fields follow once the
    sources stop."""
    if strategy is Strategy.SYNC:
        return dataset.field_names(), []
    return dataset.field_names(constant=True), dataset.field_names(constant=False)


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


@dataclass(frozen=True)
class _Job:
    """What every rank of one job shares, in every group it runs."""

    app: MalleableApp
    #: ``None`` for the checkpoint/restart baseline, which has no Stages 2-4.
    config: Optional[ReconfigConfig]
    #: the RMS decisions, read in place (see :class:`ScriptedRMS`).
    requests: list[ReconfigRequest]
    stats: RunStats
    plan_factory: Callable[[int, int, int], RedistributionPlan] = RedistributionPlan.block
    #: maps a job-internal slot index to a machine slot — identity for
    #: single-job worlds; a base offset in multi-job RMS simulations.
    slot_of: Callable[[int], int] = lambda i: i


class GroupRunner:
    """Drives one rank of the currently active group.

    ``consumed`` is how many of the job's requests the group's ancestors
    took: this rank's :class:`ScriptedRMS` cursor starts there, and request
    ``k`` is ``stats.reconfigs[k]`` and session label ``reconf<k>``.
    ``group_index`` numbers the group (one more per handoff, spawn or
    relaunch) and keys ``iterations_by_group`` only; a shrink fallback
    consumes a request but keeps its group."""

    def __init__(self, mpi, job: _Job, comm, dataset: Dataset,
                 start_iter: int = 0, group_index: int = 0, consumed: int = 0):
        self.mpi = mpi
        self.job = job
        self.app, self.config, self.stats = job.app, job.config, job.stats
        self.rms = ScriptedRMS(job.requests, skip=consumed)
        self.comm = comm
        self.dataset = dataset
        self.it = start_iter
        #: the group's entry iteration — the in-run checkpoint the
        #: checkpoint/restart fallback resumes from.
        self.start_iter = start_iter
        self.group_index = group_index
        self._phase = _Phase.IDLE
        # per-reconfiguration scratch:
        self._req: Optional[ReconfigRequest] = None
        self._plan: Optional[RedistributionPlan] = None
        self._inter = None
        self._merged = None
        #: A's :meth:`_stage23` while it steps at checkpoints (its waits
        #: test); ``None`` for T and once an attempt drains (its waits block).
        self._pipeline = None
        self._thread = None
        #: the in-flight attempt: 0, then one more per retry.
        self._attempt = 0
        self._record: Optional[ReconfigRecord] = None
        self._dst_dataset: Optional[Dataset] = None

    # ------------------------------------------------------------- utilities
    @property
    def rank(self) -> int:
        return self.comm.rank_of_gid(self.mpi.gid)

    @property
    def _label(self) -> str:
        """The session label of the request in flight."""
        return f"reconf{self.rms.consumed - 1}"

    def _ensure_record(self) -> ReconfigRecord:
        """The in-flight request's record, made by the first rank to ask."""
        reconfigs = self.stats.reconfigs
        if len(reconfigs) < self.rms.consumed:
            reconfigs.append(ReconfigRecord(
                n_sources=self.comm.size,
                n_targets=self._req.n_targets,
                requested_iteration=self._req.at_iteration,
            ))
        self._record = reconfigs[self.rms.consumed - 1]
        return self._record

    def _make_target_dataset(self, plan: RedistributionPlan, t: int) -> Dataset:
        lo, hi = plan.dst_range(t)
        return Dataset.create(self.app.n_rows, tuple(self.dataset.specs), lo, hi)

    def _session_for(self, mpi, comm, names) -> Any:
        """Build this source rank's Stage-3 session on ``comm``."""
        is_merge = self.config.spawn is SpawnMethod.MERGE
        nt = self._plan.n_targets
        return make_session(
            self.config.redist,
            mpi,
            comm,
            self._plan,
            names=names,
            src_rank=self.rank,
            dst_rank=self.rank if (is_merge and self.rank < nt) else None,
            src_dataset=self.dataset,
            dst_dataset=self._dst_dataset,
            label=self._label,
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
                    except CommFailedError:
                        outcome = yield from self._degrade_to_cr(self._record)
                    if outcome is RankOutcome.RETIRED:
                        return RankOutcome.RETIRED
                    # S drained its attempt inline: this rank continues as a
                    # member of the new group, or of the old one after a shrink.
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
        record = self._ensure_record()
        if record.decision_at is None:
            record.decision_at = self.mpi.now
        plan_factory = self.job.plan_factory
        self._plan = plan_factory(self.app.n_rows, ns, nt)
        (lo, hi), ds = self._plan.src_range(self.rank), self.dataset
        if (lo, hi) != (ds.lo, ds.hi):
            factory = getattr(plan_factory, "__qualname__", plan_factory)
            raise ValueError(
                f"{factory} plans source rank {self.rank} on rows [{lo},{hi}) "
                f"but it holds [{ds.lo},{ds.hi}): plans start from a block layout"
            )
        if record.plan_built_at is None:
            record.plan_built_at = self.mpi.now
        if record.spawn_started_at is None:
            record.spawn_started_at = self.mpi.now
        self._attempt = 0
        if self.config.strategy is Strategy.SYNC:
            outcome = yield from self._ft_ladder(record, attempt=0)
            return outcome
        if self.config.strategy is Strategy.ASYNC_NONBLOCKING:
            self._pipeline = self._stage23(self.mpi, overlapped=True)
            yield from self._step(drain=False)
        else:
            yield from self._begin_thread()
        return None

    def _stage23(self, mpi, overlapped: bool = False):
        """Stage 2 and the first Stage-3 wave: the one program of S, A and T.

        T runs it blocking on its auxiliary thread's ``mpi``; every other
        attempt goes through :meth:`_step`.  A (``overlapped``) steps it at
        its checkpoints: the one that begins A only issues work, each later
        one tests once and falls through whatever completed.  S and every
        retry (:meth:`_ft_ladder`) drain it at once, every wait blocking.
        Stage 4 is left to :meth:`_handoff`, after the agreement that
        commits it."""
        plan, record = self._plan, self._record
        ns, nt = plan.n_sources, plan.n_targets
        baseline = self.config.spawn is SpawnMethod.BASELINE
        spawned = baseline or nt > ns
        if spawned:
            spawn = yield from mpi.comm_spawn_async(
                _target_entry, slots=self._spawn_slots(range(0 if baseline else ns, nt)),
                comm=self.comm,
                args=(self.job, plan, self.group_index + 1, self.rms.consumed),
            )
            if overlapped:
                yield _Phase.SPAWN_WAIT  # the beginning checkpoint
            self._inter = comm = yield from self._await(mpi, spawn, _Phase.SPAWN_WAIT)
            if overlapped and record.spawn_finished_at is None:
                record.spawn_finished_at = mpi.now
            if not baseline:
                merge = yield from mpi.merge_intercomm_async(comm, high=False)
                self._merged = comm = yield from self._await(
                    mpi, merge, _Phase.MERGE_WAIT
                )
        else:
            # Merge shrink: no spawn — sources already hold ranks 0..NS-1.
            # Duplicate the communicator so Stage-3 traffic cannot
            # cross-match the application's (paper §3.2).
            self._merged = comm = yield from mpi.comm_dup(self.comm)
        if not overlapped:
            record.spawn_finished_at = record.redist_started_at = mpi.now
        elif record.redist_started_at is None:
            record.redist_started_at = mpi.now
        if not baseline and self.rank < nt:
            self._dst_dataset = self._make_target_dataset(plan, self.rank)
        names = _waves(self.config.strategy, self.dataset)[0]
        if not names:
            return
        session = self._session_for(mpi, comm, names)
        if self.config.strategy is not Strategy.ASYNC_NONBLOCKING:
            yield from session.run_blocking()
            return
        # A-config targets post the non-blocking collectives (see
        # _target_entry); COL's blocking pair is another wire schedule.
        yield from session.start()
        if overlapped and not spawned:
            yield _Phase.REDIST  # the beginning checkpoint
        while self._pipeline is not None and not (yield from session.test()):
            yield _Phase.REDIST
        if not session.finished:
            yield from session.finish()

    def _await(self, mpi, handle, phase: _Phase):
        """A Stage-2 wait.  Blocking it is ``wait_async`` — exactly
        ``comm_spawn``/``merge_intercomm``; while A steps, it tests
        ``handle`` once per checkpoint and suspends at ``phase`` between."""
        while self._pipeline is not None:
            if handle.completed or handle.failed:
                return handle.result  # raises a stored failure
            yield phase
        result = yield from mpi.wait_async(handle)
        return result

    def _step(self, drain: bool):
        """Advance the attempt's pipeline to its next checkpoint wait —
        ``drain``: to its end, every wait blocking — and return whether its
        first wave is locally through.  Kernel commands pass through, kernel
        throws are delivered where the pipeline waits, and a yielded phase
        ends the step."""
        pipeline = self._pipeline
        if drain:
            self._pipeline = None
        send = throw = None
        while True:
            try:
                cmd = pipeline.throw(throw) if throw is not None else pipeline.send(send)
            except StopIteration:
                self._phase = _Phase.REDIST
                return True
            if isinstance(cmd, _Phase):
                self._phase = cmd
                return False
            try:
                send, throw = (yield cmd), None
            except BaseException as e:
                send, throw = None, e

    def _begin_thread(self):
        def stage23_thread(tmpi):
            """Auxiliary thread: :meth:`_stage23`, blocking.

            A communication failure is *returned* (not raised), ``None``
            otherwise, so the main flow reads the verdict at its next
            checkpoint and drives the recovery ladder itself — a dead
            auxiliary thread must never take the rank down with it."""
            try:
                yield from self._stage23(tmpi)
            except CommFailedError as e:
                return e
            return None

        self._thread = yield from self.mpi.spawn_thread(
            stage23_thread, name=f"auxthread.g{self.mpi.gid}"
        )
        self._phase = _Phase.THREAD_WAIT

    # ........................................................ recovery ladder
    def _spawn_slots(self, indices) -> list[int]:
        """The job's own slots while every node they sit on is healthy, else
        the first surviving slots."""
        slots = [self.job.slot_of(i) for i in indices]
        machine = self.mpi.machine
        if not any(machine.node_for_slot(s).failed for s in slots):
            return slots
        alive = self._alive_slots()
        if len(alive) < len(slots):
            raise CommFailedError(
                f"cannot place {len(slots)} targets: only {len(alive)} "
                "slots survive"
            )
        return alive[: len(slots)]

    def _alive_slots(self) -> list[int]:
        """Machine slots on nodes that have not failed, in order."""
        machine = self.mpi.machine
        return [
            s for s in range(machine.total_cores)
            if not machine.node_for_slot(s).failed
        ]

    def _newcomers_lost(self) -> Optional[CommFailedError]:
        """The failure of spawned targets that died after joining the new
        group, else ``None``.

        Rendezvous sends complete locally once the stream starts, so a
        target dying mid-transfer may not fail any *source* operation —
        every source would then commit a half-delivered dataset.  This
        explicit liveness check closes that window before the commit
        agreement."""
        if self._inter is None:
            return None
        dead = self.mpi.world.dead_gids
        lost = [g for g in self._inter.remote_group if g in dead]
        if not lost:
            return None
        return CommFailedError("targets died during redistribution", dead_gids=lost)

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

    def _ft_ladder(self, record: ReconfigRecord, attempt: int):
        """Attempt ``attempt`` of a reconfiguration (docs/faults.md): S's
        first, or the retry after an attempt that failed.  Past
        :data:`MAX_RETRIES` retries the job shrinks back; otherwise a retry
        waits out its backoff, and the attempt drains Stages 2+3 at once
        and commits through the one stop agreement
        (:meth:`_overlap_checkpoint`), whose ``"failed"`` verdict comes
        back here with the next attempt."""
        self._attempt = attempt
        if attempt > MAX_RETRIES:
            self._shrink_fallback(record)
            return None
        if attempt > 0:
            if self.rank == 0:
                record.retries += 1
            # Model the RMS requeue latency of a respawn attempt.
            yield from self.mpi.sleep(RETRY_BACKOFF * attempt)
        self._pipeline = self._stage23(self.mpi)
        outcome = yield from self._overlap_checkpoint(drain=True)
        return outcome

    def _abort_attempt(self, record: ReconfigRecord):
        """Tear down a half-built attempt so the next rung starts clean:
        mark the failure, excuse outstanding traffic on the attempt's
        communicators, kill my auxiliary thread, and (rank 0) terminate the
        surviving members of the half-spawned target group."""
        record.mark_first_failure(self.mpi.now)
        world = self.mpi.world
        self._abort_session_comms()
        reason = f"{self._label} attempt aborted"
        if self._thread is not None and not self._thread.finished:
            self.mpi.sim.kill_now(self._thread.proc, reason=reason)
        if self.rank == 0 and self._inter is not None:
            doomed = [
                g for g in self._inter.remote_group
                if g not in world.dead_gids
            ]
            if doomed:
                world.terminate_ranks(doomed, reason=reason)
        self._clear_attempt()
        # Zero-cost yield keeps this a generator and lets the kernel settle
        # the synchronous kills before the next attempt begins.
        yield from self.mpi.sleep(0.0)

    def _stamp_recovery(self, record: ReconfigRecord, policy: str) -> None:
        """Idempotently stamp the winning rung and emit the obs metrics."""
        if record.recovery_policy is None:
            record.recovery_policy = policy
        if record.recovered_at is None:
            record.recovered_at = self.mpi.now
            for o in self.mpi.world.observers:
                o.on_recovery(
                    record.recovery_policy, record.first_failure_at, self._label,
                )

    def _shrink_fallback(self, record: ReconfigRecord) -> None:
        """Abandon the reconfiguration and keep running on the surviving
        source group: the data never left the sources, so nothing is lost
        (shrink-on-demand)."""
        self._stamp_recovery(record, "shrink")
        record.mark_data_complete(self.mpi.now)
        record.mark_commit_finished(self.mpi.now)
        self._reset_reconfig_state()

    def _degrade_to_cr(self, record: ReconfigRecord):
        """A source rank died: the group's in-memory state is gone.
        Terminate what is left of the job and relaunch it from the in-run
        checkpoint — the iteration this group started from — on surviving
        slots.

        The first survivor to get here is the only one: it terminates every
        other surviving rank of its group (they would otherwise block on
        traffic that can never complete) before any of them runs again."""
        from .checkpoint_restart import CheckpointRestartConfig

        record.mark_first_failure(self.mpi.now)
        if record.recovery_policy is None:
            record.recovery_policy = "checkpoint_restart"
        world = self.mpi.world
        label = self._label
        yield from self._abort_attempt(record)
        doomed = sorted(
            g for g in self.comm.group
            if g != self.mpi.gid and g not in world.dead_gids
        )
        if doomed:
            world.terminate_ranks(doomed, reason="checkpoint/restart: job requeued")

        def recovered() -> None:
            now = world.sim.now
            record.recovered_at = now
            record.mark_data_complete(now)
            record.mark_commit_finished(now)
            for o in world.observers:
                o.on_recovery("checkpoint_restart", record.first_failure_at, label)

        self._requeue(
            CheckpointRestartConfig(),
            self._req.n_targets if self._req is not None else self.comm.size,
            _run_group,
            (self.job, self.start_iter, self.group_index + 1, self.rms.consumed),
            on_launch=recovered,
        )
        world.abort_comm(self.comm)
        self.mpi.finalize()
        self._reset_reconfig_state()
        return RankOutcome.RETIRED

    def _requeue(self, cr, n_targets: int, entry, args: tuple, on_launch=None) -> None:
        """The RMS requeue of a job whose group is gone, for both
        checkpoint/restart paths: after ``cr``'s requeue delay and restart
        cost, launch ``entry`` on the first ``n_targets`` surviving slots
        (``on_launch`` runs just before).  One rank per lost group calls it:
        rank 0 of an on-disk checkpoint, or the in-memory fallback's sole
        survivor."""
        world = self.mpi.world

        def relaunch() -> None:
            slots = self._alive_slots()[:n_targets]
            if not slots:  # pragma: no cover - the whole machine died
                return
            if on_launch is not None:
                on_launch()
            world.launch(entry, slots, args=args, name_prefix="restarted")

        world.sim.schedule(cr.requeue_delay + cr.restart_cost, relaunch)

    # ------------------------------------------------------- stop agreement
    def _overlap_checkpoint(self, drain: bool):
        """Poll the attempt in flight and act on the agreed verdict: keep
        iterating, hand off, or escalate through the recovery ladder.  A
        failure is handled alike whether a test at a checkpoint or a
        blocked wait of the drain observed it."""
        record = self._record
        try:
            verdict = yield from self._poll_reconfig(drain)
            if verdict == "done":
                if record.first_failure_at is not None:
                    self._stamp_recovery(record, "retry")
                outcome = yield from self._handoff(stopped_at=self.it)
                return outcome
        except CommFailedError:
            # The agreement or the handoff failed: a fellow source died.
            outcome = yield from self._degrade_to_cr(record)
            return outcome
        if verdict == "failed":
            # Some source's attempt failed: abort it and escalate (the
            # remaining attempts run without overlap).
            yield from self._abort_attempt(record)
            outcome = yield from self._ft_ladder(record, self._attempt + 1)
            return outcome
        if drain:
            # Every source voted after blocking to completion or failure.
            raise RuntimeError(
                f"rank {self.rank} ({self.config.key}): drain agreement "
                f"still pending in phase {self._phase.value}"
            )
        if self.rank == 0 and record is not None:
            record.overlapped_iterations += 1
        return None

    def _poll_reconfig(self, drain: bool):
        """The stop agreement of every attempt: advance my pipeline — a
        non-blocking step at a checkpoint, blocking until it is through when
        ``drain`` — then agree with the other sources on stopping.

        Returns ``"done"`` / ``"pending"`` / ``"failed"``.  Failures vote
        ``-1`` in the same agreement scalar, so every source learns about a
        peer's failure at the next checkpoint without extra traffic."""
        err: Optional[CommFailedError] = None
        if self._phase is _Phase.THREAD_WAIT:
            if drain:
                yield from self.mpi.join_thread(self._thread)
            local_done = self._thread.finished
            if local_done:
                err = self._thread.result
        else:
            try:
                local_done = yield from self._step(drain)
            except CommFailedError as e:
                err = e
                local_done = False
        if err is None and local_done:
            err = self._newcomers_lost()
        if err is not None and drain:
            # A peer blocked in this attempt's session cannot read my vote:
            # fail its waits first.
            self._abort_session_comms()
        vote = -1 if err is not None else (1 if local_done else 0)
        agreed = yield from self.mpi.allreduce(vote, op_min, comm=self.comm)
        if agreed == -1:
            return "failed"
        return "done" if agreed == 1 else "pending"

    # ------------------------------------------------------------- stage 4
    def _handoff(self, stopped_at: int):
        """Synchronous tail of every reconfiguration: redistribute variable
        fields, transmit the resume iteration, retire or continue."""
        record = self._record
        record.sources_stopped_iteration = stopped_at
        var_names = _waves(self.config.strategy, self.dataset)[1]
        comm3 = self._merged if self._merged is not None else self._inter
        if comm3 is None:
            comm3 = self.comm  # Merge shrink
        nt = self._plan.n_targets

        if var_names:
            session = self._session_for(self.mpi, comm3, var_names)
            yield from session.run_blocking()

        if self.config.spawn is SpawnMethod.BASELINE:
            # Tell the new group where to resume, then retire.
            if self.rank == 0:
                yield from self.mpi.send(
                    stopped_at, dest=0, tag=1900, comm=self._inter
                )
            yield from self.mpi.disconnect(self._inter)
            return self._retire(record)

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
                return self._retire(record)
        # Persisting rank: swap to the new group's state and keep looping.
        dst_dataset = self._dst_dataset
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

    def _retire(self, record: ReconfigRecord) -> RankOutcome:
        """A source's exit once its group handed off."""
        record.mark_commit_finished(self.mpi.now)
        self.mpi.finalize()
        self._reset_reconfig_state()
        return RankOutcome.RETIRED

    def _clear_attempt(self) -> None:
        """Drop what one attempt of a reconfiguration built."""
        self._phase = _Phase.IDLE
        self._inter = None
        self._merged = None
        self._pipeline = None
        self._thread = None
        self._dst_dataset = None

    def _reset_reconfig_state(self) -> None:
        self._clear_attempt()
        self._req = None
        self._plan = None
        self._record = None


def _target_entry(mpi, job: _Job, plan, group_index: int, consumed: int):
    """Entry point of spawned processes (Baseline targets / Merge newcomers)
    of group ``group_index``, made for the job's request ``consumed - 1``.

    Stages 2-4 (merge, redistribution, resume) run under a failure guard:
    if a peer dies before the handoff commits, this target excuses its
    outstanding traffic and retires — the sources' recovery ladder decides
    what happens next.  Failures *after* the handoff stay loud (a completed
    reconfiguration must never return silent partial results)."""
    app, config = job.app, job.config
    is_merge = config.spawn is SpawnMethod.MERGE
    record = job.stats.reconfigs[consumed - 1]
    label = f"reconf{consumed - 1}"
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
        first_names, var_names = _waves(config.strategy, dataset)

        def session_for(names, suffix=""):
            return make_session(
                config.redist, mpi, comm3, plan, names=names,
                dst_rank=my_target, dst_dataset=dataset, label=label + suffix,
            )

        if first_names:
            session = session_for(first_names)
            if config.strategy is Strategy.ASYNC_NONBLOCKING:
                # Everyone must enter the same non-blocking collectives (§3.2).
                yield from session.start()
                yield from session.finish()
            else:
                yield from session.run_blocking()

        if var_names:
            yield from session_for(var_names, "v").run_blocking()

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
    outcome = yield from _run_group(
        mpi, job, resume_at, group_index, consumed, new_comm, dataset
    )
    return outcome


def initial_dataset(mpi, app: MalleableApp) -> Dataset:
    """This rank's block of ``app.initial_data`` on its launch group."""
    lo, hi = block_range(app.n_rows, mpi.size, mpi.rank)
    return Dataset.create(
        app.n_rows, tuple(app.specs), lo, hi,
        data=app.initial_data(lo, hi),
        fill_virtual=True,
    )


def _run_group(mpi, job: _Job, start_iter=0, group_index=0, consumed=0,
               comm=None, dataset=None):
    """Run this rank as a member of group ``group_index`` from ``start_iter``
    on, past the job's first ``consumed`` requests.  Every group but the
    first enters through ``on_handoff``.

    A rank launched without a dataset starts from :func:`initial_dataset`
    on its launch communicator: the first group, or one the
    checkpoint/restart fallback relaunched.  The fallback's in-run
    checkpoint is modelled at ``start_iter``, the iteration the failed group
    started from: each relaunched rank rebuilds its block there and
    re-executes the lost iterations — the classic cost of degrading to C/R
    (§2)."""
    if dataset is None:
        dataset = initial_dataset(mpi, job.app)
    if group_index:
        job.app.on_handoff(mpi, dataset)
    runner = GroupRunner(
        mpi, job, comm if comm is not None else mpi.comm_world, dataset,
        start_iter, group_index, consumed,
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
):
    """Entry point for ranks of the *first* group.

    Builds the rank's initial dataset from ``app.initial_data`` and runs the
    malleable loop; returns the rank's :class:`RankOutcome`.

    ``requests`` is the reconfiguration schedule, read in place by every
    rank's :class:`ScriptedRMS` (a live RMS such as ``repro.rmsim`` passes
    the list it appends its decisions to).
    """
    job = _Job(app, config, requests, stats, plan_factory, slot_of)
    outcome = yield from _run_group(mpi, job)
    return outcome
