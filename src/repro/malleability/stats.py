"""Shared run statistics collected by the malleability manager.

A single :class:`RunStats` object is shared (same-process memory) by every
rank of a simulated job; the manager stamps the reconfiguration milestones
the paper's Monitoring module records, and the harness reads them out:

* **reconfiguration time** (Figures 2-6): "measured from the sources start
  spawning processes until the data has been fully received in the targets"
  (§4.4) — :meth:`ReconfigRecord.reconfiguration_time`;
* **application time** (Figures 7-9): start of the run to the completion of
  the last iteration by the final group.

Beyond the two paper scalars, each record carries the full per-stage
timeline (decision, plan build, spawn, redistribution, commit) so that
:class:`ReconfigBreakdown` can decompose a reconfiguration the way
Figures 2-6 do — without attaching any probe; the stamps are always on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterator, Optional

__all__ = ["ReconfigBreakdown", "ReconfigRecord", "RunStats"]


@dataclass(frozen=True)
class ReconfigBreakdown:
    """Per-stage decomposition of one reconfiguration (sim seconds).

    Stages map onto the manager's milestones:

    * ``rms_decision`` — RMS decision checkpoint to plan-build start;
    * ``plan_build``   — redistribution plan construction;
    * ``spawn``        — Stage 2 (``MPI_Comm_spawn`` / merge);
    * ``redistribution`` — Stage 3 first send to last byte landed;
    * ``commit``       — Stage 4 handoff after the data is complete.

    Missing milestones (e.g. a run that never reconfigured asynchronously
    enough to separate commit from data completion) yield ``0.0`` —
    the breakdown is always well-formed for a completed reconfiguration.
    """

    n_sources: int
    n_targets: int
    rms_decision_seconds: float
    plan_build_seconds: float
    spawn_seconds: float
    redistribution_seconds: float
    commit_seconds: float
    total_seconds: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ReconfigRecord:
    """Milestones of one reconfiguration (sim-time seconds)."""

    n_sources: int
    n_targets: int
    requested_iteration: int
    #: RMS decision checkpoint (the manager noticed the pending request).
    decision_at: Optional[float] = None
    #: redistribution plan finished building (Stage 1 -> Stage 2 boundary).
    plan_built_at: Optional[float] = None
    #: checkpoint where Stage 2 began (spawn start — the measurement origin).
    spawn_started_at: Optional[float] = None
    spawn_finished_at: Optional[float] = None
    redist_started_at: Optional[float] = None
    #: per-target completion of *all* data (max over targets).
    data_complete_at: Optional[float] = None
    #: iteration at which the sources stopped (== requested_iteration for S).
    sources_stopped_iteration: Optional[int] = None
    #: iterations the sources overlapped with the reconfiguration (A/T).
    overlapped_iterations: int = 0
    #: Stage 4 finished (handoff/commit; max over participating ranks).
    commit_finished_at: Optional[float] = None
    #: --- fault tolerance (repro.faults) -------------------------------
    #: spawn/redistribution attempts re-issued after a failure.
    retries: int = 0
    #: first time a failure interrupted this reconfiguration.
    first_failure_at: Optional[float] = None
    #: time the reconfiguration (or its fallback) finally went through.
    recovered_at: Optional[float] = None
    #: which rung of the escalation ladder succeeded
    #: ("retry" | "shrink" | "checkpoint_restart"), None when no failure.
    recovery_policy: Optional[str] = None

    def mark_first_failure(self, t: float) -> None:
        """Ranks call this as failures surface; the min is kept."""
        if self.first_failure_at is None or t < self.first_failure_at:
            self.first_failure_at = t

    @property
    def recovery_time(self) -> float:
        """First failure -> recovery committed; 0.0 for clean records."""
        if self.first_failure_at is None or self.recovered_at is None:
            return 0.0
        return max(0.0, self.recovered_at - self.first_failure_at)

    def mark_commit_finished(self, t: float) -> None:
        """Ranks call this as they finish Stage 4; the max is kept."""
        if self.commit_finished_at is None or t > self.commit_finished_at:
            self.commit_finished_at = t

    def mark_data_complete(self, t: float) -> None:
        """Targets call this as their data lands; the max is kept."""
        if self.data_complete_at is None or t > self.data_complete_at:
            self.data_complete_at = t

    @property
    def reconfiguration_time(self) -> float:
        """Spawn start -> all data received by all targets (§4.4)."""
        if self.spawn_started_at is None or self.data_complete_at is None:
            raise RuntimeError("reconfiguration did not complete")
        return self.data_complete_at - self.spawn_started_at

    # --------------------------------------------------------- decomposition
    @property
    def breakdown(self) -> ReconfigBreakdown:
        """Per-stage :class:`ReconfigBreakdown` for a completed record."""
        if self.spawn_started_at is None or self.data_complete_at is None:
            raise RuntimeError("reconfiguration did not complete")

        spans = {stage: t1 - t0 for stage, t0, t1 in self.stage_spans()}
        start = self.decision_at if self.decision_at is not None else self.spawn_started_at
        end = (
            self.commit_finished_at
            if self.commit_finished_at is not None
            else self.data_complete_at
        )
        return ReconfigBreakdown(
            n_sources=self.n_sources,
            n_targets=self.n_targets,
            rms_decision_seconds=spans.get("rms_decision", 0.0),
            plan_build_seconds=spans.get("plan_build", 0.0),
            spawn_seconds=spans.get("spawn", 0.0),
            redistribution_seconds=spans.get("redistribution", 0.0),
            commit_seconds=spans.get("commit", 0.0),
            total_seconds=max(0.0, end - start),
        )

    def stage_spans(self) -> Iterator[tuple[str, float, float]]:
        """Yield ``(stage, t0, t1)`` for every stage with both endpoints.

        Spans feed :meth:`repro.obs.MetricsRegistry.feed_tracer` /
        Perfetto lanes, so they use absolute simulation times.
        """
        pairs = (
            ("rms_decision", self.decision_at, self.plan_built_at),
            ("plan_build", self.plan_built_at, self.spawn_started_at),
            ("spawn", self.spawn_started_at, self.spawn_finished_at),
            (
                "redistribution",
                self.redist_started_at
                if self.redist_started_at is not None
                else self.spawn_finished_at,
                self.data_complete_at,
            ),
            ("commit", self.data_complete_at, self.commit_finished_at),
        )
        for stage, t0, t1 in pairs:
            if t0 is not None and t1 is not None:
                yield (stage, t0, max(t0, t1))


@dataclass
class RunStats:
    """Whole-run telemetry shared by all ranks of one simulated job."""

    reconfigs: list[ReconfigRecord] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: Optional[float] = None
    #: iterations completed by each group generation (for sanity checks).
    iterations_by_group: dict[int, int] = field(default_factory=dict)
    #: per-iteration durations on rank 0 of the active group.
    iteration_times: list[tuple[int, float]] = field(default_factory=list)
    #: highest iteration index any rank has reached a checkpoint for —
    #: dynamic RMS implementations schedule decisions beyond this.
    latest_checked_iteration: int = -1
    #: optional one-shot event triggered when the job finishes (set by RMS
    #: simulations that need completion notifications).
    finished_event: Optional[object] = None

    @property
    def app_time(self) -> float:
        if self.finished_at is None:
            raise RuntimeError("run did not finish")
        return self.finished_at - self.started_at

    @property
    def last_reconfig(self) -> ReconfigRecord:
        if not self.reconfigs:
            raise RuntimeError("no reconfiguration recorded")
        return self.reconfigs[-1]

    def total_iterations(self) -> int:
        return sum(self.iterations_by_group.values())
