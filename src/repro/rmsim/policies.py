"""Scheduling policies for the trace-driven RMS simulation.

A policy is a small strategy object the :class:`~repro.rmsim.scheduler.
TraceScheduler` consults on every batch pass.  It owns three decisions:

* **queue order** (:meth:`SchedulingPolicy.sort_key`) — the total order of
  waiting jobs.  Every key ends with ``(arrival_time, name)`` so
  identical-priority, identical-arrival jobs tie-break deterministically;
* **starts** (:meth:`SchedulingPolicy.schedule`) — which queued jobs to
  launch right now, at what width (greedy in-order by default; EASY adds
  backfilling behind a reservation for the queue head);
* **resizes** (:meth:`SchedulingPolicy.resize`) — which running malleable
  jobs to grow or shrink.  The FIFO family mirrors the historical
  cost-blind shrink-to-min / grow-to-max rules; the malleability-aware
  policy prices every candidate reconfiguration with the paper's model
  (:func:`repro.analysis.models.predict_reconfiguration`) and only moves
  when the predicted payoff covers the predicted cost.

Policies never mutate scheduler state directly — they call the
scheduler's verbs (``start``, ``request_resize``) which validate and
account.  All iteration orders here are deterministic (queue order, or
name-sorted running sets), which is half of the simulator's byte-identical
repeat-run contract; see ``docs/rmsim.md``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from ..analysis.models import predict_reconfiguration
from ..cluster.fabrics import FabricSpec
from ..malleability.config import ReconfigConfig, SpawnMethod
from ..redistribution.plan import RedistributionPlan
from ..smpi.spawn import SpawnModel
from .jobs import JobSpec

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import TraceScheduler

__all__ = [
    "SchedulingPolicy",
    "FifoPolicy",
    "PriorityPolicy",
    "EasyBackfillPolicy",
    "MalleableAwarePolicy",
    "POLICIES",
    "policy_by_name",
    "reconfiguration_cost",
]


@lru_cache(maxsize=65536)
def reconfiguration_cost(
    n_rows: int,
    bytes_per_row: float,
    n_sources: int,
    n_targets: int,
    config: ReconfigConfig,
    fabric: FabricSpec,
    spawn: SpawnModel,
    cores_per_node: int,
) -> float:
    """Predicted wall-clock cost of one ``n_sources -> n_targets`` resize.

    Memoised: trace generators draw ``data_bytes`` from a small discrete
    set and widths cluster on powers of two, so a 10^4-job run touches only
    a few hundred distinct keys.  All arguments are hashable frozen
    dataclasses or scalars.
    """
    plan = RedistributionPlan.block(n_rows, n_sources, n_targets)
    pred = predict_reconfiguration(
        plan,
        bytes_per_row,
        fabric,
        spawn,
        cores_per_node,
        method=config.redist.value,
        merge=config.spawn is SpawnMethod.MERGE,
    )
    return pred.total


class SchedulingPolicy:
    """Base policy: FIFO order, greedy in-order starts, no resizing."""

    name = "base"

    # ---------------------------------------------------------- queue order
    def sort_key(self, spec: JobSpec) -> tuple:
        """Total order of the waiting queue (must end in arrival, name)."""
        return (spec.arrival_time, spec.name)

    # --------------------------------------------------------------- starts
    def schedule(self, sched: "TraceScheduler") -> None:
        """Start queued jobs.  Default: head-of-queue only, widest fit.

        The head blocks the queue (no backfilling) — the EASY subclass
        relaxes this behind a reservation.
        """
        self._start_in_order(sched)

    @staticmethod
    def _start_in_order(sched: "TraceScheduler") -> None:
        while sched.queue:
            spec = sched.queue[0].spec
            free = sched.free_slots
            if free < spec.min_procs:
                return
            if not sched.start(sched.queue[0], min(spec.max_procs, free)):
                return  # pragma: no cover - free_slots said it fits

    # -------------------------------------------------------------- resizes
    def resize(self, sched: "TraceScheduler") -> None:
        """Grow/shrink running malleable jobs.  Default: never."""


class FifoPolicy(SchedulingPolicy):
    """FIFO + the historical cost-blind malleability rules.

    While jobs wait, every resizable running job shrinks to its minimum;
    while the queue is empty, free slots are handed to running jobs up to
    their maximum.  No reconfiguration is ever priced — this is the
    baseline the malleability-aware policy is measured against.
    """

    name = "fifo"

    def resize(self, sched: "TraceScheduler") -> None:
        # Candidate order decides who gets the free slots and in what order
        # commits land, so jobs that cannot act (``ready`` is False) are
        # skipped in place.  The verb itself applies the iterations guard.
        if sched.queue:
            for job in sched.shrink_candidates():
                if job.ready:
                    sched.request_resize(job, job.spec.min_procs)
            return
        free = sched.free_slots
        if free <= 0:
            return
        for job in sched.grow_candidates():
            if not job.ready:
                continue
            target = min(job.spec.max_procs, job.pool_procs + free)
            if sched.request_resize(job, target):
                free = sched.free_slots
                if free <= 0:
                    return


class PriorityPolicy(FifoPolicy):
    """Strict priority order; ties broken by ``(arrival_time, name)``."""

    name = "priority"

    def sort_key(self, spec: JobSpec) -> tuple:
        return (-spec.priority, spec.arrival_time, spec.name)


class EasyBackfillPolicy(FifoPolicy):
    """EASY backfilling: the head gets a reservation, short/small jobs may
    jump it if they fit in the *extra* slots at the shadow time or finish
    before it (Mu'alem & Feitelson's two rules).

    The scan behind the head is capped at ``backfill_window`` candidates —
    a 10^4-job trace can hold thousands of waiting jobs and an unbounded
    scan is O(queue) per pass for mostly-rejected candidates.
    """

    name = "easy"

    def __init__(self, backfill_window: int = 32):
        if backfill_window < 0:
            raise ValueError("backfill_window must be >= 0")
        self.backfill_window = backfill_window

    def schedule(self, sched: "TraceScheduler") -> None:
        self._start_in_order(sched)
        queue = sched.queue
        if not queue:
            return
        head_spec = queue[0].spec
        shadow, extra = sched.reservation_for(head_spec.min_procs)
        scanned = 0
        i = 1
        while i < len(queue) and scanned < self.backfill_window:
            job = queue[i]
            scanned += 1
            free = sched.free_slots
            if free <= 0:
                return
            width = self._backfill_width(sched, job.spec, free, shadow, extra)
            if width is not None and sched.start(job, width, backfilled=True):
                # The start consumed slots: the head's reservation moved.
                shadow, extra = sched.reservation_for(head_spec.min_procs)
                continue  # job left the queue; queue[i] is the next one
            i += 1

    @staticmethod
    def _backfill_width(
        sched: "TraceScheduler",
        spec: JobSpec,
        free: int,
        shadow: float,
        extra: int,
    ) -> "int | None":
        """Widest admissible backfill width for ``spec``, or None.

        A width is admissible if the job either (a) fits in the slots that
        will still be free when the head's reservation fires, or (b) is
        projected to finish before the reservation.
        """
        if spec.min_procs > free:
            return None
        for width in (min(spec.max_procs, free), spec.min_procs):
            if width <= extra:
                return width
            if sched.now + spec.runtime(width) <= shadow:
                return width
        return None


class MalleableAwarePolicy(EasyBackfillPolicy):
    """EASY backfilling plus *priced* malleability.

    Every candidate grow/shrink is costed with the paper's reconfiguration
    model (spawn + redistribution, :func:`reconfiguration_cost`) and only
    executed when the predicted benefit covers it:

    * **shrink** — only while the queue head cannot start, only from the
      widest donors first, and only if the cost is a small fraction of the
      donor's remaining runtime *and* of the head's runtime (shrinking a
      512-core job to admit a 30 s job is a bad trade);
    * **grow** — only into otherwise-idle slots, and only if the predicted
      time saved exceeds ``grow_payoff`` x the reconfiguration cost.

    ``min_dwell`` adds hysteresis: a job that changed size less than that
    many simulated seconds ago is left alone, so the policy does not thrash
    jobs between grow (queue empty) and shrink (queue blocked) on every
    arrival/completion boundary.  ``grow_window`` bounds the number of grow
    candidates examined per pass (a deterministic rotating window over the
    candidate set), keeping each pass O(window) instead of O(running) on a
    datacenter-sized machine.  The rotation makes a policy instance
    stateful — use a fresh instance per run.
    """

    name = "malleable"

    def __init__(
        self,
        backfill_window: int = 32,
        shrink_cost_fraction: float = 0.25,
        shrink_payoff: float = 0.5,
        grow_payoff: float = 3.0,
        min_dwell: float = 60.0,
        grow_window: int = 64,
    ):
        super().__init__(backfill_window)
        self.shrink_cost_fraction = shrink_cost_fraction
        self.shrink_payoff = shrink_payoff
        self.grow_payoff = grow_payoff
        self.min_dwell = min_dwell
        self.grow_window = grow_window
        self._rr = 0

    def _settled(self, sched: "TraceScheduler", job) -> bool:
        """True when the job has dwelt at its current size long enough."""
        return sched.now - job.record.size_history[-1][0] >= self.min_dwell

    def resize(self, sched: "TraceScheduler") -> None:
        if sched.queue:
            self._shrink_for_head(sched)
        else:
            self._grow_into_idle(sched)

    def _shrink_for_head(self, sched: "TraceScheduler") -> None:
        head = sched.queue[0].spec
        need = head.min_procs - sched.free_slots
        if need <= 0:
            return  # enough is already free: schedule() starts it next pass
        head_rt = head.runtime(head.min_procs)
        donors = sorted(
            [job for job in sched.shrink_candidates() if job.ready],
            key=lambda j: (-(j.pool_procs - j.spec.min_procs), j.spec.name),
        )
        for job in donors:
            if need <= 0:
                return
            spec = job.spec
            gain = job.pool_procs - spec.min_procs
            if gain <= 0 or not sched.can_resize(job):
                continue
            if not self._settled(sched, job):
                continue
            cost = sched.resize_cost(job, spec.min_procs)
            if cost > self.shrink_cost_fraction * sched.est_remaining(job):
                continue  # the resize would eat too much of the donor
            if cost > self.shrink_payoff * head_rt:
                continue  # the head is too short to justify the disruption
            if sched.request_resize(job, spec.min_procs):
                need -= gain

    def _grow_into_idle(self, sched: "TraceScheduler") -> None:
        cands = sched.grow_candidates()
        n = len(cands)
        if n == 0:
            return
        start = self._rr % n
        scanned = 0
        for idx in range(start, start + n):
            if scanned >= self.grow_window:
                break
            free = sched.free_slots
            if free <= 0:
                break
            job = cands[idx % n]
            scanned += 1
            if not self._settled(sched, job) or not sched.can_resize(job):
                continue
            spec = job.spec
            target = min(spec.max_procs, job.pool_procs + free)
            if target <= job.pool_procs:
                continue
            cost = sched.resize_cost(job, target)
            if sched.time_saved(job, target) <= self.grow_payoff * cost:
                continue
            sched.request_resize(job, target)
        self._rr = start + scanned


#: name -> policy class, the CLI's ``--policy`` vocabulary.
POLICIES: dict[str, type[SchedulingPolicy]] = {
    "fifo": FifoPolicy,
    "priority": PriorityPolicy,
    "easy": EasyBackfillPolicy,
    "malleable": MalleableAwarePolicy,
}


def policy_by_name(name: str, **kwargs) -> SchedulingPolicy:
    """Instantiate a policy from its registry name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(f"unknown policy {name!r} (known: {known})") from None
    return cls(**kwargs)
