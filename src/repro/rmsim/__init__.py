"""RMS simulation: malleable jobs vs system makespan (future work, §5).

"Contact with the Slurm resource manager to request/assign resources will
also be included.  Thus, it will be possible to study how malleability
affects the real makespan of a system."

This package does that study on the simulated substrate with one
scheduler core — queue, slot pool, pluggable policies
(:mod:`repro.rmsim.policies`), billing — and two executors:

* **engine** — :class:`MalleableScheduler` runs every job through the
  paper's malleability engine, posting live reconfiguration decisions
  (:class:`DecisionBoard` / :class:`DynamicRMS`) that it executes at full
  cost.  See ``examples/makespan_study.py`` and
  ``benchmarks/test_ablation_makespan.py``.
* **analytic** — :class:`TraceScheduler` (the core itself) models job
  progress analytically and reconfiguration stalls with the paper's cost
  model, so seeded traces (:mod:`repro.rmsim.traces`) of 10^4 jobs over
  10^3 nodes run in seconds.  See ``docs/rmsim.md`` and
  ``repro-harness rmsim``.
"""

from .board import DecisionBoard, DynamicRMS
from .jobs import JobRecord, JobSpec
from .policies import (
    POLICIES,
    EasyBackfillPolicy,
    FifoPolicy,
    MalleableAwarePolicy,
    PriorityPolicy,
    SchedulingPolicy,
    policy_by_name,
)
from .scheduler import (
    MalleableScheduler,
    ScheduleResult,
    SlotPool,
    TraceScheduler,
    arrival_order,
)
from .traces import TraceConfig, WorkloadTrace, generate_trace

__all__ = [
    "DecisionBoard",
    "DynamicRMS",
    "JobSpec",
    "JobRecord",
    "SlotPool",
    "MalleableScheduler",
    "ScheduleResult",
    "TraceScheduler",
    "arrival_order",
    "TraceConfig",
    "WorkloadTrace",
    "generate_trace",
    "SchedulingPolicy",
    "FifoPolicy",
    "PriorityPolicy",
    "EasyBackfillPolicy",
    "MalleableAwarePolicy",
    "POLICIES",
    "policy_by_name",
]
