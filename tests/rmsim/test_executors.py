"""Engine executor vs analytic executor on one scheduler core.

Both executors share the queue, the slot pool and the policy; they differ
only in how a job progresses.  ``TraceScheduler`` integrates the Amdahl
iteration model and prices each resize with the paper's cost model;
``MalleableScheduler`` runs every rank through the simulated MPI engine.
On the makespan-study workload they must make the same decisions (the
same width sequence per job), and their times must agree within the
bounds below.

The bounds are the measured gaps rounded up: rigid 1.1 % on the makespan
and 1.6 % on the worst job finish (the engine's per-iteration allreduce
and launch), malleable 2.7 % on both.  In the malleable run sim-A's 8 -> 4
shrink is priced as a 0.03 s stall, while the engine overlaps it with
iterations and its data lands 0.21 s after the decision; the commit, and
every start behind it, comes ~0.12 s later.  A gap beyond 5 % is a
finding about the cost model, not a bound to widen.
"""

import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.malleability import ReconfigConfig
from repro.rmsim import (
    FifoPolicy,
    JobSpec,
    MalleableScheduler,
    SchedulingPolicy,
    TraceScheduler,
)
from repro.simulate import Simulator

BOUND = {"rigid": 0.02, "malleable": 0.03}


def workload(malleable: bool) -> list[JobSpec]:
    """``examples/makespan_study.py``'s five jobs on 8 cores."""
    cfg = ReconfigConfig.parse("merge-col-a")
    wide = lambda lo, hi: (lo, hi if malleable else lo)  # noqa: E731
    return [
        JobSpec(name, arrival, iterations=iters, work_per_iteration=work,
                min_procs=mn, max_procs=mx, config=cfg)
        for name, arrival, iters, work, (mn, mx) in [
            ("sim-A", 0.0, 80, 0.5, wide(4, 8)),
            ("sim-B", 0.2, 60, 0.4, wide(2, 6)),
            ("render", 0.8, 40, 0.3, (4, 4)),
            ("sim-C", 1.2, 200, 0.35, wide(2, 8)),
            ("post", 2.5, 30, 0.2, (2, 2)),
        ]
    ]


def policy_for(kind):
    return FifoPolicy() if kind == "malleable" else SchedulingPolicy()


@pytest.fixture(scope="module", params=["rigid", "malleable"])
def both(request):
    kind = request.param
    jobs = workload(kind == "malleable")
    analytic = TraceScheduler(
        8, jobs, policy_for(kind), fabric=ETHERNET_10G, cores_per_node=2
    ).run()
    machine = Machine(Simulator(), 4, 2, ETHERNET_10G)
    engine = MalleableScheduler(machine, jobs, policy_for(kind)).run()
    return kind, analytic, engine


def test_executors_make_the_same_decisions(both):
    kind, analytic, engine = both
    assert analytic.policy == engine.policy
    for name, rec in analytic.records.items():
        widths = [p for _, p in rec.size_history]
        assert [p for _, p in engine.records[name].size_history] == widths, name
    assert (engine.n_grows, engine.n_shrinks) == (
        analytic.n_grows, analytic.n_shrinks
    )
    if kind == "malleable":
        assert analytic.n_grows and analytic.n_shrinks


def test_executors_agree_on_times_within_the_bound(both):
    kind, analytic, engine = both
    bound = BOUND[kind]
    assert engine.makespan == pytest.approx(analytic.makespan, rel=bound)
    for name, rec in analytic.records.items():
        assert engine.records[name].finished_at == pytest.approx(
            rec.finished_at, rel=bound
        ), name
