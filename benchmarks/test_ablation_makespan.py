"""Ablation: system makespan with and without malleability (future work §5).

The paper's introduction argues malleability raises system productivity;
its future work plans the Slurm study.  This bench runs a job stream
through the simulated RMS twice — rigid and malleable — with every
reconfiguration paying the full Stage 1-4 costs, and asserts the
productivity gain.
"""

import pytest

from conftest import run_once
from repro.analysis import markdown_table
from repro.cluster import ETHERNET_10G, Machine
from repro.rmsim import FifoPolicy, JobSpec, MalleableScheduler, SchedulingPolicy
from repro.simulate import Simulator


def workload(malleable: bool) -> list[JobSpec]:
    wide = lambda lo, hi: (lo, hi if malleable else lo)  # noqa: E731
    out = []
    for name, arrival, iters, work, (mn, mx) in [
        ("sim-A", 0.0, 80, 0.5, wide(4, 8)),
        ("sim-B", 0.2, 60, 0.4, wide(2, 6)),
        ("render", 0.8, 40, 0.3, (4, 4)),
        ("sim-C", 1.2, 200, 0.35, wide(2, 8)),
        ("post", 2.5, 30, 0.2, (2, 2)),
    ]:
        out.append(JobSpec(name, arrival, iterations=iters,
                           work_per_iteration=work, min_procs=mn, max_procs=mx))
    return out


def run_schedule(malleable: bool):
    sim = Simulator()
    machine = Machine(sim, 4, 2, ETHERNET_10G)
    policy = FifoPolicy() if malleable else SchedulingPolicy()
    return MalleableScheduler(machine, workload(malleable), policy=policy).run()


def test_malleability_improves_makespan_and_utilization(benchmark):
    def measure():
        return run_schedule(False), run_schedule(True)

    rigid, melt = run_once(benchmark, measure)
    print(
        "\n"
        + markdown_table(
            ["workload", "makespan (s)", "utilization", "mean wait (s)"],
            [
                ["rigid", rigid.makespan, rigid.utilization, rigid.mean_waiting_time],
                ["malleable", melt.makespan, melt.utilization, melt.mean_waiting_time],
            ],
        )
    )
    assert melt.makespan < rigid.makespan * 0.8, (
        f"malleability should cut the makespan: {melt.makespan:.2f} vs "
        f"{rigid.makespan:.2f}"
    )
    assert melt.utilization > rigid.utilization
    # Jobs really did resize, paying true reconfiguration costs.
    resized = [
        r for r in melt.records.values() if len(r.size_history) > 1
    ]
    assert resized, "no job ever reconfigured in the malleable run"
