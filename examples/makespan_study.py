#!/usr/bin/env python
"""System-productivity study: rigid vs malleable workloads (future work §5).

A stream of jobs hits an 8-core simulated cluster.  In the *rigid* run,
every job keeps its submission size; in the *malleable* run, jobs expand
into idle cores and shrink (paying the paper's full reconfiguration costs)
when the queue fills.  The RMS daemon, decision boards and the malleability
engine are all simulated end-to-end.

Run:  python examples/makespan_study.py
"""

from repro.analysis import markdown_table
from repro.cluster import ETHERNET_10G, Machine
from repro.malleability import ReconfigConfig
from repro.rmsim import FifoPolicy, JobSpec, MalleableScheduler, SchedulingPolicy
from repro.simulate import Simulator


def workload(malleable: bool) -> list[JobSpec]:
    cfg = ReconfigConfig.parse("merge-col-a")
    wide = lambda lo, hi: (lo, hi if malleable else lo)  # noqa: E731
    jobs = []
    for name, arrival, iters, work, (mn, mx) in [
        ("sim-A", 0.0, 80, 0.5, wide(4, 8)),
        ("sim-B", 0.2, 60, 0.4, wide(2, 6)),
        ("render", 0.8, 40, 0.3, (4, 4)),        # rigid in both runs
        # a long tail job: in the malleable run it inherits the whole
        # machine once the others drain.
        ("sim-C", 1.2, 200, 0.35, wide(2, 8)),
        ("post", 2.5, 30, 0.2, (2, 2)),          # rigid in both runs
    ]:
        jobs.append(
            JobSpec(name, arrival, iterations=iters, work_per_iteration=work,
                    min_procs=mn, max_procs=mx, config=cfg)
        )
    return jobs


def run(malleable: bool):
    sim = Simulator()
    machine = Machine(sim, n_nodes=4, cores_per_node=2, fabric=ETHERNET_10G)
    policy = FifoPolicy() if malleable else SchedulingPolicy()
    return MalleableScheduler(machine, workload(malleable), policy=policy).run()


def main() -> None:
    rigid = run(False)
    melt = run(True)

    rows = []
    for label, res in [("rigid", rigid), ("malleable", melt)]:
        rows.append([
            label, res.makespan, res.utilization,
            res.mean_waiting_time, res.mean_turnaround,
        ])
    print(markdown_table(
        ["workload", "makespan (s)", "utilization", "mean wait (s)",
         "mean turnaround (s)"],
        rows,
    ))
    gain = (rigid.makespan - melt.makespan) / rigid.makespan
    print(f"\nmakespan improvement from malleability: {gain:.1%}")

    print("\nsize histories (malleable run):")
    for name, rec in sorted(melt.records.items()):
        history = " -> ".join(
            f"{p}@{t:.2f}s" for t, p in rec.size_history
        )
        print(f"  {name:8s} {history}")


if __name__ == "__main__":
    main()
