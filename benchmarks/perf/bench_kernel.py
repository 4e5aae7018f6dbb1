"""Kernel / allocator / single-run microbenchmarks -> BENCH_kernel.json.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_kernel.py [--quick] [--out PATH]

Measures the three layers the PR 1 optimisations target and compares them
against the pinned pre-PR numbers in ``baseline_pre_pr.json`` (same
workload shapes, so speedups are apples-to-apples on the same machine):

* ``kernel_events_per_s``     — event-loop throughput (chain of Timeouts)
* ``allocator_flows_per_s``   — end-to-end flow throughput on a 32-link net
* ``allocator_speedup_vs_reference`` — incremental `_max_min_allocate`
  vs. the kept-verbatim :func:`max_min_reference` oracle on identical
  static topologies
* ``redist_rows_per_s``       — compiled-plan redistribution round trip
  (extract_batch -> insert_batch -> assemble) over a CSR+dense dataset
* ``single_run_*_s``          — one full simulated job (merge-p2p-t,
  ethernet), best-of-N wall-clock

Throughput metrics take one discarded warmup pass plus the median of
three timed repeats, so a single scheduler hiccup or cold-cache sample
cannot flap the ``check_regression.py`` 10% gate.

``--quick`` shrinks every workload ~10x for CI smoke runs; the JSON then
carries ``"mode": "quick"`` so trend tooling can keep full and smoke
records apart.  ``--profile`` re-runs the hot workloads under cProfile
and writes the top-20 cumulative-time rows next to the JSON (CI uploads
it as an artifact for future perf work).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import platform
import pstats
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
if str(REPO / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO / "src"))

from repro.cluster.network import Flow, Network, max_min_reference  # noqa: E402
from repro.harness.runner import RunSpec, run_one  # noqa: E402
from repro.simulate.core import Simulator  # noqa: E402
from repro.simulate.primitives import Timeout  # noqa: E402

BASELINE = HERE / "baseline_pre_pr.json"


def median_of(fn, repeats: int = 3, warmup: int = 1) -> float:
    """Median of ``repeats`` timed samples after ``warmup`` discarded ones.

    The single-sample captures this file used to take drifted ~7% between
    PRs with no code change (1.04M -> 976k events/s); the median of three
    keeps one descheduled sample from tripping the regression gate.
    """
    for _ in range(warmup):
        fn()
    return statistics.median(fn() for _ in range(repeats))


def bench_kernel_events(n_events: int) -> float:
    """Events/sec of ``Simulator.run`` on 4 processes chaining Timeouts.

    A kernel-only micro-number: real runs are dominated by CPU/network
    model callbacks, not back-to-back Timeouts, so read end-to-end effects
    off ``benchmarks/e2e/`` instead.
    """

    def worker(n):
        for _ in range(n):
            yield Timeout(0.001)

    sim = Simulator()
    for i in range(4):
        sim.spawn(worker(n_events // 4), name=f"w{i}")
    t0 = time.perf_counter()
    sim.run()
    return n_events / (time.perf_counter() - t0)


def bench_allocator_flows(n_flows: int) -> float:
    """Flows/sec through a 32-link network with staggered arrivals.

    Workload identical to the pre-PR baseline capture (seeded rng), so
    the flows/sec ratio against ``baseline_pre_pr.json`` is a clean
    allocator speedup measurement.
    """
    sim = Simulator()
    net = Network(sim)
    links = [net.add_link(f"l{i}", 1e9) for i in range(32)]
    rng = random.Random(0)
    for i in range(n_flows):
        route = rng.sample(links, 2)
        net.start_flow(
            route,
            rng.uniform(1e5, 1e7),
            latency=rng.uniform(0, 0.01) * i / n_flows,
            label=f"f{i}",
        )
    t0 = time.perf_counter()
    sim.run()
    return n_flows / (time.perf_counter() - t0)


def _time_vs_reference(topologies) -> float:
    t0 = time.perf_counter()
    for net in topologies:
        net._max_min_allocate()
    t_inc = time.perf_counter() - t0
    t0 = time.perf_counter()
    for net in topologies:
        max_min_reference(net._active, net.links)
    t_ref = time.perf_counter() - t0
    return t_ref / t_inc


def bench_allocator_vs_reference(cases: int) -> dict:
    """Static allocation: incremental allocator vs. the reference oracle
    on the *same* randomized topologies, in two contention regimes.

    *sparse* is the regime simulated machines actually produce — many
    links on the machine, each allocation touching a small cluster —
    where the compact touched-links index pays off (the reference scans
    every link every round).  *dense* saturates every link with flows;
    there the touched set is the whole machine and the incremental
    allocator's numpy dispatch overhead makes it roughly break even.
    """
    rng = random.Random(42)
    sparse, dense = [], []
    for _ in range(cases):
        sim = Simulator()
        net = Network(sim)
        links = [
            net.add_link(f"l{i}", rng.uniform(1.0, 1e6)) for i in range(256)
        ]
        cluster = rng.sample(links, 8)
        for i in range(rng.randint(4, 12)):
            route = rng.sample(cluster, rng.randint(1, 3))
            f = Flow(route, 1.0, sim.event(), label=f"f{i}")
            net._active.add(f)
            for link in route:
                link.flows.add(f)
                link.nflows += 1
        sparse.append(net)
    for _ in range(max(cases // 6, 10)):
        sim = Simulator()
        net = Network(sim)
        links = [
            net.add_link(f"l{i}", rng.uniform(1.0, 1e6)) for i in range(64)
        ]
        for i in range(rng.randint(100, 200)):
            route = rng.sample(links, rng.randint(1, 4))
            f = Flow(route, 1.0, sim.event(), label=f"f{i}")
            net._active.add(f)
            for link in route:
                link.flows.add(f)
                link.nflows += 1
        dense.append(net)
    return {
        "allocator_speedup_vs_reference_sparse": _time_vs_reference(sparse),
        "allocator_speedup_vs_reference_dense": _time_vs_reference(dense),
    }


def bench_redist_rows(n_rows: int, n_src: int, n_dst: int) -> float:
    """Rows/sec through one compiled-plan redistribution round trip.

    The store data path in isolation, no simulator in the loop: lower
    the plan to flat index programs, pack every source rank's schedule with
    ``extract_batch`` (+ wire-size accounting), unpack on the target side
    with ``insert_batch``, and force CSR reassembly.  This is the work the
    sessions hand to the stores per reconfiguration, so rows/s here is the
    ceiling on simulated redistribution throughput.
    """
    import numpy as np
    from scipy import sparse as sp

    from repro.redistribution import Dataset, FieldSpec, RedistributionPlan

    specs = (
        FieldSpec("A", "csr", constant=True),
        FieldSpec("x", "dense", constant=False),
    )
    rng = np.random.default_rng(11)
    plan = RedistributionPlan.block(n_rows, n_src, n_dst)
    sources = []
    for s in range(n_src):
        lo, hi = plan.src_offsets[s], plan.src_offsets[s + 1]
        m = sp.random(hi - lo, 64, density=0.05, random_state=rng,
                      format="csr")
        sources.append(Dataset.create(
            n_rows, specs, lo, hi,
            data={"A": m, "x": np.arange(float(hi - lo))},
        ))
    names = ["A", "x"]

    t0 = time.perf_counter()
    targets = [
        Dataset.create(n_rows, specs, plan.dst_offsets[t], plan.dst_offsets[t + 1])
        for t in range(n_dst)
    ]
    inbox = [([], [], []) for _ in range(n_dst)]  # per-target los/his/payloads
    for s, src in enumerate(sources):
        prog = plan.compiled_sends(s)
        payloads = src.extract_batch(prog.los, prog.his, names)
        src.range_nbytes_batch(prog.los, prog.his, names)
        for tr, payload in zip(prog.transfers, payloads):
            los, his, box = inbox[tr.dst]
            los.append(tr.lo)
            his.append(tr.hi)
            box.append(payload)
    for tgt, (los, his, box) in zip(targets, inbox):
        for n in names:
            tgt.stores[n].insert_batch(los, his, [p[n] for p in box])
        tgt.stores["A"].matrix  # force CSR reassembly (the unpack cost)
    return n_rows / (time.perf_counter() - t0)


def bench_single_run(scale: str, repeats: int) -> float:
    """Best-of-N wall clock of one simulated job (the figure workhorse)."""
    spec = RunSpec(8, 16, "merge-p2p-t", "ethernet", scale, 0)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_one(spec)
        best = min(best, time.perf_counter() - t0)
    return best


def write_profile(workloads: dict, out_path: Path) -> None:
    """Run each named workload under cProfile; write the top-20 rows by
    cumulative time per workload to ``out_path`` (and stdout)."""
    sections = []
    for name, fn in workloads.items():
        prof = cProfile.Profile()
        prof.enable()
        fn()
        prof.disable()
        buf = io.StringIO()
        stats = pstats.Stats(prof, stream=buf)
        stats.sort_stats("cumulative").print_stats(20)
        sections.append(f"==== {name} ====\n{buf.getvalue()}")
    text = "\n".join(sections)
    out_path.write_text(text)
    print(text)
    print(f"wrote profile to {out_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="~10x smaller workloads (CI smoke)")
    parser.add_argument("--out", default=str(HERE / "BENCH_kernel.json"))
    parser.add_argument(
        "--profile", action="store_true",
        help="also emit cProfile top-20 of the hot workloads "
             "(<out-stem>_profile.txt)",
    )
    args = parser.parse_args(argv)

    quick = args.quick
    n_events = 20_000 if quick else 200_000
    n_flows = 200 if quick else 2_000
    cases = 50 if quick else 300
    repeats = 1 if quick else 3
    scale = "tiny" if quick else "small"
    redist_rows = 20_000 if quick else 200_000

    out = {
        "recorded_at": time.strftime("%Y-%m-%d"),
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "kernel_events_per_s": round(
            median_of(lambda: bench_kernel_events(n_events)), 1
        ),
        "allocator_flows_per_s": round(
            median_of(lambda: bench_allocator_flows(n_flows)), 1
        ),
        "redist_rows_per_s": round(
            median_of(lambda: bench_redist_rows(redist_rows, 8, 16)), 1
        ),
    }
    out.update(
        {k: round(v, 3) for k, v in bench_allocator_vs_reference(cases).items()}
    )
    key = f"single_run_{scale}_merge_p2p_t_ethernet_s"
    out[key] = round(bench_single_run(scale, repeats), 4)

    if BASELINE.exists() and not quick:
        base = json.loads(BASELINE.read_text())
        out["speedups_vs_pre_pr"] = {
            "kernel": round(
                out["kernel_events_per_s"] / base["kernel_events_per_s"], 3
            ),
            "allocator_flows": round(
                out["allocator_flows_per_s"] / base["allocator_flows_per_s"], 3
            ),
            "single_run": round(base[key] / out[key], 3),
        }

    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out, indent=2))
    print(f"wrote {args.out}")

    if args.profile:
        write_profile(
            {
                "kernel_events": lambda: bench_kernel_events(n_events),
                "redist_rows": lambda: bench_redist_rows(redist_rows, 8, 16),
                "single_run": lambda: bench_single_run(scale, 1),
            },
            Path(args.out).with_name(Path(args.out).stem + "_profile.txt"),
        )

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
