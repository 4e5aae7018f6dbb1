"""Perf regression gate: diff BENCH_*.json against the pre-PR baseline.

Usage::

    python benchmarks/perf/check_regression.py \
        [--baseline benchmarks/perf/baseline_pre_pr.json] \
        [--threshold 10] BENCH_kernel.json [BENCH_rma.json ...]

Every metric that appears in **both** the baseline and one of the given
bench documents is compared with the right polarity (events/s and
flows/s are higher-better; wall-clock seconds are lower-better).  A
relative regression beyond ``--threshold`` percent on any compared
metric fails the gate with exit code 1; improvements and unknown keys
are reported but never fail.  This is what turns the recorded BENCH
numbers from documentation into an enforced contract — the pre-PR
executor regression (parallel sweep at 0.893x) was *recorded* without
anything failing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: metric -> True when larger is better, False when smaller is better.
#: Deliberately short: throughput metrics plus the full-mode single-run
#: wall clock.  Sub-100ms wall clocks (single_run_tiny, mini_sweep) are
#: load-noise-dominated and would make the gate flaky, so they are
#: reported in the BENCH documents but not gated here.
POLARITY = {
    "kernel_events_per_s": True,
    "allocator_flows_per_s": True,
    "allocator_speedup_vs_reference_dense": True,
    "allocator_speedup_vs_reference_sparse": True,
    "redist_rows_per_s": True,
    "rma_vs_col_ethernet_speedup": True,
    "single_run_small_merge_p2p_t_ethernet_s": False,
}


def compare(baseline: dict, bench: dict, threshold: float) -> list[tuple]:
    """Yield ``(metric, base, now, change_pct, regressed)`` per shared key."""
    rows = []
    for metric, higher_is_better in POLARITY.items():
        base = baseline.get(metric)
        now = bench.get(metric)
        if not isinstance(base, (int, float)) or not isinstance(
            now, (int, float)
        ):
            continue
        if base == 0:
            continue
        if higher_is_better:
            change = (now - base) / base * 100.0
        else:
            change = (base - now) / base * 100.0
        rows.append((metric, base, now, change, change < -threshold))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benches", nargs="+", metavar="BENCH_JSON",
                        help="BENCH_*.json documents to check")
    parser.add_argument(
        "--baseline", default=str(HERE / "baseline_pre_pr.json"),
        help="reference document (default: the checked-in pre-PR baseline)",
    )
    parser.add_argument(
        "--threshold", type=float, default=10.0, metavar="PCT",
        help="max tolerated relative regression, percent (default 10)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    failed = False
    compared = 0
    for bench_path in args.benches:
        bench = json.loads(Path(bench_path).read_text())
        rows = compare(baseline, bench, args.threshold)
        if not rows:
            print(f"{bench_path}: no shared metrics with baseline")
            continue
        print(f"{bench_path} vs {args.baseline} "
              f"(threshold {args.threshold:g}%):")
        for metric, base, now, change, regressed in rows:
            compared += 1
            verdict = "REGRESSED" if regressed else "ok"
            print(
                f"  {metric:42s} {base:>12g} -> {now:>12g} "
                f"({change:+7.1f}%)  {verdict}"
            )
            failed = failed or regressed
    if compared == 0:
        print("ERROR: nothing compared — wrong files?", file=sys.stderr)
        return 1
    if failed:
        print("perf regression gate: FAILED", file=sys.stderr)
        return 1
    print("perf regression gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
