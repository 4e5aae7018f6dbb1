"""Observability overhead benchmark -> BENCH_obs.json.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_obs.py [--quick] [--out PATH]

ISSUE 2's acceptance bar: the metrics layer must be *near-free when
detached*.  Three timings of the same simulated job (merge-col-t on
ethernet, the configuration with the busiest emission sites — async
collective phases, oversubscribed nodes):

* ``detached``  — no registry anywhere; the cooperative ``world.metrics``
  guards are one pointer comparison each, hot paths unwrapped.
* ``attached``  — a :class:`~repro.obs.MetricsProbe` wrapping the cluster
  hot paths plus cooperative emission everywhere.
* ``traced``    — probe *and* :class:`~repro.trace.Tracer` together (the
  ``repro-harness observe`` configuration).

The JSON records absolute best-of-N times plus the attached/detached and
traced/detached ratios.  ``--max-attached-ratio R`` exits non-zero when the
attached/detached ratio of the same run exceeds R — the CI smoke gate.  It
is a ratio of two timings taken back to back on one host, so it neither
drifts with the machine nor goes vacuous when the engine gets faster (a
pinned absolute detached time did both).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
if str(REPO / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO / "src"))

from repro.harness.runner import RunSpec, run_one  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.trace import Tracer  # noqa: E402


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench(scale: str, repeats: int) -> dict:
    spec = RunSpec(4, 8, "merge-col-t", "ethernet", scale, 0)

    def detached():
        run_one(spec)

    def attached():
        run_one(spec, metrics=MetricsRegistry())

    def traced():
        run_one(spec, metrics=MetricsRegistry(), tracer=Tracer())

    # Warm once so imports/JIT-ish first-call costs don't skew the fastest
    # variant benched first.
    run_one(spec)
    t_detached = _best_of(detached, repeats)
    t_attached = _best_of(attached, repeats)
    t_traced = _best_of(traced, repeats)
    return {
        "detached_s": round(t_detached, 5),
        "attached_s": round(t_attached, 5),
        "traced_s": round(t_traced, 5),
        "attached_over_detached": round(t_attached / t_detached, 4),
        "traced_over_detached": round(t_traced / t_detached, 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny scale, fewer repeats (CI smoke)")
    parser.add_argument("--out", default=str(HERE / "BENCH_obs.json"))
    parser.add_argument(
        "--max-attached-ratio", type=float, default=None, metavar="R",
        help="exit 1 if attached_s / detached_s of this run exceeds R",
    )
    args = parser.parse_args(argv)

    scale = "tiny" if args.quick else "small"
    repeats = 3 if args.quick else 5

    out = {
        "recorded_at": time.strftime("%Y-%m-%d"),
        "mode": "quick" if args.quick else "full",
        "scale": scale,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    out.update(bench(scale, repeats))

    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out, indent=2))
    print(f"wrote {args.out}")

    if args.max_attached_ratio is not None:
        ratio = out["attached_over_detached"]
        if ratio > args.max_attached_ratio:
            print(
                f"FAIL: attached/detached ratio {ratio:.2f} exceeds "
                f"{args.max_attached_ratio:.2f}",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: attached/detached ratio {ratio:.2f} <= "
            f"{args.max_attached_ratio:.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
