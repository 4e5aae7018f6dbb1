"""Sanitizer overhead benchmark -> BENCH_sanitize.json.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_sanitize.py [--quick] [--out PATH]

ISSUE 4's acceptance bar mirrors the obs layer's: the sanitizer must be
*free when detached* and bounded when attached.  Three timings of the
same simulated job (merge-col-t on ethernet — the busiest configuration:
async collective phases, windowed self-copies, heavy P2P):

* ``detached``  — no sanitizer anywhere; every emission site is one
  ``world.sanitizer is None`` pointer comparison.
* ``attached``  — a :class:`~repro.sanitize.Sanitizer` tracking every
  request, fingerprinting every payload, and running the finalize and
  alltoallv cross-check passes.
* ``attached+metrics`` — sanitizer plus a metrics registry, the
  ``repro-harness run --sanitize --metrics-out`` configuration.

The JSON records absolute best-of-N times plus attached/detached ratios.
``--max-attached-ratio R`` (default 3.0) fails the run when the
attached/detached ratio of the same run exceeds R — the CI smoke gate:
fingerprinting costs real work, but it must stay within a small constant
factor.  Both timings are taken back to back on one host, so the gate
neither drifts with the machine nor goes vacuous when the engine gets
faster (a pinned absolute detached time did both).
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
from repro.sanitize import Sanitizer  # noqa: E402


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
        san = Sanitizer()
        run_one(spec, sanitizer=san)
        assert not san.findings, san.report()

    def attached_metrics():
        run_one(spec, sanitizer=Sanitizer(), metrics=MetricsRegistry())

    # Warm once so first-call import costs don't skew the first variant.
    run_one(spec)
    t_detached = _best_of(detached, repeats)
    t_attached = _best_of(attached, repeats)
    t_both = _best_of(attached_metrics, repeats)
    return {
        "detached_s": round(t_detached, 5),
        "attached_s": round(t_attached, 5),
        "attached_metrics_s": round(t_both, 5),
        "attached_over_detached": round(t_attached / t_detached, 4),
        "attached_metrics_over_detached": round(t_both / t_detached, 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny scale, fewer repeats (CI smoke)")
    parser.add_argument("--out", default=str(HERE / "BENCH_sanitize.json"))
    parser.add_argument(
        "--max-attached-ratio", type=float, default=3.0, metavar="R",
        help="exit 1 if attached/detached exceeds R (default: 3.0)",
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

    if out["attached_over_detached"] > args.max_attached_ratio:
        print(
            f"FAIL: attached/detached ratio "
            f"{out['attached_over_detached']:.2f} exceeds "
            f"{args.max_attached_ratio:.2f}",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: attached/detached ratio "
        f"{out['attached_over_detached']:.2f} <= "
        f"{args.max_attached_ratio:.2f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
