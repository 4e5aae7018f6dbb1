"""Attached/detached overhead of the metrics probe and the sanitizer.

Usage::

    python benchmarks/overhead.py

Times one simulated cell (merge-col-t, 4 -> 8, ethernet, tiny: async
collective phases on oversubscribed nodes, the busiest emission sites)
best-of-3 three ways, back to back on one host:

* ``detached``  — no observer: every event site is one empty-tuple test;
* ``metrics``   — a :class:`~repro.obs.MetricsProbe` on the network, the
  nodes and the MPI world (``run_one(metrics=...)``);
* ``sanitizer`` — a :class:`~repro.sanitize.Sanitizer` tracking every
  request and fingerprinting every payload; the run must report no
  finding.

It prints the two attached/detached ratios and exits 1 when one exceeds
its bound: 2.0 for the probe, 1.5 for the sanitizer.  A ratio of two
timings of the same run neither drifts with the host nor goes vacuous as
the engine gets faster.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(REPO / "src"))

from repro.harness.runner import RunSpec, run_one  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.sanitize import Sanitizer  # noqa: E402

SPEC = RunSpec(4, 8, "merge-col-t", "ethernet", "tiny", 0)
REPEATS = 3
BOUNDS = {"metrics": 2.0, "sanitizer": 1.5}


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _sanitized() -> None:
    san = Sanitizer()
    run_one(SPEC, sanitizer=san)
    assert not san.findings, san.report()


def main() -> int:
    run_one(SPEC)  # warm: first-call import costs skew whichever runs first
    detached = _best_of(lambda: run_one(SPEC))
    attached = {
        "metrics": _best_of(lambda: run_one(SPEC, metrics=MetricsRegistry())),
        "sanitizer": _best_of(_sanitized),
    }
    print(f"detached: {detached:.4f} s")
    failed = False
    for name, seconds in attached.items():
        ratio, bound = seconds / detached, BOUNDS[name]
        failed |= ratio > bound
        print(f"{name}: attached/detached {ratio:.2f} "
              f"{'exceeds' if ratio > bound else '<='} {bound:.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
