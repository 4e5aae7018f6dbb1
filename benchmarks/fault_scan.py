"""Crash scan: every survivable-or-typed outcome, never a hang.

Runs the 18 reconfiguration configs over three resizes (4->8, 8->4, 8->2)
with one node crash at four offsets into the redistribution, on either of
the first two nodes: 432 tiny Ethernet cells.  docs/faults.md promises that
a crash ends a cell in recovery or in a typed error, never in a hang, so a
cell may end in only two ways:

* ``completed`` — the run finished (possibly after recovery);
* ``CommFailedError`` — a ``SimulationError`` whose cause is a
  ``CommFailedError`` (the crash was unsurvivable and said so).

Anything else — a ``DeadlockError``, a silent stop, another exception, or a
cell that outlives its time limit — fails the scan, except the cells in
``KNOWN`` that are exempted by name until fixed.  An exempted cell that no
longer misbehaves fails the scan too, so the exemption is removed with the
fix.  The outcome table, the ``CommFailedError`` cells split by where the
error was raised, and every non-benign cell are printed.

Run from the repository root::

    PYTHONPATH=src python benchmarks/fault_scan.py
"""

from __future__ import annotations

import collections
import signal
import sys
import time
import traceback

from repro.harness import RunSpec, run_one
from repro.malleability.config import ALL_CONFIGS
from repro.simulate import SimulationError
from repro.smpi.errors import CommFailedError

PAIRS = ((4, 8), (8, 4), (8, 2))
OFFSETS = ("0", "0.001", "0.01", "0.05")
NODES = (0, 1)
BENIGN = ("completed", "CommFailedError")
#: seconds one cell may run before it counts as a hang (a cell takes < 1 s).
LIMIT = 60

#: (config, ns, nt, canonical faults) -> the outcome the cell is known to
#: end in.  tests/faults/test_crash_scan_cells.py pins each one's mechanism.
KNOWN = {
    ("merge-p2p-s", 8, 2, "crash@redist+0.05:node=0"): "RuntimeError",
}

#: packages below the caller of an MPI operation; the deepest frame outside
#: them names where a CommFailedError surfaced.
_MPI_LAYERS = ("/repro/smpi/", "/repro/simulate/", "/repro/cluster/")


class _CellTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise _CellTimeout


def specs():
    for config in ALL_CONFIGS:
        for ns, nt in PAIRS:
            for offset in OFFSETS:
                for node in NODES:
                    yield RunSpec(ns, nt, config, "ethernet", "tiny",
                                  faults=f"crash@redist+{offset}:node={node}")


def _site(err: BaseException) -> str:
    """``module.function`` of the deepest frame above the MPI layers."""
    site = "?"
    for frame in traceback.extract_tb(err.__traceback__):
        path = frame.filename.replace("\\", "/")
        if "/repro/" in path and not any(p in path for p in _MPI_LAYERS):
            module = path.rsplit("/repro/", 1)[1].removesuffix(".py")
            site = f"{module.replace('/', '.')}.{frame.name}"
    return site


def run_cell(spec: RunSpec) -> tuple[str, str]:
    """``(outcome, where)`` of one cell; ``where`` names the failing
    process kind and site of a ``CommFailedError``."""
    signal.alarm(LIMIT)
    try:
        run_one(spec)
        return "completed", ""
    except _CellTimeout:
        return "timeout", ""
    except SimulationError as e:
        cause = e.__cause__
        if isinstance(cause, CommFailedError):
            proc = str(e).split("'")[1] if "'" in str(e) else "?"
            kind = proc.split(".")[0].rstrip("0123456789")
            return "CommFailedError", f"{kind} {_site(cause)}"
        return type(e).__name__, str(e).splitlines()[0][:120]
    except Exception as e:  # noqa: BLE001 - every other ending is a finding
        return type(e).__name__, str(e)[:120]
    finally:
        signal.alarm(0)


def main() -> int:
    signal.signal(signal.SIGALRM, _on_alarm)

    t0 = time.perf_counter()
    by_config = collections.defaultdict(collections.Counter)
    totals = collections.Counter()
    sites = collections.Counter()
    problems = []
    for spec in specs():
        outcome, where = run_cell(spec)
        key = (spec.config.key, spec.ns, spec.nt, spec.faults)
        by_config[spec.config.key][outcome] += 1
        totals[outcome] += 1
        if outcome == "CommFailedError":
            sites[where] += 1
        known = KNOWN.get(key)
        if outcome not in BENIGN and known != outcome:
            problems.append(f"{key}: {outcome} {where}")
        elif known is not None and outcome in BENIGN:
            problems.append(f"{key}: now {outcome}; drop it from KNOWN")
        elif known is not None:
            print(f"known: {key}: {outcome} {where}")
    elapsed = time.perf_counter() - t0

    outcomes = sorted(totals, key=lambda o: (o not in BENIGN, o))
    width = max(len(c) for c in by_config)
    print(f"{'config':<{width}} " + " ".join(f"{o:>16}" for o in outcomes))
    for config, counts in by_config.items():
        print(f"{config:<{width}} "
              + " ".join(f"{counts[o]:>16}" for o in outcomes))
    print(f"{'total':<{width}} " + " ".join(f"{totals[o]:>16}" for o in outcomes))
    print(f"{sum(totals.values())} cells in {elapsed:.1f} s")
    print("CommFailedError cells by process kind and site:")
    for where, n in sorted(sites.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {n:>4}  {where}")
    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
