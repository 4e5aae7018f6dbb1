"""Fault scan: every survivable-or-typed outcome, never a hang.

Two lanes over the 18 reconfiguration configs and three resizes (4->8,
8->4, 8->2), tiny Ethernet cells:

* the **crash lane** kills one of the first two nodes at four offsets into
  the redistribution (432 cells).  docs/faults.md promises that a crash
  ends a cell in recovery or in a typed error, never in a hang, so a cell
  may end in only two ways: ``completed`` — the run finished (possibly
  after recovery) — or ``CommFailedError``, raised by a rank (as the cause
  of a ``SimulationError``) or by ``run_one`` for a job whose every rank
  died.  The outcome table and the ``CommFailedError`` cells split by
  where the error was raised are printed;
* the **spawn-failure lane** fails the first 1, 2 or 3 spawns of the
  reconfiguration (162 cells), which walks the manager's retry and shrink
  rungs.  Every cell must complete on the rung its failed-spawn count k
  calls for: a cell that spawns (Baseline, or a Merge grow) retries k
  times up to ``MAX_RETRIES`` and shrinks back past it, and a Merge shrink,
  which spawns nothing, recovers from nothing.  The cells are counted by
  the rung that recovered them and the retries they took.

Anything else — a ``DeadlockError``, a silent stop, another exception, a
spawn-failure cell on the wrong rung, or a cell that outlives its time
limit — fails the scan, and every such cell is printed.

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
from repro.malleability.config import ALL_CONFIGS, SpawnMethod
from repro.malleability.manager import MAX_RETRIES
from repro.obs import MetricsRegistry
from repro.simulate import SimulationError
from repro.smpi.errors import CommFailedError

PAIRS = ((4, 8), (8, 4), (8, 2))
OFFSETS = ("0", "0.001", "0.01", "0.05")
NODES = (0, 1)
#: consecutive failed spawns of the spawn-failure lane.
SPAWN_FAILURES = (1, 2, 3)
BENIGN = ("completed", "CommFailedError")
#: seconds one cell may run before it counts as a hang (a cell takes < 1 s).
LIMIT = 60

#: packages below the caller of an MPI operation; the deepest frame outside
#: them names where a CommFailedError surfaced.
_MPI_LAYERS = ("/repro/smpi/", "/repro/simulate/", "/repro/cluster/")


class _CellTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise _CellTimeout


def crash_specs():
    for config in ALL_CONFIGS:
        for ns, nt in PAIRS:
            for offset in OFFSETS:
                for node in NODES:
                    yield RunSpec(ns, nt, config, "ethernet", "tiny",
                                  faults=f"crash@redist+{offset}:node={node}")


def spawnfail_specs():
    for config in ALL_CONFIGS:
        for ns, nt in PAIRS:
            for n in SPAWN_FAILURES:
                faults = ";".join(f"spawnfail:attempt={i}" for i in range(n))
                yield RunSpec(ns, nt, config, "ethernet", "tiny", faults=faults)


def _site(err: BaseException) -> str:
    """``module.function`` of the deepest frame above the MPI layers."""
    site = "?"
    for frame in traceback.extract_tb(err.__traceback__):
        path = frame.filename.replace("\\", "/")
        if "/repro/" in path and not any(p in path for p in _MPI_LAYERS):
            module = path.rsplit("/repro/", 1)[1].removesuffix(".py")
            site = f"{module.replace('/', '.')}.{frame.name}"
    return site


def run_cell(spec: RunSpec, metrics=None):
    """``(outcome, where, result)`` of one cell; ``where`` names the
    failing process kind (``job`` for a job that lost every rank) and site
    of a ``CommFailedError``; ``result`` is the completed run's."""
    signal.alarm(LIMIT)
    try:
        return "completed", "", run_one(spec, metrics=metrics)
    except _CellTimeout:
        return "timeout", "", None
    except CommFailedError as e:
        return "CommFailedError", f"job {_site(e)}", None
    except SimulationError as e:
        cause = e.__cause__
        if isinstance(cause, CommFailedError):
            proc = str(e).split("'")[1] if "'" in str(e) else "?"
            kind = proc.split(".")[0].rstrip("0123456789")
            return "CommFailedError", f"{kind} {_site(cause)}", None
        return type(e).__name__, str(e).splitlines()[0][:120], None
    except Exception as e:  # noqa: BLE001 - every other ending is a finding
        return type(e).__name__, str(e)[:120], None
    finally:
        signal.alarm(0)


def _rung(metrics: MetricsRegistry) -> str:
    """The recovery rung a completed run's probe counted, else ``none``."""
    for policy in ("checkpoint_restart", "shrink", "retry"):
        if metrics.counter("recoveries", policy=policy).value:
            return policy
    return "none"


def _expected_rung(spec: RunSpec, n_failed: int) -> tuple[str, int]:
    """``(rung, retries)`` of a cell whose first ``n_failed`` spawns fail."""
    if spec.config.spawn is SpawnMethod.MERGE and spec.nt <= spec.ns:
        return "none", 0  # a Merge shrink spawns nothing
    if n_failed <= MAX_RETRIES:
        return "retry", n_failed
    return "shrink", MAX_RETRIES


def crash_lane(problems: list[str]) -> None:
    t0 = time.perf_counter()
    by_config = collections.defaultdict(collections.Counter)
    totals = collections.Counter()
    sites = collections.Counter()
    for spec in crash_specs():
        outcome, where, _ = run_cell(spec)
        by_config[spec.config.key][outcome] += 1
        totals[outcome] += 1
        if outcome == "CommFailedError":
            sites[where] += 1
        if outcome not in BENIGN:
            key = (spec.config.key, spec.ns, spec.nt, spec.faults)
            problems.append(f"{key}: {outcome} {where}")
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


def spawnfail_lane(problems: list[str]) -> None:
    t0 = time.perf_counter()
    rungs = collections.Counter()
    for spec in spawnfail_specs():
        metrics = MetricsRegistry()
        outcome, where, res = run_cell(spec, metrics)
        n_failed = spec.faults.count("spawnfail")
        key = (spec.config.key, spec.ns, spec.nt, spec.faults)
        if outcome != "completed":
            problems.append(f"{key}: {outcome} {where}")
            continue
        rung = _rung(metrics)
        rungs[n_failed, rung, res.retries] += 1
        want, want_retries = _expected_rung(spec, n_failed)
        if (rung, res.retries) != (want, want_retries):
            problems.append(f"{key}: {rung} retries={res.retries}, expected "
                            f"{want} retries={want_retries}")
    elapsed = time.perf_counter() - t0
    print("spawn-failure cells by failed spawns, recovery rung and retries:")
    for (n_failed, rung, retries), n in sorted(rungs.items()):
        print(f"  {n:>4}  {n_failed} failed  {rung:<18} retries={retries}")
    print(f"{sum(rungs.values())} cells completed in {elapsed:.1f} s")


def main() -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    problems: list[str] = []
    crash_lane(problems)
    spawnfail_lane(problems)
    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
