#!/usr/bin/env python3
"""The repo benchmark: five end-to-end workloads, named metrics, one traced run.

Three ways to call it (all from the repository root)::

    python3 benchmarks/e2e/bench.py [--seed N] [--quick] [--workload NAME] [--out FILE]
    python3 benchmarks/e2e/bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/bench.py --compare A.json B.json

The first is the whole benchmark: per workload it starts three untraced
repetitions and then one traced repetition, each a fresh child process and
one at a time, prints every metric by name with its unit and writes one JSON
document.  The second is what those children run (and what ``BENCHMARK.json``
names as the command): one repetition of one workload, ending in a single
JSON result line.  The third judges two documents against the bounds fixed
in ``BENCHMARK.json``.

Seed 0 is the development seed; seed 1 is held out to confirm a claim.
See ``README.md`` next to this file for the metric glossary.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any heavy import

import argparse
import importlib.metadata
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: fresh-process set-ups per repetition; ``setup_s`` is the fastest.  A shared
#: host only ever adds time to a set-up, in bursts, and the page faults of
#: ``redist_datapath``'s 0.5 GB of inputs cost either ~1.5 s or ~1.9 s from
#: one process to the next: the median of a few samples flips between the
#: two modes (21-26 % between two ten-run sets), the minimum does not.
SETUP_SAMPLES = 5
#: untraced repetitions per workload in the whole-benchmark mode.
REPETITIONS = 3
CHILD_TIMEOUT_S = 600


def refuse_knobs() -> None:
    """No ``REPRO_*`` knob may colour a measurement (the 774x lesson: a
    number measured under a hidden setting is not the number users get).
    The cell cache has no ambient switch; every sweep passes ``cache=None``."""
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        sys.exit(f"bench: refusing to run with {', '.join(knobs)} set")


def import_program():
    """Import the workloads against *this* checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {src / 'repro'} is missing")
    sys.path[:0] = [str(src), str(HERE)]
    import repro
    import tracing
    import workloads

    if src not in Path(repro.__file__).resolve().parents:
        sys.exit(f"bench: imported repro from {repro.__file__}, not {src}")
    return workloads, tracing


def visible_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return os.cpu_count() or 1


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The fleet's shared-memory rings start it as a child of this process; it
    otherwise ends only once this process is gone, so whoever waited for the
    benchmark would still find a process of it running.  Every segment is
    unlinked by ``shutdown_fleet`` before this, so nothing is left to track.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ---------------------------------------------------------- one repetition
def child_command(workload: str, args, *extra: str) -> list[str]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed), *extra,
    ]
    return cmd + ["--quick"] if args.quick else cmd


def fresh_setup_s(args) -> float:
    """Set-up seconds of one more fresh process (imports are most of the
    set-up, and only a new interpreter pays them again)."""
    done = subprocess.run(
        child_command(args.workload, args, "--setup-only"),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float) -> tuple[list, list]:
    """``(warm-up rounds, timed rounds)``, all untraced: the workload's
    warm-up first, then rounds for as long as ``seconds`` have not passed."""
    warm_up = [workload.round() for _ in range(workload.warm_up_rounds)]
    rounds = []
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds:
        rounds.append(workload.round())
    return warm_up, rounds


def op_tail_ms(rounds) -> float:
    """The highest percentile with ten samples beyond it: p95 once a round
    has 200 samples.  Otherwise nothing qualifies and the slowest operation
    stands in — each operation's median over the rounds first, so that one
    round's hiccup does not pick a different operation."""
    if len(rounds[0].op_s) >= 200:
        samples = [s for r in rounds for s in r.op_s]
        return 1e3 * statistics.quantiles(samples, n=20)[-1]
    return 1e3 * max(map(statistics.median, zip(*(r.op_s for r in rounds))))


def end_to_end(workload, rounds, setup_samples) -> dict[str, float]:
    """The repetition's fastest round stands for it, like its fastest
    set-up: the host's slow bursts last seconds (one run in ten of
    ``redist_datapath`` had a median round 30-90 % above the others'), so
    the median over a run's few rounds follows the host, the minimum the
    program.  Medians and quartiles are taken over repetitions."""
    best = min(rounds, key=lambda r: r.wall_s)
    return {
        "setup_s": min(setup_samples),
        "wall_s": best.wall_s,
        "ops_per_s": workload.work_per_round / best.wall_s,
        "op_p50_ms": 1e3 * statistics.median(best.op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_once(args, spec: dict) -> int:
    """One repetition of one workload; the last stdout line is the result."""
    refuse_knobs()
    # A polite kill unwinds through the ``finally`` below like any error.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads, tracing = import_program()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    setup_samples = [time.perf_counter() - _T0]
    if args.setup_only:
        print(repr(setup_samples[0]))
        return 0
    try:
        if not args.trace:
            setup_samples += [
                fresh_setup_s(args) for _ in range(SETUP_SAMPLES - 1)
            ]
        warm_up, timed = measure(workload, args.seconds)
        rounds = warm_up + timed
        if args.trace:
            trace = tracing.Trace()
            rounds.append(workload.round(trace))
        failed, verify_spans = workload.verify(rounds, thorough=bool(args.trace))
    finally:
        workload.close()
        stop_resource_tracker()

    attempted = workload.ops_per_round * len(rounds)
    failed += sum(r.failed for r in rounds) + sum(
        workload.ops_per_round for r in rounds[1:] if r.digest != rounds[0].digest
    )
    failed = min(failed, attempted)
    if args.trace:
        declared = spec["per_layer"]
        values = {
            **trace.per_layer(),
            # Real seconds, from the process's first round: the one that
            # also builds and compiles the plans, as a fresh run does.
            **rounds[0].spans,
            **verify_spans,
            "driver.op_tail_ms": op_tail_ms(timed),
            "trace.overhead_ratio": rounds[-1].wall_s
            / statistics.median(r.wall_s for r in timed),
        }
        unknown = values.keys() - {m["name"] for m in declared}
        if unknown:
            raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
    else:
        declared = spec["end_to_end"]
        values = end_to_end(workload, timed, setup_samples)
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    detail = {
        "rounds": len(rounds),
        "sim_digest": rounds[0].digest,
        "slowest_op": rounds[0].slowest,
        "underprovisioned": visible_cores() < workload.cores_needed,
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


# ------------------------------------------------------ the whole benchmark
def provenance() -> dict:
    def git(*cmd: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *cmd], capture_output=True, text=True,
            check=True,
        ).stdout.strip()

    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():  # the driver's checkouts are plain trees
        sha, dirty = git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cpu_count": os.cpu_count(),
        "visible_cores": visible_cores(),
        "loadavg_at_start": os.getloadavg(),
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
    }


def run_child(workload: str, args, trace: int, seconds: int) -> tuple[dict, dict]:
    """One repetition in a fresh process: ``(result line, detail line)``."""
    # Its own process group, so that a repetition that hangs is killed
    # together with the fleet workers it started.
    child = subprocess.Popen(
        child_command(
            workload, args, "--seconds", str(seconds), "--trace", str(trace)
        ),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench: {workload} repetition exited {child.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("detail "))


def run_suite(args, spec: dict) -> int:
    refuse_knobs()
    doc = {
        "schema": 1,
        "mode": "quick" if args.quick else "full",
        "seed": args.seed,
        "provenance": provenance(),
        "workloads": {},
    }
    seconds = 1 if args.quick else spec["run_seconds"]
    for declared in spec["workloads"]:
        name = declared["name"]
        if args.workload not in (None, name):
            continue
        print(f"== {name}: {REPETITIONS} untraced repetitions + 1 traced",
              flush=True)
        runs = [run_child(name, args, 0, seconds) for _ in range(REPETITIONS)]
        traced, traced_detail = run_child(name, args, 1, seconds)
        results = [r for r, _ in runs] + [traced]
        details = [d for _, d in runs] + [traced_detail]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        if len({d["sim_digest"] for d in details}) > 1:
            failed = attempted  # repetitions disagree: trust none of them
        entry = {
            "why": declared["why"],
            "underprovisioned": details[0]["underprovisioned"],
            "sim_digest": details[0]["sim_digest"],
            "slowest_op": details[0]["slowest_op"],
            "ops_attempted": attempted,
            "ops_failed": failed,
            "end_to_end": {},
            "per_layer": traced["metrics"],
        }
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r, _ in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][m["name"]] = {
                **m, "median": median, "q1": q1, "q3": q3,
                "n": len(values), "values": values,
            }
        doc["workloads"][name] = entry

    seq = doc["workloads"].get("grid18_tiny_seq")
    fleet = doc["workloads"].get("grid18_tiny_fleet")
    if seq and fleet and seq["sim_digest"] != fleet["sim_digest"]:
        fleet["ops_failed"] = fleet["ops_attempted"]
    for entry in doc["workloads"].values():
        entry["ops_failed_frac"] = entry["ops_failed"] / entry["ops_attempted"]

    print_suite(doc)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 1 if any(e["ops_failed"] for e in doc["workloads"].values()) else 0


def print_suite(doc: dict) -> None:
    for name, entry in doc["workloads"].items():
        flag = "  [underprovisioned: unresolved]" if entry["underprovisioned"] else ""
        print(f"\n== {name}{flag}")
        print(f"   sim_digest {entry['sim_digest']}   slowest op: {entry['slowest_op']}")
        for metric, m in entry["end_to_end"].items():
            print(
                f"   {metric:<14} {m['median']:>14.6g} {m['unit']:<6}"
                f" q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}"
            )
        print(
            f"   {'ops_failed_frac':<14} {entry['ops_failed_frac']:>14.6g}"
            f"        ({entry['ops_failed']} of {entry['ops_attempted']})"
        )
        for metric, m in entry["per_layer"].items():
            if m["value"]:
                print(f"     {metric:<42} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="only this workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives every generated input (0: development, "
                             "1: held-out confirmation)")
    parser.add_argument("--quick", action="store_true",
                        help="each workload cut ~10x, same metric names")
    parser.add_argument("--out", default=str(HERE / "out" / "bench.json"),
                        help="where the whole-benchmark document goes")
    parser.add_argument("--seconds", type=float,
                        help="one repetition: keep starting rounds this long")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one repetition: 0 end-to-end, 1 per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help="one repetition: print the set-up seconds and stop")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="judge document B against base A")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    if args.compare:
        sys.path.insert(0, str(HERE))
        import compare

        return compare.main(spec, *args.compare)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.trace is None and not args.setup_only:
        return run_suite(args, spec)
    if args.workload is None:
        parser.error("one repetition needs --workload")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())
