"""``bench.py --compare A.json B.json``: judge document B against base A.

One row per workload.  Every end-to-end metric gets a verdict by the bound
``BENCHMARK.json`` fixes for it; the relative change is always against A's
median, signed so that **positive means worse**:

* ``worse`` / ``better`` — B's median moved by more than the bound;
* ``same`` — it stayed within the bound;
* ``unresolved`` — A's own inter-quartile spread is wider than the bound and
  the two sides' runs overlap, so the bound cannot be checked (also: a fleet
  measured on fewer cores than it has workers).

The simulated-world counts and ``sim_digest`` must match exactly between two
versions of a program that only differ in speed; mismatches are listed, and
mean the model changed.  Exit code 1 on any ``worse`` or any rise in
``ops_failed_frac``.
"""

from __future__ import annotations

import json
from pathlib import Path

#: units whose per-layer metrics count simulated-world things (they repeat
#: exactly); ``*.calls`` and ring stalls are host-side and excluded.
EXACT_UNITS = ("count", "bytes", "rows", "sim_s")


def verdict(metric: dict, a: dict, b: dict) -> tuple[float, str]:
    """``(relative worsening of B against A, verdict)`` for one metric."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    bound = metric["bound"]
    if (a["q3"] - a["q1"]) / a["median"] > bound:
        lo_a, hi_a = min(a["values"]), max(a["values"])
        lo_b, hi_b = min(b["values"]), max(b["values"])
        if not (hi_b < lo_a or lo_b > hi_a):  # runs overlap: cannot tell
            return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "same"


def exact_mismatches(a: dict, b: dict) -> list[str]:
    out = [] if a["sim_digest"] == b["sim_digest"] else ["sim_digest"]
    for name, m in a["per_layer"].items():
        if (
            m["unit"] in EXACT_UNITS
            and not name.endswith(".calls")
            and name != "harness.fleet.ring_stalls"
            and b["per_layer"].get(name, m)["value"] != m["value"]
        ):
            out.append(name)
    return out


def main(spec: dict, path_a: str, path_b: str) -> int:
    doc_a = json.loads(Path(path_a).read_text())
    doc_b = json.loads(Path(path_b).read_text())
    for key in ("mode", "seed"):
        if doc_a[key] != doc_b[key]:
            print(f"compare: {key} differs ({doc_a[key]} vs {doc_b[key]}); "
                  "these documents do not measure the same inputs")
            return 2
    print(f"base A = {path_a} ({doc_a['provenance']['git_sha'][:12]})   "
          f"B = {path_b} ({doc_b['provenance']['git_sha'][:12]})   "
          "change = (B - A) / A, positive is worse")
    bad = False
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            print(f"{name}: missing from B")
            bad = True
            continue
        cells = []
        for metric in spec["end_to_end"]:
            ea, eb = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            change, word = verdict(metric, ea, eb)
            if a["underprovisioned"] or b["underprovisioned"]:
                word = "unresolved"
            bad |= word == "worse"
            cells.append(
                f"{metric['name']} {ea['median']:.5g} "
                f"[{ea['q1']:.5g}, {ea['q3']:.5g}] -> {eb['median']:.5g} "
                f"[{eb['q1']:.5g}, {eb['q3']:.5g}] {metric['unit']} "
                f"{change:+.1%} {word}"
            )
        fa, fb = a["ops_failed_frac"], b["ops_failed_frac"]
        bad |= fb > fa
        cells.append(
            f"ops_failed_frac {fa:.4g} -> {fb:.4g} "
            f"{'worse' if fb > fa else 'same'}"
        )
        differing = exact_mismatches(a, b)
        cells.append(
            "exact counts and sim_digest identical" if not differing
            else f"model changed: {', '.join(differing)} differ"
        )
        print(f"{name}: " + " | ".join(cells))
    return 1 if bad else 0
