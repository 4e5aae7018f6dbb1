"""Layer attribution for the traced repetition, measured from outside.

Nothing here touches ``src/``: host time comes from a ``cProfile`` pass the
driver starts around its own calls, folded by source file into the repo's
packages; exact counts come from a :class:`repro.obs.MetricsRegistry` the
workloads attach through the public ``metrics=`` / ``MetricsProbe.attach``
hooks.  Traced seconds are inflated ~3x by the profiler — read ``share``
and ``calls``, and take real seconds from the untraced runs.
"""

from __future__ import annotations

import cProfile
import contextlib
import functools
import pstats
from pathlib import Path

import numpy
import scipy

import repro
from repro.obs import MetricsRegistry

#: the repo's packages as layers, plus array libraries and everything else.
LAYERS = (
    "simulate",
    "cluster.cpu",
    "cluster.network",
    "smpi",
    "redistribution",
    "malleability",
    "synthetic",
    "harness",
    "rmsim",
    "analysis",
    "numpy",
    "other",
)

_REPRO_DIR = Path(repro.__file__).resolve().parent
_ARRAY_DIRS = tuple(
    str(Path(m.__file__).resolve().parent) for m in (numpy, scipy)
)


#: not a layer: what ``repro.obs`` spends recording into the attached
#: registry is the tracer's own cost (a fifth of a traced grid round), so it
#: is left out of the shares and shows only in ``trace.overhead_ratio``.
TRACER = "tracer"


def layer_of(filename: str) -> str:
    """Layer of one Python source file (``other`` when it is none of ours)."""
    if filename.startswith(_ARRAY_DIRS):
        return "numpy"
    try:
        parts = Path(filename).resolve().relative_to(_REPRO_DIR).parts
    except ValueError:
        return "other"
    if parts[0] == "obs":
        return TRACER
    if parts[0] == "cluster":
        # cpu.py is the processor-sharing model; machine/fabrics/storage
        # exist to route and carry bytes, so they count with the network.
        return "cluster.cpu" if parts[1] == "cpu.py" else "cluster.network"
    return parts[0] if parts[0] in LAYERS else "other"


class Trace:
    """What a traced round records into: one registry, one profiler."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.profile = cProfile.Profile()

    @contextlib.contextmanager
    def profiled(self):
        """Profile the enclosed block (a round's timed region only, so the
        driver's own output checks stay out of the layer shares)."""
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()

    def per_layer(self) -> dict[str, float]:
        """``<layer>.self_s/.share/.calls`` plus the exact registry counts."""
        folded = fold_profile(self.profile)
        total = sum(seconds for seconds, _ in folded.values())
        out = fold_registry(self.registry)
        for layer, (seconds, calls) in folded.items():
            out[f"{layer}.self_s"] = seconds
            out[f"{layer}.share"] = seconds / total if total else 0.0
            out[f"{layer}.calls"] = float(calls)
        return out


def fold_profile(profile: cProfile.Profile) -> dict[str, tuple[float, int]]:
    """``{layer: (self seconds, calls)}`` from one finished profile.

    A built-in has no file of its own, so each of its caller edges is
    charged to the caller's layer (``len()`` inside ``cluster/cpu.py`` is
    ``cluster.cpu`` time) — except numpy/scipy natives, which stay
    ``numpy`` whoever called them.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    layer_of_file = functools.lru_cache(maxsize=None)(layer_of)

    def charge(layer: str, seconds: float, n: int) -> None:
        if layer != TRACER:
            self_s[layer] += seconds
            calls[layer] += n

    for (filename, _, funcname), (_, nc, tt, _, callers) in pstats.Stats(
        profile
    ).stats.items():
        if filename != "~":
            charge(layer_of_file(filename), tt, nc)
        elif "numpy" in funcname or "scipy" in funcname:
            charge("numpy", tt, nc)
        elif not callers:
            charge("other", tt, nc)
        else:
            for (caller_file, _, _), (edge_nc, _, edge_tt, _) in callers.items():
                charge(
                    layer_of_file(caller_file) if caller_file != "~" else "other",
                    edge_tt,
                    edge_nc,
                )
    return {layer: (self_s[layer], calls[layer]) for layer in LAYERS}


#: per-layer count -> the registry counter family it sums.
_COUNTER_FAMILIES = {
    "cluster.network.reallocations": "cluster.allocator.reallocations",
    "cluster.network.fast_path_hits": "cluster.allocator.fast_path_hits",
    "cluster.network.bytes_carried": "cluster.network.bytes_carried",
    "cluster.cpu.tasks": "cluster.node.tasks",
    "smpi.messages": "smpi.messages",
    "smpi.bytes": "smpi.bytes",
    "smpi.progress_ticks": "smpi.progress_ticks",
    "redistribution.transfers": "redist.transfers",
    "redistribution.transfer_bytes": "redist.transfer_bytes",
    "redistribution.test_calls": "redist.test_calls",
}


def fold_registry(registry) -> dict[str, float]:
    """Exact per-layer counts from a registry (all 0 for an empty one).

    Labelled counters (``smpi.messages{comm=..,protocol=..}``) are summed
    per family; these are simulated-world counts, so they repeat exactly
    and a speed-up must leave every one of them unchanged.
    """
    doc = registry.to_dict()
    by_family: dict[str, float] = {}
    for key, value in doc["counters"].items():
        family = key.split("{", 1)[0]
        by_family[family] = by_family.get(family, 0.0) + value
    out = {
        name: by_family.get(family, 0.0)
        for name, family in _COUNTER_FAMILIES.items()
    }
    out["cluster.network.flows"] = float(
        doc["histograms"].get("cluster.flow_nbytes", {}).get("n", 0)
    )
    hits = out["cluster.network.fast_path_hits"]
    decided = hits + out["cluster.network.reallocations"]
    out["cluster.network.fast_path_ratio"] = hits / decided if decided else 0.0
    return out
