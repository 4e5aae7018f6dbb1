"""Shared master sweep for the figure benchmarks.

Every figure of the paper is a view over the same evaluation grid, so the
benchmarks share one session-scoped sweep at ``tiny`` scale (full pair grid,
all 18 configurations, both fabrics).  Pass ``--bench-scale small`` to
re-run the benches closer to paper scale (minutes instead of seconds).
"""

from __future__ import annotations

import pytest

from repro.harness import run_sweep
from repro.malleability import ALL_CONFIGS
from repro.synthetic.presets import SCALES


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale", default="tiny", choices=sorted(SCALES),
        help="preset the figure benchmarks sweep at (default: tiny)",
    )


@pytest.fixture(scope="session")
def bench_scale(request) -> str:
    return request.config.getoption("--bench-scale")


@pytest.fixture(scope="session")
def master_results(bench_scale):
    """The full grid sweep every figure derives from."""
    preset = SCALES[bench_scale]
    return run_sweep(
        pairs=preset.pairs(),
        config_keys=[c.key for c in ALL_CONFIGS],
        fabrics=["ethernet", "infiniband"],
        scale=bench_scale,
        repetitions=preset.repetitions,
    )


def run_once(benchmark, fn):
    """Benchmark a deterministic analysis exactly once (sims dominate the
    cost and live in the shared fixture; re-running would only re-measure
    numpy calls)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
