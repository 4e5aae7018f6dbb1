"""Shared options for the ablation and statistics benchmarks.  The
ablations always run at ``tiny``; ``--bench-scale`` selects the scale of
the statistics protocol bench only (``small`` runs it closer to paper
scale)."""

from __future__ import annotations

import pytest

from repro.synthetic.presets import SCALES


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale", default="tiny", choices=sorted(SCALES),
        help="preset the statistics protocol bench runs at (default: tiny); "
        "the ablations always run at tiny",
    )


@pytest.fixture(scope="session")
def bench_scale(request) -> str:
    return request.config.getoption("--bench-scale")


def run_once(benchmark, fn):
    """Benchmark a deterministic analysis exactly once (the simulations
    dominate the cost; re-running would only re-measure numpy calls)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
