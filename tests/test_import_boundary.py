"""Dependencies by layer (DESIGN.md §3): the simulator stack imports numpy
only.  ``scipy.sparse`` loads when a real CSR payload or matrix is built,
``scipy.stats`` when the paper's §4.3 statistics run.

A fresh interpreter is the only place where "is this module loaded?" means
anything, so the check runs in a subprocess.  It pins which modules are
loaded, not how long loading takes.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = (
    "simulate", "cluster", "smpi", "redistribution", "malleability",
    "synthetic", "harness", "rmsim", "analysis", "apps", "obs", "faults",
    "sanitize", "trace",
)

PROBE = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import importlib
for name in {PACKAGES!r}:
    importlib.import_module("repro." + name)
loaded = sorted(m for m in ("scipy.stats", "scipy.sparse") if m in sys.modules)
print("loaded after import:", loaded)

import repro.analysis
import repro.apps
h, p, _ = repro.analysis.kruskal_wallis(
    {{"a": [1.0, 2.0, 3.0], "b": [7.0, 8.0, 9.0]}}
)
a = repro.apps.laplacian_3d(4)
assert a.shape == (64, 64) and a.nnz == 64 + 2 * 3 * 48, (a.shape, a.nnz)
assert 0.0 < p < 0.1 and h > 0, (h, p)
print("call time ok")
"""


def test_simulator_stack_imports_no_scipy_stats_or_sparse():
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "loaded after import: []", done.stdout
    assert lines[1] == "call time ok", done.stdout
