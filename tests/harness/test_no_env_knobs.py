"""Standing gate: nothing under ``src/`` reads the process environment.

Every behaviour switch is an argument someone passes and a test can see;
``benchmarks/e2e/bench.py`` refuses to run with a ``REPRO_*`` variable
set precisely because none of them may mean anything.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_src_reads_no_environment_variables():
    knob = re.compile(r"os\.environ|os\.getenv|\bgetenv\(|REPRO_")
    hits = [
        f"{path.relative_to(SRC)}:{n}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if knob.search(line)
    ]
    assert not hits, "\n".join(hits)
