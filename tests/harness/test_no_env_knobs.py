"""Standing gate: nothing under ``src/`` or ``benchmarks/`` reads the
process environment.

Every behaviour switch is an argument someone passes and a test can see;
``benchmarks/e2e/bench.py`` refuses to run with a ``REPRO_*`` variable
set precisely because none of them may mean anything.  ``benchmarks/e2e/``
itself is not walked: it names the variables to refuse them.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
KNOB = re.compile(r"os\.environ|os\.getenv|\bgetenv\(|REPRO_")


def env_reads(top: Path, skip: tuple = ()) -> list[str]:
    return [
        f"{path.relative_to(ROOT)}:{n}: {line.strip()}"
        for path in sorted(top.rglob("*.py"))
        if not any(part in path.parents for part in skip)
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if KNOB.search(line)
    ]


def test_src_reads_no_environment_variables():
    hits = env_reads(ROOT / "src")
    assert not hits, "\n".join(hits)


def test_benchmarks_read_no_environment_variables():
    bench = ROOT / "benchmarks"
    hits = env_reads(bench, skip=(bench / "e2e",))
    assert not hits, "\n".join(hits)
