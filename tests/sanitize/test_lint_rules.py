"""One buggy + one clean snippet per REP lint rule, plus driver/CLI tests.

Mirrors test_runtime_rules.py: every positive snippet asserts exactly its
rule fires and every clean twin asserts zero findings.  The last test is
the self-gate: the lint must be clean over the repo's own ``src/`` tree.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.sanitize import REP_RULES
from repro.sanitize.lint import lint_paths, lint_source, main

SRC = Path(__file__).resolve().parents[2] / "src"
#: any path ending in a hot-path suffix triggers the REP005 scope.
HOT = "src/repro/smpi/requests.py"


def lint(snippet: str, path: str = "pkg/mod.py", **kw):
    return lint_source(textwrap.dedent(snippet), path, **kw)


def rules_of(findings) -> list[str]:
    return sorted({f.rule for f in findings})


# ------------------------------------------------------------------ REP001
@pytest.mark.parametrize("snippet", [
    "import time\n\ndef f():\n    return time.time()\n",
    "import time\n\ndef f():\n    return time.perf_counter_ns()\n",
    "from time import monotonic\n\ndef f():\n    return monotonic()\n",
    "import datetime\n\ndef f():\n    return datetime.datetime.now()\n",
    "from datetime import datetime\n\ndef f():\n    return datetime.utcnow()\n",
    "from datetime import date\n\ndef f():\n    return date.today()\n",
])
def test_rep001_wall_clock_detected(snippet):
    assert rules_of(lint(snippet)) == ["REP001"]


def test_rep001_clean_for_simulated_time_and_sleep():
    clean = """
    import time

    def f(sim):
        time.sleep(0.0)      # suspends the host thread, reads no clock
        return sim.now       # the simulated clock is the contract
    """
    assert lint(clean) == []


# ------------------------------------------------------------------ REP002
@pytest.mark.parametrize("snippet", [
    "import random\n\ndef f():\n    return random.random()\n",
    "import random\n\ndef f(xs):\n    random.shuffle(xs)\n",
    "from random import randint\n\ndef f():\n    return randint(0, 3)\n",
    "import numpy as np\n\ndef f():\n    return np.random.rand(4)\n",
    "from numpy import random\n\ndef f():\n    return random.permutation(3)\n",
])
def test_rep002_unseeded_randomness_detected(snippet):
    assert rules_of(lint(snippet)) == ["REP002"]


def test_rep002_clean_for_seeded_generators():
    clean = """
    import numpy as np

    def f(seed):
        rng = np.random.default_rng(seed)
        ss = np.random.SeedSequence(seed)
        return rng.random(4), ss
    """
    assert lint(clean) == []


# ------------------------------------------------------------------ REP003
@pytest.mark.parametrize("snippet", [
    "def f(xs):\n    for x in set(xs):\n        print(x)\n",
    "def f():\n    for x in {1, 2, 3}:\n        print(x)\n",
    "def f(xs):\n    return [x for x in {c for c in xs}]\n",
    "def f(a, xs):\n    for x in a | set(xs):\n        print(x)\n",
])
def test_rep003_bare_set_iteration_detected(snippet):
    assert rules_of(lint(snippet)) == ["REP003"]


def test_rep003_clean_for_sorted_and_fromkeys():
    clean = """
    def f(xs):
        for x in sorted(set(xs)):
            print(x)
        for x in dict.fromkeys(xs):
            print(x)
        if 3 in {1, 2, 3}:      # membership, not iteration
            return set(xs)      # building a set is fine
    """
    assert lint(clean) == []


# ------------------------------------------------------------------ REP004
def test_rep004_bare_except_detected():
    snippet = """
    def f():
        try:
            return 1
        except:
            return 2
    """
    assert rules_of(lint(snippet)) == ["REP004"]


def test_rep004_clean_for_named_exceptions():
    clean = """
    def f():
        try:
            return 1
        except (ValueError, KeyError):
            return 2
        except Exception:
            return 3
    """
    assert lint(clean) == []


# ------------------------------------------------------------------ REP005
def test_rep005_hot_path_class_without_slots_detected():
    snippet = "class Msg:\n    def __init__(self):\n        self.x = 1\n"
    assert rules_of(lint(snippet, path=HOT)) == ["REP005"]
    # The same class outside the hot-path module set is fine.
    assert lint(snippet, path="src/repro/harness/cli.py") == []


def test_rep005_clean_for_slotted_and_exempt_classes():
    clean = """
    from dataclasses import dataclass
    from enum import Enum

    class Msg:
        __slots__ = ("x",)

    class Kind(Enum):
        A = 1

    class TransportError(RuntimeError):
        pass

    @dataclass(frozen=True, slots=True)
    class Point:
        x: int
    """
    assert lint(clean, path=HOT) == []


# ------------------------------------------------------------------ REP006
@pytest.mark.parametrize("snippet", [
    "def f(mpi):\n    yield from mpi.isend(1.0, dest=1)\n",
    "def f(mpi):\n    yield from mpi.irecv(source=0)\n",
    "async def f(mpi):\n    await mpi.isend(1.0, dest=1)\n",
    "def f(mpi):\n    _ = yield from mpi.irecv(source=0)\n",
])
def test_rep006_discarded_request_detected(snippet):
    assert rules_of(lint(snippet)) == ["REP006"]


def test_rep006_clean_when_request_kept():
    clean = """
    def f(mpi):
        req = yield from mpi.isend(1.0, dest=1)
        yield from mpi.wait(req)
        yield from mpi.send(2.0, dest=1)   # blocking send returns no request
    """
    assert lint(clean) == []


# ------------------------------------------------------------------ REP008
@pytest.mark.parametrize("snippet", [
    # View fed straight into a struct pack.
    "def f(rec, d):\n    return rec.pack(*d.values())\n",
    # CSV row from a view.
    "def f(w, d):\n    w.writerow(d.values())\n",
    # Through a local variable.
    "def f(w, d):\n    vals = d.values()\n    w.writerow(vals)\n",
    # list() wrapper does not impose an order.
    "def f(w, d):\n    w.writerow(list(d.keys()))\n",
    # Comprehension iterating the view into a literal-string join.
    "def f(d):\n    return ','.join(str(v) for v in d.values())\n",
])
def test_rep008_dict_order_leak_detected(snippet):
    assert rules_of(lint(snippet)) == ["REP008"]


def test_rep008_clean_for_sorted_views():
    clean = """
    def f(w, rec, d):
        w.writerow(sorted(d.values()))
        rec.pack(*sorted(d.items()))
        for k in d.keys():          # iteration alone is deterministic
            print(k, d[k])
        return ",".join(str(k) for k in sorted(d))
    """
    assert lint(clean) == []


# ------------------------------------------------------------------ REP009
def test_rep009_transitive_rng_call_chain_detected():
    src = """
    import random

    def jitter():
        return random.random()  # repro: noqa[REP002] - fixture offender

    def delay():
        return 1.0 + jitter()

    def schedule(t):
        return t + delay()
    """
    findings = lint(src)
    assert rules_of(findings) == ["REP009"]
    # Both the jitter() and delay() call sites are flagged, with a chain.
    assert len(findings) == 2
    assert any("delay() -> jitter()" in f.message for f in findings)


def test_rep009_direct_call_is_rep002_not_rep009():
    src = "import random\n\ndef f():\n    return random.random()\n"
    assert rules_of(lint(src)) == ["REP002"]


def test_rep009_clean_for_seeded_chains():
    clean = """
    import numpy as np

    def jitter(rng):
        return rng.random()

    def delay(rng):
        return 1.0 + jitter(rng)

    def run(seed):
        return delay(np.random.default_rng(seed))
    """
    assert lint(clean) == []


# ------------------------------------------------------------------ REP010
def test_rep010_mutable_default_in_hot_path_detected():
    snippet = "def enqueue(item, queue=[]):\n    queue.append(item)\n"
    assert rules_of(lint(snippet, path=HOT)) == ["REP010"]
    # Same code outside the hot-path module set: no finding.
    assert lint(snippet, path="src/repro/harness/cli.py") == []


@pytest.mark.parametrize("default", ["{}", "set()", "dict()", "list()"])
def test_rep010_all_mutable_default_forms(default):
    snippet = f"def f(x, acc={default}):\n    return acc\n"
    assert rules_of(lint(snippet, path=HOT)) == ["REP010"]


def test_rep010_clean_for_none_and_immutable_defaults():
    clean = """
    def f(x, acc=None, tags=(), name="", k=3):
        if acc is None:
            acc = []
        return acc, tags, name, k
    """
    assert lint(clean, path=HOT) == []


# ------------------------------------------------------------- suppressions
def test_noqa_suppresses_named_rule_only():
    hit = "import time\n\ndef f():\n    return time.time()\n"
    ok = ("import time\n\ndef f():\n"
          "    return time.time()  # repro: noqa[REP001] - heartbeat\n")
    wrong = ("import time\n\ndef f():\n"
             "    return time.time()  # repro: noqa[REP002]\n")
    bare = ("import time\n\ndef f():\n"
            "    return time.time()  # repro: noqa\n")
    assert rules_of(lint(hit)) == ["REP001"]
    assert lint(ok) == []
    assert rules_of(lint(wrong)) == ["REP001"]  # wrong code: still fires
    assert lint(bare) == []  # bare form suppresses every rule on the line


def test_noqa_multiple_rules_one_line():
    src = ("import time, random\n\ndef f():\n"
           "    return time.time() + random.random()"
           "  # repro: noqa[REP001, REP002]\n")
    assert lint(src) == []


# ------------------------------------------------------------------ drivers
def test_select_filters_and_rejects_unknown():
    src = ("import time\n\ndef f(xs):\n"
           "    for x in set(xs):\n        print(time.time())\n")
    assert rules_of(lint(src)) == ["REP001", "REP003"]
    assert rules_of(lint(src, select=["REP003"])) == ["REP003"]
    with pytest.raises(ValueError, match="REP999"):
        lint(src, select=["REP999"])


def test_findings_carry_sorted_provenance():
    src = ("import time\n\ndef f(xs):\n"
           "    for x in set(xs):\n        print(time.time())\n")
    findings = lint(src, path="a/b.py")
    assert [f.rule for f in findings] == ["REP001", "REP003"]
    f = findings[0]
    assert f.path == "a/b.py" and f.line == 5
    assert f.format().startswith("a/b.py:5:")
    assert f.to_dict()["rule"] == "REP001"


def test_main_text_json_and_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    good = tmp_path / "good.py"
    good.write_text("def f(sim):\n    return sim.now\n")

    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REP001" in out and "1 finding(s)" in out

    assert main([str(good)]) == 0
    assert "clean: no findings" in capsys.readouterr().out

    assert main(["--format", "json", str(tmp_path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [d["rule"] for d in doc] == ["REP001"]
    assert doc[0]["path"] == str(bad)

    assert main(["--select", "REP004", str(bad)]) == 0
    assert main(["--list-rules", str(bad)]) == 0
    listed = capsys.readouterr().out
    assert all(code in listed for code in REP_RULES)


def test_main_rejects_unknown_select_rule(tmp_path, capsys):
    mod = tmp_path / "m.py"
    mod.write_text("def f():\n    return 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["--select", "REP001,REP999", str(mod)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown rule 'REP999'" in err
    assert "valid choices:" in err and "REP001" in err


# ------------------------------------------------------------- check-noqa
def test_check_noqa_flags_stale_suppressions(tmp_path, capsys):
    mod = tmp_path / "m.py"
    mod.write_text(
        "import time\n\n"
        "def f():\n"
        "    t = time.time()  # repro: noqa[REP001] - live keeper\n"
        "    x = 1  # repro: noqa[REP002] - nothing fires here\n"
        "    return t + x\n"
    )
    assert main(["--check-noqa", str(mod)]) == 1
    out = capsys.readouterr().out
    assert "unused suppression noqa[REP002]" in out
    assert "m.py:5" in out
    # The live REP001 keeper is not reported.
    assert "noqa[REP001]" not in out


def test_check_noqa_partial_staleness_reports_stale_subset(tmp_path, capsys):
    mod = tmp_path / "m.py"
    mod.write_text(
        "import time\n\n"
        "def f():\n"
        "    return time.time()  # repro: noqa[REP001,REP003] - half stale\n"
    )
    assert main(["--check-noqa", str(mod)]) == 1
    assert "unused suppression noqa[REP003]" in capsys.readouterr().out


def test_check_noqa_ignores_docstring_mentions(tmp_path, capsys):
    mod = tmp_path / "m.py"
    mod.write_text(
        '"""Suppress with ``# repro: noqa[REP001]`` on the line."""\n\n'
        "def f():\n    return 1\n"
    )
    assert main(["--check-noqa", str(mod)]) == 0
    assert "clean: no findings" in capsys.readouterr().out


def test_check_noqa_bare_form(tmp_path, capsys):
    mod = tmp_path / "m.py"
    mod.write_text("def f():\n    return 1  # repro: noqa\n")
    assert main(["--check-noqa", str(mod)]) == 1
    assert "bare noqa" in capsys.readouterr().out


def test_repo_source_tree_has_no_stale_noqa():
    from repro.sanitize.lint import check_noqa_paths

    stale = check_noqa_paths([SRC])
    assert stale == [], "\n".join(u.format() for u in stale)


# ---------------------------------------------------------------- self-gate
def test_repo_source_tree_is_lint_clean():
    """The gate CI enforces: the repo's own src/ carries zero findings."""
    findings = lint_paths([SRC])
    assert findings == [], "\n".join(f.format() for f in findings)
