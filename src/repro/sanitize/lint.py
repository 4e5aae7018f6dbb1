"""Static determinism lint for the simulated stack (rules ``REP0xx``).

Byte-identical replays are the repo's core contract: every run must be a
pure function of its seed.  This lint enforces the source-level invariants
that keep it that way::

    python -m repro.sanitize.lint src/              # text report, exit 1 on hit
    python -m repro.sanitize.lint --format json src/
    python -m repro.sanitize.lint --select REP001,REP004 src/
    python -m repro.sanitize.lint --check-noqa src/ # also flag stale noqa

Two passes per file: a symbol-table pass (:class:`_ModuleIndex`) records
import bindings and the module-local call graph (with its transitive
unseeded-RNG closure); the checking pass (:class:`_Visitor`) then
consults that table, which is what lets REP009 flag call *sites* whose
callee only reaches unseeded randomness transitively.  REP008 follows
dict views through local variables into wire sinks.

Rules (see :data:`repro.sanitize.findings.REP_RULES`):

======  ==============================================================
REP001  wall-clock call (``time.time``/``monotonic``/``perf_counter``,
        ``datetime.now``/``utcnow``) in simulation code
REP002  unseeded randomness (``random.*`` module functions, the global
        ``np.random.*`` generator); use ``np.random.default_rng(seed)``
REP003  iteration over a bare ``set`` expression (set order is not a
        deterministic contract)
REP004  bare ``except:`` (swallows ``ProcessKilled`` and friends)
REP005  hot-path class without ``__slots__`` (kernel commands, events,
        requests and messages are allocated at very high rates)
REP006  ``isend``/``irecv`` result discarded (the request can never be
        waited or tested — a guaranteed leak at finalize)
REP008  dict-iteration order leaked into a wire/CSV record (``.pack``,
        ``writerow``, ``dumps``, literal-string ``join``)
REP009  unseeded randomness reachable through a module-local call chain
        from this call site
REP010  mutable default argument in a hot-path module (shared across
        calls)
======  ==============================================================

Suppressions are explicit and per-line; one comment may list several
rules::

    t0 = time.time()  # repro: noqa[REP001] - progress heartbeat only
    x = noisy()       # repro: noqa[REP001,REP002] - host-side probe

``# repro: noqa`` without a rule list suppresses every rule on that line.
Suppression comments are intentionally *not* flake8's bare ``# noqa`` so
the two tools never shadow each other.  ``--check-noqa`` reports
suppressions whose rules can no longer fire on their line — stale
comments are themselves a determinism-audit hazard.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .findings import Finding, REP_RULES

__all__ = [
    "lint_file",
    "lint_paths",
    "lint_source",
    "check_noqa_source",
    "check_noqa_paths",
    "UnusedSuppression",
    "main",
]

#: ``time`` module attributes that read the wall clock.
_WALL_TIME_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})
#: ``datetime``/``date`` class methods that read the wall clock.
_WALL_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
#: ``random`` module-level functions backed by the unseeded global state.
_RANDOM_MODULE_FUNCS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "lognormvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "triangular", "getrandbits", "seed", "randbytes",
})
#: ``np.random.*`` names that are *allowed* (seeded-generator entry points).
_NP_RANDOM_OK = frozenset({"default_rng", "Generator", "SeedSequence",
                           "BitGenerator", "PCG64", "Philox", "MT19937"})

#: path suffixes whose classes are allocated on the simulator hot path and
#: therefore must declare ``__slots__`` (REP005) and whose functions must
#: not share mutable defaults across calls (REP010).
_HOT_PATH_SUFFIXES = (
    "repro/simulate/core.py",
    "repro/simulate/events.py",
    "repro/simulate/primitives.py",
    "repro/smpi/requests.py",
    "repro/smpi/datatypes.py",
    "repro/smpi/status.py",
    "repro/smpi/endpoint.py",
)

#: call attributes that serialize their arguments onto a wire/record
#: boundary (REP008): struct packing, CSV rows, pickled/JSON dumps.
_WIRE_SINK_ATTRS = frozenset({"pack", "pack_into", "writerow", "writerows",
                              "dumps"})
#: dict methods returning iteration-order-sensitive views.
_DICT_VIEW_ATTRS = frozenset({"keys", "values", "items"})

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?")


def _noqa_rules(line: str) -> Optional[frozenset[str]]:
    """Rules suppressed on ``line``: a set, empty set = suppress all,
    or ``None`` when there is no suppression comment at all."""
    m = _NOQA_RE.search(line)
    if m is None:
        return None
    rules = m.group("rules")
    if rules is None:
        return frozenset()
    return frozenset(r.strip() for r in rules.split(",") if r.strip())


# =============================================================== pass 1
class _ModuleIndex(ast.NodeVisitor):
    """Module symbol table: import bindings and the local call graph with
    its transitive unseeded-RNG closure."""

    def __init__(self) -> None:
        #: local names bound to the ``time`` module.
        self.time_mods: set[str] = set()
        #: local names bound to wall-clock functions (``from time import``).
        self.wall_funcs: set[str] = set()
        #: local names bound to the ``datetime`` *module*.
        self.datetime_mods: set[str] = set()
        #: local names bound to the ``datetime.datetime``/``date`` classes.
        self.datetime_classes: set[str] = set()
        #: local names bound to the ``random`` module.
        self.random_mods: set[str] = set()
        #: local names bound to unseeded ``random`` functions.
        self.random_funcs: set[str] = set()
        #: local names bound to the numpy package.
        self.numpy_mods: set[str] = set()
        #: local names bound to ``numpy.random``.
        self.np_random_mods: set[str] = set()
        #: module-local function/method definitions by bare name.
        self.functions: dict[str, ast.AST] = {}
        #: function name -> " -> "-joined witness chain to unseeded RNG,
        #: for every function whose local call graph reaches one.
        self.rng_reach: dict[str, str] = {}

    # --------------------------------------------------------------- imports
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "time":
                self.time_mods.add(bound)
            elif alias.name == "datetime":
                self.datetime_mods.add(bound)
            elif alias.name == "random":
                self.random_mods.add(bound)
            elif alias.name in ("numpy", "numpy.random"):
                if alias.name == "numpy.random" and alias.asname:
                    self.np_random_mods.add(alias.asname)
                else:
                    self.numpy_mods.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "time" and alias.name in _WALL_TIME_ATTRS:
                self.wall_funcs.add(bound)
            elif node.module == "datetime" and alias.name in ("datetime", "date"):
                self.datetime_classes.add(bound)
            elif node.module == "random" and alias.name in _RANDOM_MODULE_FUNCS:
                self.random_funcs.add(bound)
            elif node.module == "numpy" and alias.name == "random":
                self.np_random_mods.add(bound)
        self.generic_visit(node)

    # ------------------------------------------------------------- functions
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.functions[node.name] = node
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.functions[node.name] = node
        self.generic_visit(node)

    # -------------------------------------------------------------- closure
    @staticmethod
    def _local_callee(func: ast.expr) -> Optional[str]:
        """Bare name when a call targets a module-local function/method."""
        if isinstance(func, ast.Name):
            return func.id
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")):
            return func.attr
        return None

    def finalize(self) -> None:
        """Compute the transitive unseeded-RNG closure of the call graph."""
        calls: dict[str, set[str]] = {}
        direct: dict[str, str] = {}
        for name, fn in self.functions.items():
            callees: set[str] = set()
            for sub in ast.walk(fn):
                if not isinstance(sub, ast.Call):
                    continue
                desc = _rng_call_desc(self, sub.func)
                if desc is not None and name not in direct:
                    direct[name] = desc
                callee = self._local_callee(sub.func)
                if callee is not None and callee in self.functions:
                    callees.add(callee)
            calls[name] = callees
        # BFS from the direct offenders, recording one witness chain each.
        self.rng_reach = {
            name: f"{name}() -> {desc}" for name, desc in direct.items()
        }
        changed = True
        while changed:
            changed = False
            for name, callees in calls.items():
                if name in self.rng_reach:
                    continue
                for callee in sorted(callees):
                    if callee in self.rng_reach:
                        self.rng_reach[name] = (
                            f"{name}() -> {self.rng_reach[callee]}")
                        changed = True
                        break


def _rng_call_desc(index: "_ModuleIndex", func: ast.expr) -> Optional[str]:
    """Description when calling ``func`` hits unseeded global RNG state."""
    if isinstance(func, ast.Name):
        if func.id in index.random_funcs:
            return f"{func.id}()"
    elif isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            if (base.id in index.random_mods
                    and func.attr in _RANDOM_MODULE_FUNCS):
                return f"{base.id}.{func.attr}()"
            if (base.id in index.np_random_mods
                    and func.attr not in _NP_RANDOM_OK):
                return f"np.random.{func.attr}()"
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            if (base.value.id in index.numpy_mods
                    and base.attr == "random"
                    and func.attr not in _NP_RANDOM_OK):
                return f"np.random.{func.attr}()"
    return None


def _wall_call_desc(index: "_ModuleIndex", func: ast.expr) -> Optional[str]:
    """Description when calling ``func`` reads the wall clock."""
    if isinstance(func, ast.Name):
        if func.id in index.wall_funcs:
            return f"{func.id}()"
    elif isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in index.time_mods and func.attr in _WALL_TIME_ATTRS:
                return f"{base.id}.{func.attr}()"
            if (base.id in index.datetime_classes
                    and func.attr in _WALL_DATETIME_ATTRS):
                return f"{base.id}.{func.attr}()"
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            if (base.value.id in index.datetime_mods
                    and base.attr in ("datetime", "date")
                    and func.attr in _WALL_DATETIME_ATTRS):
                return f"{base.value.id}.{base.attr}.{func.attr}()"
    return None


# =============================================================== pass 2
class _Visitor(ast.NodeVisitor):
    """One file's worth of determinism checks, consulting the module index."""

    def __init__(self, path: str, lines: Sequence[str], hot_path: bool,
                 index: _ModuleIndex):
        self.path = path
        self.lines = lines
        self.hot_path = hot_path
        self.index = index
        self.findings: list[Finding] = []
        #: findings a suppression comment silenced (kept for --check-noqa).
        self.suppressed: list[Finding] = []
        #: per-function-scope names currently bound to unsorted dict views.
        self._view_scopes: list[set[str]] = []

    # ------------------------------------------------------------- reporting
    def _emit(self, rule: str, message: str, node: ast.AST) -> None:
        line = getattr(node, "lineno", 1)
        source = self.lines[line - 1] if line - 1 < len(self.lines) else ""
        finding = Finding(
            rule=rule, message=message, path=self.path,
            line=line, col=getattr(node, "col_offset", 0),
        )
        suppressed = _noqa_rules(source)
        if suppressed is not None and (not suppressed or rule in suppressed):
            self.suppressed.append(finding)
            return
        self.findings.append(finding)

    # ----------------------------------------------------------------- calls
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        wall = _wall_call_desc(self.index, func)
        if wall is not None:
            self._emit("REP001", f"wall-clock call {wall}; "
                       "simulation code must use sim.now", node)
        rng = _rng_call_desc(self.index, func)
        if rng is not None:
            if rng.startswith("np.random."):
                self._emit("REP002", f"{rng[:-2]}() uses the unseeded global "
                           "generator; use np.random.default_rng(seed)", node)
            else:
                self._emit("REP002", f"unseeded randomness {rng}; "
                           "use np.random.default_rng(seed)", node)
        self._check_rng_reachability(node)
        self._check_wire_sink(node)
        self.generic_visit(node)

    # ------------------------------------------------------------- iteration
    @staticmethod
    def _is_bare_set(expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
                and expr.func.id in ("set", "frozenset")):
            return True
        if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)):
            # ``a | b`` etc. over sets: only flag when a side is clearly a set.
            return (_Visitor._is_bare_set(expr.left)
                    or _Visitor._is_bare_set(expr.right))
        return False

    def _check_iter(self, iter_node: ast.AST, where: ast.AST) -> None:
        if self._is_bare_set(iter_node):
            self._emit("REP003",
                       "iteration over a bare set expression; set order is "
                       "not deterministic across processes — sort it or use "
                       "dict.fromkeys", where)

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter, node)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter, node.iter)
        self.generic_visit(node)

    # ---------------------------------------------------------------- except
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit("REP004",
                       "bare 'except:' swallows everything including "
                       "ProcessKilled; name the exceptions", node)
        self.generic_visit(node)

    # ----------------------------------------------------------------- slots
    @staticmethod
    def _has_slots(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for tgt in targets:
                if isinstance(tgt, ast.Name) and tgt.id == "__slots__":
                    return True
        return False

    @staticmethod
    def _is_exempt_class(node: ast.ClassDef) -> bool:
        names = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                names.append(base.id)
            elif isinstance(base, ast.Attribute):
                names.append(base.attr)
        if any(n in ("Enum", "IntEnum", "Flag", "Protocol") or
               n.endswith(("Error", "Exception", "Warning")) for n in names):
            return True
        if node.name.endswith(("Error", "Exception", "Warning")):
            return True
        # dataclass(slots=True) generates __slots__ at class-build time.
        for dec in node.decorator_list:
            if isinstance(dec, ast.Call):
                for kw in dec.keywords:
                    if (kw.arg == "slots"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True):
                        return True
        return False

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if (self.hot_path and not self._has_slots(node)
                and not self._is_exempt_class(node)):
            self._emit("REP005",
                       f"hot-path class {node.name} lacks __slots__ "
                       "(this module's objects are allocated per "
                       "message/event)", node)
        self.generic_visit(node)

    # -------------------------------------------------------- dropped requests
    @staticmethod
    def _request_call(expr: ast.AST) -> Optional[str]:
        """Name of the isend/irecv being called, unwrapping yield-from."""
        if isinstance(expr, ast.YieldFrom):
            expr = expr.value
        if isinstance(expr, ast.Await):
            expr = expr.value
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        attr = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if attr in ("isend", "irecv"):
            return attr
        return None

    def visit_Expr(self, node: ast.Expr) -> None:
        attr = self._request_call(node.value)
        if attr is not None:
            self._emit("REP006",
                       f"{attr}() result discarded: the request can never "
                       "be waited or tested (guaranteed leak at finalize)",
                       node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        attr = self._request_call(node.value)
        if attr is not None and all(
                isinstance(t, ast.Name) and t.id == "_" for t in node.targets):
            self._emit("REP006",
                       f"{attr}() request assigned to '_' and dropped; keep "
                       "it and wait/test it", node)
        self._track_view_binding(node)
        self.generic_visit(node)

    # ----------------------------------------------- REP008 dict-order leaks
    def _is_dict_view(self, expr: ast.AST) -> bool:
        """Does ``expr`` iterate a dict view in its (unsorted) wire order?"""
        if (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in _DICT_VIEW_ATTRS
                and not expr.args and not expr.keywords):
            return True
        if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
                and expr.func.id in ("list", "tuple") and len(expr.args) == 1):
            return self._is_dict_view(expr.args[0])
        if isinstance(expr, ast.Starred):
            return self._is_dict_view(expr.value)
        if isinstance(expr, ast.Name):
            return any(expr.id in scope for scope in self._view_scopes)
        if isinstance(expr, (ast.GeneratorExp, ast.ListComp)):
            return any(self._is_dict_view(gen.iter)
                       for gen in expr.generators)
        return False

    def _is_wire_sink(self, func: ast.expr) -> bool:
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr in _WIRE_SINK_ATTRS:
            return True
        # Literal-string join builds a textual record: ",".join(d.values()).
        return (func.attr == "join"
                and isinstance(func.value, ast.Constant)
                and isinstance(func.value.value, str))

    def _check_wire_sink(self, node: ast.Call) -> None:
        if not self._is_wire_sink(node.func):
            return
        for arg in node.args:
            if self._is_dict_view(arg):
                self._emit("REP008",
                           "dict-iteration order fed into a wire/CSV "
                           "record; sort the view (or impose an explicit "
                           "order) before serialising", arg)

    def _track_view_binding(self, node: ast.Assign) -> None:
        if not self._view_scopes:
            return
        scope = self._view_scopes[-1]
        is_view = self._is_dict_view(node.value)
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                if is_view:
                    scope.add(tgt.id)
                else:
                    scope.discard(tgt.id)

    # ------------------------------------------ REP009 RNG via local chains
    def _check_rng_reachability(self, node: ast.Call) -> None:
        callee = _ModuleIndex._local_callee(node.func)
        if callee is None or callee not in self.index.rng_reach:
            return
        if _rng_call_desc(self.index, node.func) is not None:
            return  # the direct call is REP002's finding
        self._emit("REP009",
                   f"call reaches unseeded randomness through a local "
                   f"chain: {self.index.rng_reach[callee]}; thread a "
                   "seeded Generator instead", node)

    # -------------------------------------------- REP010 + function scoping
    @staticmethod
    def _is_mutable_default(expr: Optional[ast.expr]) -> bool:
        if isinstance(expr, (ast.List, ast.Dict, ast.Set)):
            return True
        return (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
                and expr.func.id in ("list", "dict", "set"))

    def _visit_function(self, node) -> None:
        if self.hot_path:
            args = node.args
            for default in list(args.defaults) + list(args.kw_defaults):
                if self._is_mutable_default(default):
                    self._emit("REP010",
                               f"mutable default argument in hot-path "
                               f"function {node.name}(); defaults are "
                               "shared across calls — use None and build "
                               "inside", default)
        self._view_scopes.append(set())
        self.generic_visit(node)
        self._view_scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)


# ------------------------------------------------------------------ drivers
def _analyze(source: str, path: str) -> _Visitor:
    """Run both passes over one source string."""
    posix = Path(path).as_posix()
    hot = posix.endswith(_HOT_PATH_SUFFIXES)
    tree = ast.parse(source, filename=path)
    index = _ModuleIndex()
    index.visit(tree)
    index.finalize()
    visitor = _Visitor(path, source.splitlines(), hot, index)
    visitor.visit(tree)
    return visitor


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Lint one source string; ``path`` is used for provenance and for the
    hot-path (REP005/REP010) module scoping."""
    findings = _analyze(source, path).findings
    if select is not None:
        wanted = set(select)
        unknown = wanted - set(REP_RULES)
        if unknown:
            raise ValueError(f"unknown lint rules selected: {sorted(unknown)}")
        findings = [f for f in findings if f.rule in wanted]
    return sorted(findings, key=Finding.sort_key)


def lint_file(path: Path, select: Optional[Iterable[str]] = None) -> list[Finding]:
    return lint_source(path.read_text(), str(path), select)


def lint_paths(
    paths: Sequence[Path],
    select: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Lint files and/or directories (recursing into ``*.py``)."""
    findings: list[Finding] = []
    for f in _expand(paths):
        findings.extend(lint_file(f, select))
    return sorted(findings, key=Finding.sort_key)


def _expand(paths: Sequence[Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    return files


# ------------------------------------------------------- stale suppressions
@dataclass(frozen=True)
class UnusedSuppression:
    """A ``# repro: noqa`` comment (or part of one) that silences nothing."""

    path: str
    line: int
    #: the stale rule codes, or () for a bare noqa with no findings at all.
    rules: tuple[str, ...]

    def format(self) -> str:
        what = (f"noqa[{', '.join(self.rules)}]" if self.rules
                else "bare noqa")
        return (f"{self.path}:{self.line}: unused suppression {what} — "
                "no such finding fires on this line")


def check_noqa_source(source: str, path: str = "<string>") -> list[UnusedSuppression]:
    """Report suppression comments whose rules can no longer fire.

    Comments are located with :mod:`tokenize` (COMMENT tokens only), so
    noqa examples inside docstrings — like the one in this module's own
    docstring — are never flagged.
    """
    visitor = _analyze(source, path)
    by_line: dict[int, set[str]] = {}
    for f in visitor.findings + visitor.suppressed:
        by_line.setdefault(f.line, set()).add(f.rule)
    out: list[UnusedSuppression] = []
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        declared = _noqa_rules(tok.string)
        if declared is None:
            continue
        line = tok.start[0]
        firing = by_line.get(line, set())
        if not declared:
            if not firing:
                out.append(UnusedSuppression(path, line, ()))
            continue
        stale = declared - firing
        if stale:
            out.append(UnusedSuppression(path, line, tuple(sorted(stale))))
    return out


def check_noqa_paths(paths: Sequence[Path]) -> list[UnusedSuppression]:
    out: list[UnusedSuppression] = []
    for f in _expand(paths):
        out.extend(check_noqa_source(f.read_text(), str(f)))
    return sorted(out, key=lambda u: (u.path, u.line, u.rules))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize.lint",
        description="Static determinism lint (REP0xx) for the simulated "
        "stack; exit code 1 when findings exist.",
    )
    parser.add_argument("paths", nargs="+", type=Path,
                        help="files or directories to lint")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule codes to run (default: all REP rules)",
    )
    parser.add_argument(
        "--check-noqa", action="store_true",
        help="also flag '# repro: noqa' suppressions whose rules no longer "
        "fire on their line (stale comments fail the run)",
    )
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)
    if args.list_rules:
        for code, doc in REP_RULES.items():
            print(f"{code}  {doc}")
        return 0
    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
        unknown = [r for r in select if r not in REP_RULES]
        if unknown:
            parser.error(
                f"unknown rule {unknown[0]!r}; valid choices: "
                f"{', '.join(REP_RULES)}")
    missing = [p for p in args.paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {missing[0]}")
    findings = lint_paths(args.paths, select)
    stale = check_noqa_paths(args.paths) if args.check_noqa else []
    if args.format == "json":
        doc = [f.to_dict() for f in findings]
        doc.extend({"unused_noqa": {"path": u.path, "line": u.line,
                                    "rules": list(u.rules)}} for u in stale)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for f in findings:
            print(f.format())
        for u in stale:
            print(u.format())
        n = len(findings) + len(stale)
        print(f"{n} finding(s)" if n else "clean: no findings")
    return 1 if (findings or stale) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
