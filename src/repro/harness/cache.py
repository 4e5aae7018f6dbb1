"""Deterministic sweep-cell result cache.

Every cell of a sweep is a pure function of its :class:`RunSpec`, the base
:class:`~repro.synthetic.configfile.SyntheticConfig` and the code that
interprets them: the simulation is seeded by :func:`~repro.harness.runner.
_seed_of` and history-independent (the PR 1 contract), so an identical
cell re-run produces identical numbers.  This module memoizes cells on
disk so re-running a figure sweep (the common workflow: tweak the report,
re-run the CLI) costs milliseconds instead of minutes.

Keying — the cache token concatenates, in order:

* :data:`CACHE_VERSION` (bump on any entry-format change);
* the **code digest** (:func:`code_digest`): a sha256 over the ``repro``
  package's ``.py`` files, so an edit to the simulator never serves the
  rows of the code before it;
* the observability **schema fingerprint**
  (:func:`repro.obs.schema.schema_fingerprint`) — metrics-shape changes
  invalidate every entry that carries a metrics document;
* every :class:`RunSpec` field (ns, nt, config key, fabric, scale, rep,
  plan_mode, canonical faults spec) — also the seed inputs;
* whether a metrics document was requested;
* the ``repr`` of the base synthetic config and of the scale preset, so
  edited workloads or presets never serve stale entries.

Entries are one JSON file per cell named by the SHA-256 of the token,
holding the cell's results-CSV row
(:func:`~repro.harness.runner.result_to_row`) and its metrics document.
The full token is stored *inside* the entry and verified on load, so a
(astronomically unlikely) prefix collision, a corrupt/truncated file or
a row that is not exactly one full CSV record degrades to a cache miss,
never a wrong result.  Writes are atomic
(tempfile + ``os.replace``), so concurrent sweeps sharing a cache
directory cannot observe torn entries.

Values round-trip exactly: the row holds each field's ``str`` (a float's
``repr``), which the CSV reader parses back bit-for-bit with ints staying
ints — which is what makes a cached sweep's CSV **byte-identical** to an
uncached one.

Sanitized sweeps bypass the cache entirely (findings are about the run,
not the result, and must be regenerated), as does anything the caller
does not route through :func:`CellCache.get` / :func:`CellCache.put`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

__all__ = ["CACHE_VERSION", "CellCache"]

#: Bump to invalidate every existing cache entry on an entry-format change
#: (a change of cell semantics moves :func:`code_digest` instead).
CACHE_VERSION = 2

#: Field separator inside the token (never appears in any component).
_SEP = "\x1f"


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """sha256 over the sorted relative paths and bytes of the ``repro``
    package's ``.py`` files, computed once per process."""
    package = Path(__file__).resolve().parent.parent
    h = hashlib.sha256()
    files = {p.relative_to(package).as_posix(): p for p in package.rglob("*.py")}
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        h.update(files[rel].read_bytes() + b"\0")
    return h.hexdigest()


class CellCache:
    """Directory-backed memo of ``(RunResult, metrics_doc)`` per sweep cell."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        #: hit/miss tally for this instance (bench disclosure).
        self.hits = 0
        self.misses = 0

    @classmethod
    def coerce(
        cls, cache: "Union[CellCache, str, Path, None]"
    ) -> "Optional[CellCache]":
        """Accept ``None`` (caching off), a path, or a ready instance."""
        if cache is None or isinstance(cache, CellCache):
            return cache
        return cls(cache)

    # ------------------------------------------------------------- keying
    @staticmethod
    def token(spec, base, with_metrics: bool) -> str:
        """The full invalidation token for one cell (see module docstring)."""
        from ..obs import schema_fingerprint
        from ..synthetic.presets import SCALES

        preset = SCALES.get(spec.scale)
        return _SEP.join(
            (
                f"v{CACHE_VERSION}",
                code_digest(),
                schema_fingerprint() if with_metrics else "nometrics-schema",
                str(spec.ns),
                str(spec.nt),
                spec.config.key,
                spec.fabric,
                spec.scale,
                str(spec.rep),
                spec.plan_mode,
                spec.faults,
                "metrics" if with_metrics else "nometrics",
                repr(base),
                repr(preset),
            )
        )

    def _path(self, token: str) -> Path:
        digest = hashlib.sha256(token.encode()).hexdigest()[:24]
        return self.root / f"{digest}.json"

    # ------------------------------------------------------------ get/put
    def get(self, spec, base, with_metrics: bool):
        """Return ``(RunResult, metrics_doc)`` or ``None`` on any miss.

        Corrupt, truncated, stale-version or token-mismatched entries, and
        rows that are not one full CSV record, are misses — the cache
        never guesses.
        """
        from .runner import CSV_COLUMNS, result_from_row

        tok = self.token(spec, base, with_metrics)
        try:
            entry = json.loads(self._path(tok).read_text())
            if entry["v"] != CACHE_VERSION or entry["key"] != tok:
                raise ValueError("stale or foreign entry")
            row = entry["row"]
            if not isinstance(row, list) or len(row) != len(CSV_COLUMNS):
                raise ValueError("not one full CSV record")
            hit = result_from_row(dict(zip(CSV_COLUMNS, row))), entry["metrics"]
        except (OSError, ValueError, TypeError, KeyError):
            self.misses += 1
            return None
        self.hits += 1
        return hit

    def put(self, spec, base, with_metrics: bool, result, doc) -> None:
        """Persist one completed cell atomically (tmp file + replace)."""
        from .runner import result_to_row

        tok = self.token(spec, base, with_metrics)
        path = self._path(tok)
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "v": CACHE_VERSION,
            "key": tok,
            "row": result_to_row(result),
            "metrics": doc,
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ---------------------------------------------------------- reporting
    @property
    def hit_rate(self) -> float:
        seen = self.hits + self.misses
        return self.hits / seen if seen else 0.0
