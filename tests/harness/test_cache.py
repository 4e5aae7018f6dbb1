"""Deterministic cell-result cache: identity, invalidation, robustness.

The headline contract: a cached sweep's CSV and merged metrics document
are **byte-identical** to a fresh run's, because cache entries replay the
exact CSV row and metrics document a fresh cell produces (a float's
``str`` is its ``repr``, which parses back bit for bit).  The rest is invalidation hygiene:
any change to the spec, the base workload, the metrics schema, the code
or the cache version must miss rather than serve a stale entry, and corrupt
entries must degrade to misses.
"""

import dataclasses
import json

from repro.harness import CellCache, run_sweep
from repro.harness import cache as cache_module
from repro.harness.cache import CACHE_VERSION
from repro.harness.runner import RunSpec, run_one
from repro.obs import MetricsRegistry
from repro.synthetic.presets import cg_emulation_config

PAIRS = [(2, 4)]
KEYS = ["merge-p2p-t", "baseline-p2p-s"]
FABRICS = ["ethernet"]
GRID = dict(scale="tiny", repetitions=1)


def _sweep(cache, metrics=None, **kw):
    return run_sweep(
        PAIRS, KEYS, FABRICS, cache=cache, metrics=metrics, **GRID, **kw
    )


# ------------------------------------------------------------- byte identity
def test_cached_sweep_is_byte_identical(tmp_path):
    cache = CellCache(tmp_path)
    m_cold, m_warm = MetricsRegistry(), MetricsRegistry()
    cold = _sweep(cache, metrics=m_cold)
    assert cache.misses == len(cold.results) and cache.hits == 0
    warm = _sweep(cache, metrics=m_warm)
    assert cache.hits == len(cold.results)  # second pass: all hits
    assert cold.to_csv() == warm.to_csv()
    assert m_cold.to_dict() == m_warm.to_dict()
    # and both match a cacheless run
    plain = run_sweep(PAIRS, KEYS, FABRICS, **GRID)
    assert plain.to_csv() == warm.to_csv()


def test_parallel_fill_then_sequential_replay(tmp_path):
    cache = CellCache(tmp_path)
    par = run_sweep(
        PAIRS, KEYS, FABRICS, cache=cache, workers=2, **GRID
    )
    replay = _sweep(cache)
    assert par.to_csv() == replay.to_csv()
    assert cache.hit_rate > 0


def test_cache_accepts_a_path(tmp_path):
    a = _sweep(tmp_path / "c")
    b = _sweep(str(tmp_path / "c"))
    assert a.to_csv() == b.to_csv()
    assert list((tmp_path / "c").glob("*.json"))


# -------------------------------------------------------------- invalidation
def test_progress_counts_cache_hits(tmp_path):
    cache = CellCache(tmp_path)
    _sweep(cache)
    msgs: list = []
    _sweep(cache, progress=msgs.append)
    total = len(PAIRS) * len(KEYS) * len(FABRICS)
    assert len(msgs) == total
    counts = [int(m.split("/")[0].lstrip("[")) for m in msgs]
    assert counts == list(range(1, total + 1))


def test_token_covers_every_spec_axis():
    base = cg_emulation_config("tiny")
    spec = RunSpec(2, 4, "merge-p2p-t", "ethernet", "tiny", 0)
    tok = CellCache.token(spec, base, True)
    for other in (
        RunSpec(4, 4, "merge-p2p-t", "ethernet", "tiny", 0),
        RunSpec(2, 8, "merge-p2p-t", "ethernet", "tiny", 0),
        RunSpec(2, 4, "merge-col-s", "ethernet", "tiny", 0),
        RunSpec(2, 4, "merge-p2p-t", "infiniband", "tiny", 0),
        RunSpec(2, 4, "merge-p2p-t", "ethernet", "small", 0),
        RunSpec(2, 4, "merge-p2p-t", "ethernet", "tiny", 1),
        RunSpec(2, 4, "merge-p2p-t", "ethernet", "tiny", 0,
                plan_mode="minmove"),
        RunSpec(2, 4, "merge-p2p-t", "ethernet", "tiny", 0,
                faults="spawnfail:attempt=0"),
    ):
        assert CellCache.token(other, base, True) != tok
    # metrics-requested flag and workload edits invalidate too
    assert CellCache.token(spec, base, False) != tok
    edited = dataclasses.replace(base, iterations=base.iterations + 1)
    assert CellCache.token(spec, edited, True) != tok


def test_metrics_entries_do_not_serve_plain_runs(tmp_path):
    cache = CellCache(tmp_path)
    _sweep(cache, metrics=MetricsRegistry())
    cache.hits = cache.misses = 0
    _sweep(cache)  # no metrics requested: must not hit metrics entries
    assert cache.hits == 0


def test_stale_version_is_a_miss(tmp_path):
    cache = CellCache(tmp_path)
    base = cg_emulation_config("tiny")
    spec = RunSpec(2, 4, "merge-p2p-t", "ethernet", "tiny", 0)
    cache.put(spec, base, False, run_one(spec, base), None)
    assert cache.get(spec, base, False) is not None
    # simulate an entry written by an older cache format
    (entry,) = cache.root.glob("*.json")
    doc = json.loads(entry.read_text())
    doc["v"] = CACHE_VERSION - 1
    entry.write_text(json.dumps(doc))
    assert cache.get(spec, base, False) is None


def test_edited_code_misses_every_cell(tmp_path, monkeypatch):
    """An edit to the simulator's source moves the code digest, and no
    entry of the code before it is served."""
    cache = CellCache(tmp_path)
    fresh = _sweep(cache)
    monkeypatch.setattr(cache_module, "code_digest", lambda: "edited")
    cache.hits = cache.misses = 0
    assert _sweep(cache).to_csv() == fresh.to_csv()
    assert cache.hits == 0 and cache.misses == len(fresh.results)


def test_corrupt_entries_degrade_to_misses(tmp_path):
    cache = CellCache(tmp_path)
    base = cg_emulation_config("tiny")
    spec = RunSpec(2, 4, "merge-p2p-t", "ethernet", "tiny", 0)
    result = run_one(spec, base)
    cache.put(spec, base, False, result, None)
    (entry,) = cache.root.glob("*.json")
    for garbage in ("", "{not json", '{"v": 1}', '["wrong shape"]'):
        entry.write_text(garbage)
        assert cache.get(spec, base, False) is None
    # a recovered write repairs the entry
    cache.put(spec, base, False, result, None)
    assert cache.get(spec, base, False) == (result, None)


def test_rows_that_are_not_one_full_record_are_misses(tmp_path):
    """A stored row one value short, or with a value that does not
    parse, is a miss: never a result with a field silently defaulted."""
    cache = CellCache(tmp_path)
    fresh = _sweep(cache)
    for cut in (lambda row: row[:-1], lambda row: row[:6] + ["x"] + row[7:]):
        for entry in cache.root.glob("*.json"):
            doc = json.loads(entry.read_text())
            (field,) = [k for k, v in doc.items() if isinstance(v, list)]
            doc[field] = cut(doc[field])
            entry.write_text(json.dumps(doc))
        cache.hits = cache.misses = 0
        assert _sweep(cache).to_csv() == fresh.to_csv()  # refilled
        assert cache.hits == 0


def test_sanitized_sweeps_bypass_the_cache(tmp_path):
    cache = CellCache(tmp_path)
    _sweep(cache, sanitize=True)
    assert cache.hits == 0 and cache.misses == 0
    assert not list(cache.root.glob("*.json"))  # nothing was written
