"""Cell execution core: worker resolution, chunking, errors.

Contracts under test (see ``repro.harness.executor``):

* ``resolve_workers`` — the sequential-fallback guard (``workers=1``,
  ``workers=0``, ``workers > n_cells``) and the ``"auto"`` spelling;
* ``make_chunks`` — every pending index lands in exactly one chunk, odd
  remainders included, chunk sizes balanced to within one;
* a cell failing inside a chunk surfaces as :class:`SweepCellError` with
  the cell's provenance and grid index, picklable across the pool;
* sanitized and faulted sweeps stay byte-identical between sequential
  and chunked-parallel execution.
"""

import pickle

import pytest

from repro.harness import SweepCellError, resolve_workers, run_sweep
from repro.harness.executor import make_chunks
from repro.harness.fleet import get_fleet
from repro.harness.runner import RunSpec
from repro.synthetic.presets import cg_emulation_config

PAIRS = [(2, 4), (4, 8)]
KEYS = ["merge-p2p-t", "baseline-p2p-s"]
FABRICS = ["ethernet"]


# ---------------------------------------------------------- worker resolution
@pytest.mark.parametrize("workers", [None, 0, 1])
def test_sequential_spellings_resolve_to_none(workers):
    assert resolve_workers(workers, 10) is None


def test_more_workers_than_cells_falls_back_to_sequential():
    assert resolve_workers(11, 10) is None
    assert resolve_workers(10, 10) == 10
    assert resolve_workers(2, 10) == 2


def test_auto_clamps_to_cpu_count_and_cells():
    import os

    cpus = os.cpu_count() or 1
    want = min(cpus, 4)
    assert resolve_workers("auto", 4) == (want if want > 1 else None)
    # one cell can never go parallel
    assert resolve_workers("auto", 1) is None


def test_bad_workers_values_raise():
    with pytest.raises(ValueError):
        resolve_workers("turbo", 10)
    with pytest.raises(ValueError):
        resolve_workers(-2, 10)


def test_run_sweep_oversized_workers_never_opens_a_pool(monkeypatch):
    """workers > cells must take the sequential path, not a clamped pool."""
    import repro.harness.fleet as fleet

    def _boom(*a, **k):  # pragma: no cover - failure path
        raise AssertionError("pool opened despite oversized workers")

    monkeypatch.setattr(fleet, "get_fleet", _boom)
    seq = run_sweep(PAIRS, KEYS, FABRICS, scale="tiny", repetitions=1)
    big = run_sweep(
        PAIRS, KEYS, FABRICS, scale="tiny", repetitions=1, workers=999
    )
    assert seq.to_csv() == big.to_csv()


# ------------------------------------------------------------------- chunking
@pytest.mark.parametrize(
    "n,workers", [(1, 2), (5, 2), (7, 2), (8, 2), (9, 2), (17, 3), (100, 4)]
)
def test_chunks_partition_indices_exactly(n, workers):
    indices = list(range(n))
    chunks = make_chunks(indices, workers)
    flat = sorted(i for c in chunks for i in c)
    assert flat == indices  # every cell exactly once, remainders included
    assert len(chunks) == min(n, workers * 4)
    sizes = [len(c) for c in chunks]
    assert max(sizes) - min(sizes) <= 1  # balanced to within one


def test_chunks_of_nothing():
    assert make_chunks([], 4) == []


# ------------------------------------------------------------ error handling
def test_sweep_cell_error_pickles_with_provenance():
    err = SweepCellError("ethernet:2->4:merge-p2p-t:rep0", 3, "ValueError: x")
    clone = pickle.loads(pickle.dumps(err))
    assert clone.cell == err.cell
    assert clone.index == 3
    assert clone.cell_message == "ValueError: x"
    assert "ethernet:2->4:merge-p2p-t:rep0" in str(clone)
    assert "grid index 3" in str(clone)


def test_mid_chunk_failure_names_the_cell():
    """A worker raising partway through a chunk keeps cell provenance."""
    good = RunSpec(2, 4, "merge-p2p-t", "ethernet", "tiny", 0)
    bad = RunSpec(
        2, 4, "merge-p2p-t", "ethernet", "tiny", 1, plan_mode="bogus"
    )
    specs = [good, bad]
    fleet = get_fleet(cg_emulation_config("tiny"), 2)
    with pytest.raises(SweepCellError) as info:
        list(fleet.run_cells(specs, [0, 1], False, False))
    assert info.value.cell == "ethernet:2->4:merge-p2p-t:rep1"
    assert info.value.index == 1
    assert "bogus" in info.value.cell_message


# ----------------------------------------------------- parallel byte identity
def test_sanitized_sweep_identical_seq_vs_parallel():
    kw = dict(scale="tiny", repetitions=1, sanitize=True)
    seq = run_sweep(PAIRS, KEYS, FABRICS, **kw)
    par = run_sweep(PAIRS, KEYS, FABRICS, workers=2, **kw)
    assert seq.to_csv() == par.to_csv()


def test_faulted_sweep_identical_seq_vs_parallel():
    # Same recoverable crash grid as test_faults_sweep: the ladder handles
    # the node-1 crash for the synchronous p2p configs on the 2->4 pair.
    kw = dict(
        scale="tiny", repetitions=2, faults="crash@redist+0.002:node=1"
    )
    keys = ["baseline-p2p-s", "merge-p2p-s"]
    seq = run_sweep([(2, 4)], keys, FABRICS, **kw)
    par = run_sweep([(2, 4)], keys, FABRICS, workers=2, **kw)
    assert seq.to_csv() == par.to_csv()
    assert all(r.faults for r in par.results)
