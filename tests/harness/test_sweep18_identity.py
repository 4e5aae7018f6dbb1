"""The 18-config acceptance sweep: every execution style is byte-identical.

One (shrink, grow) pair across the full {Baseline, Merge} x {P2P, COL,
RMA} x {S, A, T} matrix must serialize to the same CSV bytes whether run
sequentially, over the worker fleet, or replayed from the cell cache —
and a uniformly-faulted sweep must hold the same property.  This is the
contract that lets cached figure sweeps mix freely with fresh ones.
"""

import pytest

from repro.harness.runner import ResultSet, run_sweep
from repro.malleability.config import ALL_CONFIGS

KEYS = [c.key for c in ALL_CONFIGS]
PAIRS = [(4, 2), (2, 4)]


@pytest.fixture(scope="module")
def sequential_csv():
    rs = run_sweep(PAIRS, KEYS, ["ethernet"], scale="tiny", repetitions=1)
    return rs.to_csv()


def test_matrix_is_18():
    assert len(KEYS) == 18
    assert sum(1 for k in KEYS if "-rma-" in k) == 6


def test_fleet_parallel_matches_sequential(sequential_csv):
    par = run_sweep(
        PAIRS, KEYS, ["ethernet"], scale="tiny", repetitions=1, workers=2
    )
    assert par.to_csv() == sequential_csv


def test_cached_replay_matches_sequential(sequential_csv, tmp_path):
    cache = tmp_path / "cells"
    first = run_sweep(
        PAIRS, KEYS, ["ethernet"], scale="tiny", repetitions=1, cache=cache
    )
    assert first.to_csv() == sequential_csv
    replay = run_sweep(
        PAIRS, KEYS, ["ethernet"], scale="tiny", repetitions=1, cache=cache
    )
    assert replay.to_csv() == sequential_csv


def test_faulted_sync_sweep_parallel_identity(tmp_path):
    """A crash during redistribution recovers in every *synchronous*
    configuration — the six-config slice the faults-smoke CI job sweeps
    (the async recovery envelope predates the RMA arm and is unchanged) —
    and the faulted sweep stays byte-identical under the fleet and when
    replayed from the cell cache the fleet filled."""
    fault = "crash@redist+0.002:node=1"
    sync_keys = [k for k in KEYS if k.endswith("-s")]
    assert len(sync_keys) == 6
    seq = run_sweep(
        PAIRS, sync_keys, ["ethernet"], scale="tiny", repetitions=1,
        faults=fault,
    )
    par = run_sweep(
        PAIRS, sync_keys, ["ethernet"], scale="tiny", repetitions=1,
        faults=fault, workers=2, cache=tmp_path,
    )
    replay = run_sweep(
        PAIRS, sync_keys, ["ethernet"], scale="tiny", repetitions=1,
        faults=fault, cache=tmp_path,
    )
    assert seq.to_csv() == par.to_csv() == replay.to_csv()
    assert all(r.faults for r in seq.results)


def test_old_12_config_csv_still_loads():
    """Pre-RMA cached sweeps (original 11-column layout, two-sided configs
    only) load unchanged: the column is still literally ``config_key`` and
    the missing breakdown columns default."""
    old = (
        "ns,nt,config_key,fabric,scale,rep,reconfig_time,app_time,"
        "spawn_time,overlapped_iterations,total_iterations\n"
        "4,2,merge-col-s,ethernet,tiny,0,0.5,2.0,0.1,0,48\n"
        "4,2,baseline-p2p-t,ethernet,tiny,0,0.7,2.2,0.2,3,48\n"
    )
    rs = ResultSet.from_csv(old)
    assert [r.config.key for r in rs.results] == [
        "merge-col-s", "baseline-p2p-t"
    ]
    assert rs.results[0].redist_time == 0.0  # defaulted, not garbage
    assert rs.results[1].overlapped_iterations == 3
