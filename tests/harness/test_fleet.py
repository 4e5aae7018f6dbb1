"""Lifecycle of the persistent worker fleet.

The fleet contract: workers are spawned once per base-config fingerprint
and serve many ``run_sweep`` calls; results stream back over one pipe per
worker, byte-identical to a sequential sweep; failure — a cell raising or
a worker dying, before or in the middle of a sweep — surfaces as
:class:`~repro.harness.executor.SweepCellError` with cell provenance
while the fleet itself stays usable; a sweep that ends early leaves
nothing in a pipe for the next one; shutdown leaves no worker behind.
"""

import dataclasses
import os
import time

import pytest

from repro.harness.executor import SweepCellError, make_chunks, wire_to_result
from repro.harness.fleet import (
    WorkerFleet,
    active_fleet,
    fleet_fingerprint,
    get_fleet,
    shutdown_fleet,
)
from repro.harness.runner import run_one, run_sweep, sweep_specs
from repro.synthetic.presets import cg_emulation_config

PAIRS = [(2, 4), (4, 8)]
KEYS = ["merge-p2p-t", "baseline-p2p-s"]
FABRICS = ["ethernet"]
GRID = dict(scale="tiny", repetitions=1)


@pytest.fixture(autouse=True)
def _fresh_fleet():
    """Every test starts and ends without a live fleet (and without
    leaked workers or shm segments from a failed assertion)."""
    shutdown_fleet()
    yield
    shutdown_fleet()


def _worker_pids(fleet: WorkerFleet) -> list[int]:
    return [w.process.pid for w in fleet._workers]


def _key(spec) -> str:
    return f"{spec.fabric}:{spec.ns}->{spec.nt}:{spec.config.key}:rep{spec.rep}"


def test_fleet_survives_across_run_sweep_calls_with_identical_csv():
    seq = run_sweep(PAIRS, KEYS, FABRICS, **GRID)

    first = run_sweep(PAIRS, KEYS, FABRICS, workers=2, **GRID)
    fleet = active_fleet()
    assert fleet is not None
    pids = _worker_pids(fleet)

    second = run_sweep(PAIRS, KEYS, FABRICS, workers=2, **GRID)
    # Same fleet object, same worker processes: no respawn in between.
    assert active_fleet() is fleet
    assert _worker_pids(fleet) == pids
    assert fleet.sweeps_served == 2
    assert fleet.metrics.counter("fleet.worker_reuse").value == 2

    assert seq.to_csv() == first.to_csv() == second.to_csv()


def test_changed_base_config_reinitializes_the_fleet():
    base_a = cg_emulation_config("tiny")
    base_b = dataclasses.replace(base_a, iterations=base_a.iterations + 1)
    assert fleet_fingerprint(base_a) != fleet_fingerprint(base_b)

    fleet_a = get_fleet(base_a, 2)
    assert get_fleet(base_a, 2) is fleet_a  # same base: reuse
    fleet_b = get_fleet(base_b, 2)
    assert fleet_b is not fleet_a  # new base: fresh workers
    assert fleet_a._closed  # and the old fleet was shut down
    assert active_fleet() is fleet_b


def test_worker_death_surfaces_as_sweep_cell_error_with_provenance():
    specs = sweep_specs(PAIRS, KEYS, FABRICS, "tiny", 1)
    fleet = get_fleet(cg_emulation_config("tiny"), 2)
    for w in fleet._workers:
        w.process.kill()
        w.process.join()
    with pytest.raises(SweepCellError) as exc_info:
        list(fleet.run_cells(specs, list(range(len(specs))), False, False))
    err = exc_info.value
    assert "died" in err.cell_message
    # Provenance: the error names a real cell of this sweep and its index.
    assert 0 <= err.index < len(specs)
    assert err.cell == _key(specs[err.index])
    # The registry heals the fleet: the next get_fleet respawns the dead
    # workers and the fleet serves a full sweep again.
    healed = get_fleet(cg_emulation_config("tiny"), 2)
    assert healed is fleet
    assert all(w.process.is_alive() for w in healed._workers)
    got = list(healed.run_cells(specs, list(range(len(specs))), False, False))
    assert sorted(i for i, *_ in got) == list(range(len(specs)))


def test_failing_cell_streams_back_as_sweep_cell_error():
    # An unknown fabric name makes run_cell raise inside the worker.
    specs = sweep_specs(PAIRS, KEYS, ["ethernet"], "tiny", 1)
    bad = sweep_specs([(2, 4)], KEYS[:1], ["no-such-fabric"], "tiny", 1)
    fleet = get_fleet(cg_emulation_config("tiny"), 2)
    with pytest.raises(SweepCellError) as exc_info:
        list(fleet.run_cells(bad, [0], False, False))
    assert exc_info.value.index == 0
    assert "no-such-fabric" in exc_info.value.cell
    # The worker survived the failing cell and serves the next sweep.
    assert all(w.process.is_alive() for w in fleet._workers)
    got = list(fleet.run_cells(specs, list(range(len(specs))), False, False))
    assert sorted(i for i, *_ in got) == list(range(len(specs)))


def test_shutdown_leaves_no_workers_or_shared_memory():
    before = set(os.listdir("/dev/shm"))
    fleet = get_fleet(cg_emulation_config("tiny"), 2)
    specs = sweep_specs(PAIRS, KEYS, FABRICS, "tiny", 1)
    assert len(list(fleet.run_cells(specs, [0, 1, 2, 3], False, False))) == 4
    assert set(os.listdir("/dev/shm")) <= before  # the wire is a pipe
    shutdown_fleet()
    assert active_fleet() is None
    assert not any(w.process.is_alive() for w in fleet._workers)
    assert set(os.listdir("/dev/shm")) <= before
    shutdown_fleet()  # idempotent, through the registry and on the object
    fleet.shutdown()
    with pytest.raises(RuntimeError, match="shut down"):
        next(fleet.run_cells(specs, [0], False, False))


def test_worker_killed_mid_sweep_names_a_cell_it_still_owed():
    specs = sweep_specs(PAIRS, KEYS, FABRICS, "tiny", 6)  # 24 cells
    everything = list(range(len(specs)))
    base = cg_emulation_config("tiny")
    fleet = get_fleet(base, 2)
    # Worker 0's share, from the same deal run_cells makes.
    share0 = {i for c in make_chunks(everything, 2)[0::2] for i in c}
    cells = fleet.run_cells(specs, everything, False, False)
    got = [next(cells)]  # the sweep is under way
    fleet._workers[0].process.kill()
    with pytest.raises(SweepCellError) as exc_info:
        for cell in cells:
            got.append(cell)
    err = exc_info.value
    assert "worker 0 died" in err.cell_message
    seen = [i for i, *_ in got]
    assert len(seen) == len(set(seen))
    assert err.index in share0 - set(seen)  # owed, never delivered
    assert err.cell == _key(specs[err.index])
    # Everything yielded before the death is a valid result.
    for i, wire, doc, found in got:
        assert wire_to_result(specs[i], wire) == run_one(specs[i])
        assert doc is None and found is None
    healed = get_fleet(base, 2)
    assert healed is fleet
    assert all(w.process.is_alive() for w in healed._workers)
    again = list(healed.run_cells(specs, everything[:4], False, False))
    assert sorted(i for i, *_ in again) == everything[:4]


def test_aborted_sweep_leaves_nothing_for_the_next_one():
    good = sweep_specs(PAIRS, KEYS, FABRICS, "tiny", 2)  # 8 cells
    bad = list(good)
    bad[0] = dataclasses.replace(good[0], plan_mode="bogus")
    base = cg_emulation_config("tiny")
    fleet = get_fleet(base, 2)
    pids = _worker_pids(fleet)
    with pytest.raises(SweepCellError) as exc_info:
        list(fleet.run_cells(bad, list(range(len(bad))), False, False))
    assert exc_info.value.index == 0 and "bogus" in exc_info.value.cell_message
    # Whoever still owed cells at the abort was stopped, so it cannot
    # deliver a result of the aborted sweep later on: worker 0 for sure
    # (cell 0 was its first of four), worker 1 unless it had finished.
    stopped = [not w.process.is_alive() for w in fleet._workers]
    assert stopped[0]

    healed = get_fleet(base, 2)
    assert healed is fleet
    assert all(w.process.is_alive() for w in healed._workers)
    assert [new != old for new, old in zip(_worker_pids(healed), pids)] \
        == stopped
    got = list(healed.run_cells(good, list(range(len(good))), False, False))
    assert sorted(i for i, *_ in got) == list(range(len(good)))
    seq = run_sweep(PAIRS, KEYS, FABRICS, scale="tiny", repetitions=2)
    par = run_sweep(PAIRS, KEYS, FABRICS, scale="tiny", repetitions=2,
                    workers=2)
    assert active_fleet() is fleet
    assert seq.to_csv() == par.to_csv()


def test_consumer_that_stops_early_stops_the_owing_workers():
    specs = sweep_specs(PAIRS, KEYS, FABRICS, "tiny", 6)  # 24 cells
    everything = list(range(len(specs)))
    base = cg_emulation_config("tiny")
    fleet = get_fleet(base, 2)
    cells = fleet.run_cells(specs, everything, False, False)
    next(cells)
    # One sweep at a time: a second one cannot interleave with the first.
    with pytest.raises(RuntimeError, match="still open"):
        next(fleet.run_cells(specs, everything[:4], False, False))
    cells.close()  # what leaving a for loop over it does
    assert not any(w.process.is_alive() for w in fleet._workers)
    healed = get_fleet(base, 2)
    got = list(healed.run_cells(specs, everything[:4], False, False))
    assert sorted(i for i, *_ in got) == everything[:4]


def test_slow_consumer_blocks_workers_without_losing_cells():
    """Back-pressure: metrics documents are tens of KiB, so workers fill
    their pipes and block in send() while the master dawdles."""
    from repro.obs import MetricsRegistry

    specs = sweep_specs(PAIRS, KEYS, FABRICS, "tiny", 4)  # 16 cells
    fleet = get_fleet(cg_emulation_config("tiny"), 2)
    got = {}
    for i, wire, doc, found in fleet.run_cells(
        specs, list(range(len(specs))), True, False
    ):
        assert i not in got
        got[i] = (wire, doc)
        time.sleep(0.05)
    assert sorted(got) == list(range(len(specs)))
    assert all(w.process.is_alive() for w in fleet._workers)

    par_reg, seq_reg = MetricsRegistry(), MetricsRegistry()
    for i in range(len(specs)):
        par_reg.merge(MetricsRegistry.from_dict(got[i][1]))
    seq = run_sweep(PAIRS, KEYS, FABRICS, scale="tiny", repetitions=4,
                    metrics=seq_reg)
    assert par_reg.to_dict() == seq_reg.to_dict()
    assert [wire_to_result(s, got[i][0]) for i, s in enumerate(specs)] \
        == seq.results


def test_metrics_merge_is_identical_between_sequential_and_fleet():
    from repro.obs import MetricsRegistry

    seq_reg, par_reg = MetricsRegistry(), MetricsRegistry()
    run_sweep(PAIRS, KEYS, FABRICS, metrics=seq_reg, **GRID)
    run_sweep(PAIRS, KEYS, FABRICS, metrics=par_reg, workers=2, **GRID)
    assert seq_reg.to_dict() == par_reg.to_dict()
    # Fleet telemetry stays in the fleet-owned registry, never in the
    # sweep aggregate (byte-identity would break otherwise).
    assert not any(k.startswith("fleet.") for k in par_reg.counters)
    assert active_fleet().metrics.counter("fleet.cells_streamed").value > 0
