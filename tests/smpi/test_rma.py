"""One-sided communication: windows, put/get in shared epochs, notifications."""

import numpy as np
import pytest

from repro.cluster import ETHERNET_10G, INFINIBAND_EDR, Machine
from repro.redistribution import Dataset, FieldSpec
from repro.redistribution.rma import _DatasetExposure
from repro.simulate import Simulator, WaitEvent
from repro.smpi import MpiWorld, run_spmd

from .rma_fakes import ArrayExposure, get, lock


def test_put_writes_target_exposure_without_target_mpi_calls():
    """The target only computes; the put lands anyway (true one-sidedness)."""

    def main(mpi):
        local = np.zeros(10)
        win = yield from mpi.win_create(ArrayExposure(local))
        if mpi.rank == 0:
            yield from lock(mpi, win, 1)
            ev = yield from mpi.win_put(win, 1, (2, np.array([7.0, 8.0, 9.0])))
            yield from mpi.compute(0.2)  # plenty of time for delivery
            assert ev.triggered
            yield from mpi.win_unlock(win, 1)
            return None
        yield from mpi.compute(0.2)  # never calls MPI while the put lands
        return local.copy()

    results, _ = run_spmd(main, 2, n_nodes=2, cores_per_node=2)
    np.testing.assert_array_equal(results[1][2:5], [7.0, 8.0, 9.0])
    assert results[1][0] == 0.0


def test_get_reads_remote_data():
    def main(mpi):
        local = np.arange(8, dtype=np.float64) * (mpi.rank + 1)
        win = yield from mpi.win_create(ArrayExposure(local))
        if mpi.rank == 0:
            yield from lock(mpi, win, 1)
            data = yield from get(mpi, win, 1, offset=2, count=3)
            yield from mpi.win_unlock(win, 1)
            return data
        yield from mpi.compute(0.05)
        return None

    results, _ = run_spmd(main, 2, n_nodes=2, cores_per_node=2)
    np.testing.assert_array_equal(results[0], [4.0, 6.0, 8.0])


# Each maker returns (exposure over rows 0..7 valued 0..7, a write of -1 into
# rows 2..4, and how to pull those rows out of what a get returns).
def _array_exposure():
    local = np.arange(8.0)

    def overwrite():
        local[2:5] = -1.0

    return ArrayExposure(local), overwrite, lambda got: got


def _staged_dataset_exposure():
    dataset = Dataset.create(
        8, (FieldSpec("x", "dense"),), 0, 8, data={"x": np.arange(8.0)}
    )
    staged = {(2, 5): (dataset.extract(2, 5, ["x"]), 24)}

    def overwrite():
        dataset.stores["x"].data[2:5] = -1.0

    exposure = _DatasetExposure(dataset, ["x"], staged=staged)
    return exposure, overwrite, lambda got: got[0]["x"]


@pytest.mark.parametrize("make", [_array_exposure, _staged_dataset_exposure])
def test_get_is_snapshotted_when_served(make):
    """The exposer learns its rows were served (notification) before they
    land at the getter, and may overwrite them right then; the getter still
    sees the served values."""
    exposure, overwrite, rows = make()

    def main(mpi):
        win = yield from mpi.win_create(exposure if mpi.rank == 1 else None)
        if mpi.rank == 0:
            yield from lock(mpi, win, 1)
            data = yield from get(mpi, win, 1, offset=2, count=3)
            yield from mpi.win_unlock(win, 1)
            return data
        yield WaitEvent(win.notification_event(mpi.gid, threshold=1))
        overwrite()
        return None

    results, _ = run_spmd(main, 2, n_nodes=2, cores_per_node=2)
    np.testing.assert_array_equal(rows(results[0]), [2.0, 3.0, 4.0])


def test_get_from_unexposed_rank_rejected():
    def main(mpi):
        win = yield from mpi.win_create(
            ArrayExposure(np.zeros(4)) if mpi.rank == 0 else None
        )
        if mpi.rank == 0:
            yield from lock(mpi, win, 1)
            try:
                yield from mpi.win_iget(win, 1, 0, 1)
            except ValueError:
                return "rejected"
        yield from mpi.compute(0.01)
        return None

    results, _ = run_spmd(main, 2)
    assert results[0] == "rejected"


def test_notification_counters():
    def main(mpi):
        local = np.zeros(4)
        win = yield from mpi.win_create(ArrayExposure(local))
        if mpi.rank == 0:
            # Wait for exactly 2 puts using the notification event.
            ev = win.notification_event(mpi.gid, threshold=2)
            got = yield WaitEvent(ev)
            return got
        yield from lock(mpi, win, 0)
        yield from mpi.win_put(win, 0, (mpi.rank, np.array([1.0])))
        yield from mpi.win_unlock(win, 0)
        return None

    results, _ = run_spmd(main, 3, n_nodes=3, cores_per_node=1)
    assert results[0] == 2


def test_notification_event_pre_satisfied():
    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(2)))
        if mpi.rank == 1:
            yield from lock(mpi, win, 0)
            yield from mpi.win_put(win, 0, (0, np.array([5.0])))
            yield from mpi.win_unlock(win, 0)  # the put landed at rank 0
        yield from mpi.barrier()
        if mpi.rank == 0:
            ev = win.notification_event(mpi.gid, threshold=1)
            assert ev.triggered  # already satisfied after the unlock
            return ev.value
        return None

    results, _ = run_spmd(main, 2)
    assert results[0] == 1


def test_put_faster_on_infiniband():
    payload = (0, np.zeros(1_000_000))

    def main(mpi):
        local = np.zeros(1_000_000)
        win = yield from mpi.win_create(ArrayExposure(local))
        if mpi.rank == 0:
            yield from lock(mpi, win, 1)
            t0 = mpi.now
            ev = yield from mpi.win_put(win, 1, payload)
            yield from self_wait(mpi, ev)
            t_put = mpi.now - t0
            yield from mpi.win_unlock(win, 1)
            yield from mpi.barrier()
            return t_put
        # Inside MPI while the put is on the wire, so a non-RDMA fabric
        # lands it as soon as the data arrives.
        yield from mpi.barrier()
        return None

    def self_wait(mpi, ev):
        while not ev.triggered:
            yield from mpi.compute(1e-4)

    t = {}
    for fabric in (ETHERNET_10G, INFINIBAND_EDR):
        sim = Simulator()
        machine = Machine(sim, 2, 2, fabric)
        world = MpiWorld(machine)
        res = world.launch(main, slots=[0, 2])
        sim.run()
        t[fabric.name] = res.procs[0].result
    assert t["infiniband"] < t["ethernet"]
