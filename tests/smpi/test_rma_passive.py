"""Passive-target RMA: shared lock epochs, the rendezvous-progress rule,
and epoch misuse.

The paper's §5 one-sided arm rests on one artifact worth testing on its
own: on non-RDMA fabrics, rendezvous-sized one-sided payloads only
complete while the *data-holding* side is inside an MPI call (software-
agent progress), while RDMA fabrics complete them in hardware with no
remote cooperation at all.
"""

import numpy as np
import pytest

from repro.cluster import ETHERNET_10G, INFINIBAND_EDR, Machine
from repro.obs import MetricsProbe
from repro.simulate import Simulator
from repro.smpi import AsyncOpHandle, CommFailedError, MpiWorld, run_spmd

from .rma_fakes import ArrayExposure, get, lock

#: 1 M float64 -> 8 MB, far past every inter-node eager threshold.
BIG = 1_000_000
#: how long the target computes without touching MPI (sim seconds).
QUIET = 0.05


def _timed_put_unlock(fabric):
    """Origin locks/puts/unlocks while the target computes MPI-free for
    ``QUIET`` seconds; returns (origin time after unlock, target data)."""

    def main(mpi):
        local = np.zeros(BIG)
        win = yield from mpi.win_create(ArrayExposure(local))
        yield from mpi.barrier()
        if mpi.rank == 0:
            yield from lock(mpi, win, 1)
            yield from mpi.win_put(win, 1, (0, np.ones(BIG)))
            yield from mpi.win_unlock(win, 1)
            t_done = mpi.now
            yield from mpi.barrier()
            return t_done
        yield from mpi.compute(QUIET)  # no MPI: nothing can progress here
        yield from mpi.barrier()
        return local.copy()

    sim = Simulator()
    machine = Machine(sim, 2, 1, fabric)
    world = MpiWorld(machine)
    res = world.launch(main, slots=[0, 1])
    sim.run()
    return res.procs[0].result, res.procs[1].result


def test_ethernet_epoch_put_waits_for_target_progress():
    """Non-RDMA fabric: the unlock's flush can only finish once the target
    re-enters MPI, so the origin is held for the target's whole quiet
    phase despite the wire being long since drained."""
    t_done, data = _timed_put_unlock(ETHERNET_10G)
    assert t_done >= QUIET
    np.testing.assert_array_equal(data, np.ones(BIG))


def test_infiniband_epoch_put_completes_in_hardware():
    """RDMA fabric: same program, but the put lands at wire speed with the
    target still crunching — true one-sided completion."""
    t_done, data = _timed_put_unlock(INFINIBAND_EDR)
    assert t_done < QUIET / 2
    np.testing.assert_array_equal(data, np.ones(BIG))


def test_shared_lockers_overlap():
    """Shared epochs on one target are granted together, not serialized."""
    spans = []

    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(4)))
        if mpi.rank != 0:
            yield from lock(mpi, win, 0)
            t0 = mpi.now
            yield from mpi.compute(0.003)
            yield from mpi.win_unlock(win, 0)
            spans.append((t0, mpi.now))
        yield from mpi.barrier()

    run_spmd(main, 3, n_nodes=3, cores_per_node=1)
    (a0, a1), (b0, b1) = spans
    assert a0 < b1 and b0 < a1  # the two epochs overlap


def test_locked_get_reads_target_data():
    def main(mpi):
        local = np.arange(8, dtype=np.float64) * (mpi.rank + 1)
        win = yield from mpi.win_create(ArrayExposure(local))
        yield from mpi.barrier()
        if mpi.rank == 0:
            yield from lock(mpi, win, 1)
            data = yield from get(mpi, win, 1, offset=2, count=3)
            yield from mpi.win_unlock(win, 1)
            yield from mpi.barrier()
            return data
        yield from mpi.compute(0.01)
        yield from mpi.barrier()
        return None

    results, _ = run_spmd(main, 2, n_nodes=2, cores_per_node=1)
    np.testing.assert_array_equal(results[0], [4.0, 6.0, 8.0])


def test_lock_epoch_misuse_raises():
    """Double lock, and unlock/flush/put/get outside an epoch: usage
    errors, not sanitizer findings — they raise where the bug is."""

    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(2)))
        caught = []
        if mpi.rank == 0:
            outside = {
                "unlock": lambda: mpi.win_unlock(win, 1),
                "flush": lambda: mpi.win_flush(win, 1),
                "put": lambda: mpi.win_put(win, 1, (0, np.ones(1))),
                "get": lambda: mpi.win_iget(win, 1, offset=0, count=1),
            }
            for name, op in outside.items():
                try:
                    yield from op()
                except ValueError as err:
                    assert str(err).endswith("no epoch open to rank 1")
                    caught.append(name)
            yield from lock(mpi, win, 1)
            try:
                yield from mpi.win_ilock(win, 1)
            except ValueError:
                caught.append("double-lock")
            yield from mpi.win_unlock(win, 1)
        yield from mpi.barrier()
        return caught

    results, _ = run_spmd(main, 2, n_nodes=2, cores_per_node=1)
    assert results[0] == ["unlock", "flush", "put", "get", "double-lock"]


def test_epoch_bookkeeping_and_modes():
    """The window records the open epoch's grant time until the unlock;
    the epoch metrics carry the one lock mode, ``shared``."""
    seen = {}

    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(2)))
        if mpi.rank == 0:
            tgid = win.comm.peer_gid(1)
            assert win.epoch_t0(mpi.gid, tgid) is None
            yield from lock(mpi, win, 1)
            seen["t0"] = win.epoch_t0(mpi.gid, tgid)
            seen["granted_by"] = mpi.now
            yield from mpi.win_unlock(win, 1)
            assert win.epoch_t0(mpi.gid, tgid) is None
        yield from mpi.barrier()

    sim = Simulator()
    machine = Machine(sim, 2, 1, ETHERNET_10G)
    world = MpiWorld(machine)
    probe = MetricsProbe().attach(machine, world)
    world.launch(main, slots=[0, 1])
    sim.run()
    timers = probe.detach().finalize().to_dict()["timers"]
    assert 0.0 < seen["t0"] <= seen["granted_by"]
    for name in ("rma.lock_wait_seconds", "rma.epoch_seconds"):
        keys = [k for k in timers if k.startswith(name + "{")]
        assert keys and all("mode=shared" in k for k in keys)


#: the error each one-sided op reports against a dead target, by when the
#: target died: before the op was issued, or while it was on the wire.  A
#: put or get in flight is failed by the death's sweep of open epochs.
_DEAD_TARGET_MESSAGES = {
    ("put", "before-issue"): "win_put to dead rank 1",
    ("put", "in-flight"): "rank gid=1 was killed: one-sided op to dead rank gid=1",
    ("get", "before-issue"): "win_get from dead rank 1",
    ("get", "in-flight"): "rank gid=1 was killed: one-sided op to dead rank gid=1",
    ("lock", "before-issue"): "win_lock to dead rank 1",
    ("lock", "in-flight"): "win_lock target rank 1 died",
}


@pytest.mark.parametrize("when", ["before-issue", "in-flight"])
@pytest.mark.parametrize("op", ["put", "get", "lock"])
def test_one_sided_op_on_dead_target_fails(op, when):
    """A put, get or lock against a dead target completes in error, with
    a CommFailedError naming the dead gid, whether the target died before
    the op was issued or while it was in flight.  Puts and gets are issued
    in an epoch opened while the target was alive."""
    seen = {}

    def issue(mpi, win):
        if op == "put":
            ev = yield from mpi.win_put(win, 1, (0, np.ones(BIG)))
        elif op == "get":
            ev = yield from mpi.win_iget(win, 1, offset=0, count=BIG)
        else:
            ev = yield from mpi.win_ilock(win, 1)
        return ev

    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(BIG)))
        if mpi.rank == 1:
            yield from mpi.compute(10.0)  # killed long before this ends
            return None
        target = win.peer_gid(mpi.gid, 1)
        if op != "lock":
            yield from lock(mpi, win, 1)
        if when == "before-issue":
            mpi.world.terminate_ranks([target])
            ev = yield from issue(mpi, win)
        else:
            ev = yield from issue(mpi, win)
            assert ev.pending
            mpi.world.terminate_ranks([target])
        yield from mpi.sleep(1.0)
        seen.update(target=target, ev=ev)
        return None

    run_spmd(main, 2, n_nodes=2, cores_per_node=1)
    ev = seen["ev"]
    assert ev.failed
    with pytest.raises(CommFailedError) as err:
        ev.value
    assert err.value.dead_gids == [seen["target"]]
    assert str(err.value) == (
        f"{_DEAD_TARGET_MESSAGES[op, when]} (dead ranks: [{seen['target']}])"
    )


def test_second_lock_request_before_grant_raises():
    """A second lock request to a target whose first grant is still in
    flight is a usage error, like re-locking an open epoch.  Accepting it
    would open the same origin-to-target epoch twice under one unlock.
    Another rank still locks the target afterwards."""

    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(2)))
        caught = []
        if mpi.rank == 1:
            granted = yield from mpi.win_ilock(win, 0)
            try:
                yield from mpi.win_ilock(win, 0)
            except ValueError:
                caught.append("second-request")
            yield from mpi.wait_async(AsyncOpHandle(granted))
            yield from mpi.win_unlock(win, 0)
        yield from mpi.barrier()
        if mpi.rank == 2:
            yield from lock(mpi, win, 0)
            yield from mpi.win_unlock(win, 0)
        yield from mpi.barrier()
        return caught

    results, _ = run_spmd(main, 3, n_nodes=3, cores_per_node=1)
    assert results[1] == ["second-request"]
