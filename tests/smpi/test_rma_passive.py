"""Passive-target RMA: lock epochs, the rendezvous-progress rule, and the
deterministic FIFO lock word.

The paper's §5 one-sided arm rests on one artifact worth testing on its
own: on non-RDMA fabrics, rendezvous-sized one-sided payloads only
complete while the *data-holding* side is inside an MPI call (software-
agent progress), while RDMA fabrics complete them in hardware with no
remote cooperation at all.
"""

import numpy as np
import pytest

from repro.cluster import ETHERNET_10G, INFINIBAND_EDR, Machine
from repro.simulate import Simulator
from repro.smpi import (
    ArrayExposure, AsyncOpHandle, CommFailedError, LOCK_EXCLUSIVE, LOCK_SHARED,
    MpiWorld, run_spmd,
)

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
            yield from mpi.win_lock(win, 1)
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


def test_exclusive_epochs_serialize():
    """Two exclusive lockers of the same target never hold overlapping
    epochs; grant order is the deterministic FIFO arrival order."""
    spans = []

    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(4)))
        if mpi.rank != 0:
            # Stagger arrivals so the FIFO order is well-defined.
            yield from mpi.compute(1e-4 * mpi.rank)
            yield from mpi.win_lock(win, 0, exclusive=True)
            t0 = mpi.now
            yield from mpi.win_put(win, 0, (mpi.rank, np.array([1.0])))
            yield from mpi.compute(0.003)
            yield from mpi.win_unlock(win, 0)
            spans.append((mpi.rank, t0, mpi.now))
        yield from mpi.barrier()

    run_spmd(main, 3, n_nodes=3, cores_per_node=1)
    assert [r for r, _t0, _t1 in spans] == [1, 2]
    (_, a0, a1), (_, b0, b1) = spans
    assert a1 <= b0 or b1 <= a0  # epochs never overlap


def test_shared_lockers_overlap():
    """Shared epochs on one target are granted together, not serialized."""
    spans = []

    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(4)))
        if mpi.rank != 0:
            yield from mpi.win_lock(win, 0)
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
            yield from mpi.win_lock(win, 1)
            data = yield from mpi.win_get(win, 1, offset=2, count=3)
            yield from mpi.win_unlock(win, 1)
            yield from mpi.barrier()
            return data
        yield from mpi.compute(0.01)
        yield from mpi.barrier()
        return None

    results, _ = run_spmd(main, 2, n_nodes=2, cores_per_node=1)
    np.testing.assert_array_equal(results[0], [4.0, 6.0, 8.0])


def test_lock_epoch_misuse_raises():
    """Double lock, and flush/unlock outside an epoch: usage errors, not
    sanitizer findings — they raise where the bug is."""

    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(2)))
        caught = []
        if mpi.rank == 0:
            try:
                yield from mpi.win_unlock(win, 1)
            except ValueError:
                caught.append("unlock")
            try:
                yield from mpi.win_flush(win, 1)
            except ValueError:
                caught.append("flush")
            yield from mpi.win_lock(win, 1)
            try:
                yield from mpi.win_ilock(win, 1)
            except ValueError:
                caught.append("double-lock")
            yield from mpi.win_unlock(win, 1)
        yield from mpi.barrier()
        return caught

    results, _ = run_spmd(main, 2, n_nodes=2, cores_per_node=1)
    assert results[0] == ["unlock", "flush", "double-lock"]


def test_epoch_bookkeeping_and_modes():
    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(2)))
        if mpi.rank == 0:
            assert win.epoch_mode(mpi.gid, win.comm.peer_gid(1)) is None
            yield from mpi.win_lock(win, 1, exclusive=True)
            tgid = win.comm.peer_gid(1)
            assert win.epoch_mode(mpi.gid, tgid) == LOCK_EXCLUSIVE
            assert win.open_epochs(mpi.gid) == [tgid]
            yield from mpi.win_unlock(win, 1)
            assert win.epoch_mode(mpi.gid, tgid) is None
            assert win.open_epochs(mpi.gid) == []
        yield from mpi.barrier()

    run_spmd(main, 2, n_nodes=2, cores_per_node=1)
    assert LOCK_SHARED != LOCK_EXCLUSIVE


#: the error each one-sided op reports against a dead target, by when the
#: target died: before the op was issued, or while it was on the wire.
_DEAD_TARGET_MESSAGES = {
    ("put", "before-issue"): "win_put to dead rank 1",
    ("put", "in-flight"): "win_put target rank 1 died in flight",
    ("get", "before-issue"): "win_get from dead rank 1",
    ("get", "in-flight"): "win_get target rank 1 died in flight",
    ("lock", "before-issue"): "win_lock to dead rank 1",
    ("lock", "in-flight"): "win_lock target rank 1 died",
}


@pytest.mark.parametrize("when", ["before-issue", "in-flight"])
@pytest.mark.parametrize("op", ["put", "get", "lock"])
def test_one_sided_op_on_dead_target_fails(op, when):
    """A put, get or lock against a dead target completes in error, with
    a CommFailedError naming the dead gid, whether the target died before
    the op was issued or while it was in flight."""
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
    would enter the origin into the lock word twice, and one unlock would
    leave the target locked forever (a third rank's exclusive lock then
    never gets its grant)."""

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
            yield from mpi.win_lock(win, 0, exclusive=True)
            yield from mpi.win_unlock(win, 0)
        yield from mpi.barrier()
        return caught

    results, _ = run_spmd(main, 3, n_nodes=3, cores_per_node=1)
    assert results[1] == ["second-request"]


def _queued_lock_on_dying_target(die_before_arrival):
    """Rank 1 holds an exclusive lock on rank 0 and rank 2 asks for one too;
    rank 0 dies and rank 1 unlocks.  Rank 0 dies after rank 2's request
    has queued at its lock word, or while the request is still on the wire.
    Returns (rank 0's gid, rank 2's grant event)."""
    seen = {}

    def main(mpi):
        win = yield from mpi.win_create(ArrayExposure(np.zeros(4)))
        target = win.peer_gid(mpi.gid, 0)
        if mpi.rank == 0:
            yield from mpi.compute(10.0)  # killed long before this ends
        elif mpi.rank == 1:
            yield from mpi.win_lock(win, 0, exclusive=True)
            yield from mpi.sleep(1e-3)  # rank 2 asks at 5e-4
            if not die_before_arrival:
                mpi.world.terminate_ranks([target])
            yield from mpi.win_unlock(win, 0)
        else:
            yield from mpi.sleep(5e-4)
            granted = yield from mpi.win_ilock(win, 0, exclusive=True)
            if die_before_arrival:
                mpi.world.terminate_ranks([target])
            yield from mpi.sleep(1.0)
            seen.update(target=target, granted=granted)
        return None

    run_spmd(main, 3, n_nodes=3, cores_per_node=1)
    return seen["target"], seen["granted"]


@pytest.mark.parametrize("die_before_arrival", [False, True])
def test_lock_request_queued_at_dead_target_fails(die_before_arrival):
    """No release ever reaches a dead target's lock word, so a request
    waiting there fails with the dead gid instead of waiting forever."""
    target, granted = _queued_lock_on_dying_target(die_before_arrival)
    assert granted.failed
    with pytest.raises(CommFailedError) as err:
        granted.value
    assert err.value.dead_gids == [target]
