"""SlotPool edge cases pinned by the bugfix sweep.

The release path historically mutated the free list before validating,
so a *detected* double free still corrupted the pool.  These tests pin
the validate-first contract plus the run-allocation paths both
executors lean on.
"""

import random

import pytest

from repro.rmsim import JobSpec, SlotPool, TraceScheduler


# ------------------------------------------------- validate-before-mutate
def test_pool_usable_after_rejected_release():
    pool = SlotPool(10)
    runs = pool.allocate_runs(4)
    pool.release_runs(runs)
    with pytest.raises(ValueError):
        pool.release_runs(runs)  # double free detected...
    # ...and the pool is NOT corrupted: the full machine still allocates.
    assert pool.free_slots == 10
    assert pool.allocate_runs(10) == [(0, 10)]
    pool.release_runs([(0, 10)])
    assert pool.free_slots == 10


def test_partial_overlap_release_rejected_without_damage():
    pool = SlotPool(10)
    assert pool.allocate_runs(4) == [(0, 4)]  # busy: [0,4), free: [4,10)
    with pytest.raises(ValueError):
        pool.release_runs([(2, 6)])  # [2,6) overlaps the free range [4,10)
    assert pool.free_slots == 6
    pool.release_runs([(0, 4)])  # the legitimate release still works
    assert pool.allocate_runs(10) == [(0, 10)]


def test_release_out_of_range_rejected():
    pool = SlotPool(8)
    pool.allocate_runs(8)
    with pytest.raises(ValueError):
        pool.release_runs([(6, 10)])  # [6,10) exceeds the pool
    with pytest.raises(ValueError):
        pool.release_runs([(-1, 1)])
    pool.release_runs([(0, 8)])
    assert pool.free_slots == 8


# ------------------------------------------------------ scattered paths
def test_allocate_scattered_spans_three_fragments():
    pool = SlotPool(12)
    a, b, c, d, e = (pool.allocate_runs(2) for _ in range(5))
    pool.release_runs(b)
    pool.release_runs(d)
    # free fragments: [2,4), [6,8), [10,12) — a 6-slot ask spans all three.
    got = pool.allocate_runs(6)
    assert got == [(2, 4), (6, 8), (10, 12)]
    assert pool.free_slots == 0
    assert pool.allocate_runs(1) is None
    pool.release_runs(got)
    for runs in (a, c, e):
        pool.release_runs(runs)
    assert pool.allocate_runs(12) == [(0, 12)]


def test_release_slots_duplicate_ids_raise_not_merge():
    pool = SlotPool(8)
    runs = pool.allocate_runs(4)
    with pytest.raises(ValueError, match="given twice"):
        pool.release_runs(runs + [(3, 4)])
    # Nothing was freed by the rejected call.
    assert pool.free_slots == 4
    pool.release_runs(runs)
    assert pool.free_slots == 8


def test_release_slots_atomic_when_later_run_double_frees():
    pool = SlotPool(10)
    held = pool.allocate_runs(4)     # [0,4)
    free_already = [(8, 10)]         # tail of the pool is still free
    with pytest.raises(ValueError):
        pool.release_runs(held + free_already)
    # The earlier run [0,4) must NOT have been freed by the failed call.
    assert pool.free_slots == 6
    pool.release_runs(held)
    assert pool.allocate_runs(10) == [(0, 10)]


# ------------------------------------------------------------ conservation
def test_alloc_free_round_trip_conserves_slots():
    pool = SlotPool(64)
    # A deterministic interleaving: fragment the pool, then allocate runs
    # across the holes and free everything in a different order.
    live = [pool.allocate_runs(k) for k in (10, 3, 7, 5)]
    pool.release_runs(live.pop(1))          # a 3-slot hole at [10,13)
    live.append(pool.allocate_runs(11))     # spans the hole and the tail
    assert live[-1] == [(10, 13), (25, 33)]
    held = sum(hi - lo for runs in live for lo, hi in runs)
    assert pool.free_slots == 64 - held
    for runs in reversed(live):
        pool.release_runs(runs)
    assert pool.free_slots == 64
    assert pool.allocate_runs(64) == [(0, 64)]


# ------------------------------------------------- counter == free list
def _snapshot(pool):
    return (list(pool._free), pool.free_slots)


def _check_invariants(pool, held):
    free = pool._free
    assert pool.free_slots == sum(hi - lo for lo, hi in free)
    assert pool.free_slots == pool.total - len(held)
    for lo, hi in free:
        assert 0 <= lo < hi <= pool.total
    # sorted, non-overlapping *and* coalesced: a gap between neighbours.
    for (_, hi), (lo, _) in zip(free, free[1:]):
        assert hi < lo
    assert not held & {s for lo, hi in free for s in range(lo, hi)}


def _ids(runs):
    return [s for lo, hi in runs for s in range(lo, hi)]


@pytest.mark.parametrize("seed", range(20))
def test_random_interleaving_keeps_counter_and_free_list_in_step(seed):
    """Allocations and releases, accepted and rejected, in a seeded random
    order: the maintained counter always equals the free list's total, the
    list stays canonical, and a rejected call leaves both exactly as they
    were."""
    rng = random.Random(seed)
    pool = SlotPool(rng.choice([7, 48, 200]))
    held: set[int] = set()           # slot ids handed out and not returned
    runsets: list[list[tuple[int, int]]] = []  # run holdings

    def rejected(call, *args):
        before = _snapshot(pool)
        with pytest.raises(ValueError):
            call(*args)
        assert _snapshot(pool) == before

    for _ in range(400):
        op = rng.randrange(7)
        k = rng.randint(1, max(1, pool.total // 3))
        if op in (0, 1):
            free_before = pool.free_slots
            runs = pool.allocate_runs(k)
            if runs is None:
                assert free_before < k
            else:
                assert sum(hi - lo for lo, hi in runs) == k
                assert runs == sorted(runs)
                # the k lowest free slots, nothing else
                assert not held & set(_ids(runs))
                assert all(s in held for s in range(runs[0][0]))
                held.update(_ids(runs))
                runsets.append(runs)
        elif op == 2 and runsets:
            runs = runsets.pop(rng.randrange(len(runsets)))
            rng.shuffle(runs)  # the order of runs in a call is free
            pool.release_runs(runs)
            held.difference_update(_ids(runs))
        elif op == 3 and runsets:
            # a shrink: free the last-allocated slots of one holding,
            # splitting a run when the cut falls inside it.
            runs = runsets[rng.randrange(len(runsets))]
            lo, hi = runs.pop()
            cut = rng.randint(lo, hi - 1)
            if cut > lo:
                runs.append((lo, cut))
            pool.release_runs([(cut, hi)])
            held.difference_update(range(cut, hi))
            if not runs:
                runsets.remove(runs)
        elif op == 4 and pool._free:
            # double free of something already free, alone and after a
            # valid run of the same call (atomicity).
            lo, hi = rng.choice(pool._free)
            rejected(pool.release_runs, [(lo, hi)])
            rejected(pool.release_runs, [(hi - 1, hi)])
            if runsets:
                rejected(pool.release_runs, runsets[-1] + [(lo, lo + 1)])
        elif op == 5:
            # out-of-range and malformed releases.
            rejected(pool.release_runs, [(pool.total - 1, pool.total + 1)])
            rejected(pool.release_runs, [(-1, 1)])
            rejected(pool.release_runs, [(3, 2)])
            rejected(pool.release_runs, [(pool.total, pool.total + 1)])
            rejected(pool.release_runs, [(2, 2)])
        elif op == 6 and runsets:
            # the same run twice in one call, and overlapping runs.
            lo, hi = runsets[-1][0]
            rejected(pool.release_runs, [(lo, hi), (lo, hi)])
            rejected(pool.release_runs, [(lo, hi), (hi - 1, hi)])
        _check_invariants(pool, held)

    for runs in runsets:
        pool.release_runs(runs)
    assert _snapshot(pool) == ([(0, pool.total)], pool.total)


def test_release_of_zero_slots_is_a_no_op():
    pool = SlotPool(8)
    pool.allocate_runs(3)
    before = _snapshot(pool)
    pool.release_runs([])
    assert _snapshot(pool) == before


# ---------------------------------------------------------- run holdings
def test_shrink_frees_last_allocated_slots_and_keeps_base():
    """A trace job holds runs in allocation order: growing appends, a
    shrink frees from the tail (splitting a run if it must), and
    ``record.base`` stays the first slot the job was ever handed."""
    # Fragment a 32-slot pool: free = [2,6) [10,14) [20,32).
    sched = TraceScheduler(32, [JobSpec("j", 0.0, 100, 1.0, 2, 16)])
    pool = sched.pool
    assert pool.allocate_runs(32) == [(0, 32)]
    pool.release_runs([(2, 6), (10, 14), (20, 32)])
    job = sched._tjobs["j"]
    sched._enqueue(job)
    assert sched.start(job, 6)
    assert job.slots == [(2, 6), (10, 12)]
    assert job.record.base == 2
    now = sched.sim.now
    assert sched.request_resize(job, 11)  # a grow claims its slots at once
    sched._commit_resize(job, now)
    assert job.slots == [(2, 6), (10, 12), (12, 14), (20, 23)]
    # Shrink by 6: all of the last two runs and the top slot of (10, 12).
    assert sched.request_resize(job, 5)
    assert pool.free_slots == 9  # a shrink frees only when it commits
    sched._commit_resize(job, now)
    assert job.slots == [(2, 6), (10, 11)]
    assert pool._free == [(11, 14), (20, 32)]
    assert pool.free_slots == 15
    assert job.record.base == job.slots[0][0] == 2


# ------------------------------------------- one bisect per run, applied top-down
def test_runs_released_into_one_gap_coalesce_with_each_other_and_both_neighbours():
    """Every run of one call can share a gap of the free list: the runs are
    applied from the highest down on indexes found before any of them, and
    they merge with each other and with the free ranges on both sides."""
    pool = SlotPool(20)
    pool.allocate_runs(20)
    pool.release_runs([(0, 4), (12, 20)])
    assert pool._free == [(0, 4), (12, 20)]
    # Three runs in the gap [4, 12), out of order: together they close it.
    pool.release_runs([(6, 9), (9, 12), (4, 6)])
    assert _snapshot(pool) == ([(0, 20)], 20)


def test_runs_released_into_one_gap_without_touching_stay_apart():
    pool = SlotPool(20)
    pool.allocate_runs(20)
    pool.release_runs([(0, 4), (16, 20)])
    # Into the gap [4, 16): one touches the left range, one the right, one
    # neither, and two touch each other.
    pool.release_runs([(14, 16), (7, 8), (4, 5), (10, 11), (11, 12)])
    assert _snapshot(pool) == ([(0, 5), (7, 8), (10, 12), (14, 20)], 14)


def test_double_free_in_the_last_run_of_a_release_changes_nothing():
    pool = SlotPool(20)
    pool.allocate_runs(20)
    pool.release_runs([(2, 4), (10, 12)])
    before = _snapshot(pool)
    # The lower runs are valid and would coalesce with (2, 4); the highest
    # one is already free.
    with pytest.raises(ValueError, match="double free"):
        pool.release_runs([(0, 2), (4, 6), (11, 12)])
    assert _snapshot(pool) == before
    pool.release_runs([(0, 2), (4, 6)])
    assert _snapshot(pool) == ([(0, 6), (10, 12)], 8)
