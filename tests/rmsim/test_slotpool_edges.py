"""SlotPool edge cases pinned by the bugfix sweep.

The release path historically mutated the free list before validating,
so a *detected* double free still corrupted the pool.  These tests pin
the validate-first contract plus the scattered-allocation paths the
trace scheduler leans on.
"""

import random

import pytest

from repro.rmsim import JobSpec, SlotPool, TraceScheduler


# ------------------------------------------------- validate-before-mutate
def test_pool_usable_after_rejected_release():
    pool = SlotPool(10)
    base = pool.allocate(4)
    pool.release(base, 4)
    with pytest.raises(ValueError):
        pool.release(base, 4)  # double free detected...
    # ...and the pool is NOT corrupted: the full machine still allocates.
    assert pool.free_slots == 10
    assert pool.allocate(10) == 0
    pool.release(0, 10)
    assert pool.free_slots == 10


def test_partial_overlap_release_rejected_without_damage():
    pool = SlotPool(10)
    assert pool.allocate(4) == 0  # busy: [0,4), free: [4,10)
    with pytest.raises(ValueError):
        pool.release(2, 4)  # [2,6) overlaps the free range [4,10)
    assert pool.free_slots == 6
    pool.release(0, 4)  # the legitimate release still works
    assert pool.allocate(10) == 0


def test_release_out_of_range_rejected():
    pool = SlotPool(8)
    pool.allocate(8)
    with pytest.raises(ValueError):
        pool.release(6, 4)  # [6,10) exceeds the pool
    with pytest.raises(ValueError):
        pool.release(-1, 2)
    pool.release(0, 8)
    assert pool.free_slots == 8


# ------------------------------------------------------ scattered paths
def test_allocate_scattered_spans_three_fragments():
    pool = SlotPool(12)
    a = pool.allocate(2)   # [0,2)
    b = pool.allocate(2)   # [2,4)
    c = pool.allocate(2)   # [4,6)
    d = pool.allocate(2)   # [6,8)
    e = pool.allocate(2)   # [8,10)
    pool.release(b, 2)
    pool.release(d, 2)
    # free fragments: [2,4), [6,8), [10,12) — a 6-slot ask spans all three.
    got = pool.allocate_scattered(6)
    assert got == [2, 3, 6, 7, 10, 11]
    assert pool.free_slots == 0
    assert pool.allocate_scattered(1) is None
    pool.release_slots(got)
    for base in (a, c, e):
        pool.release(base, 2)
    assert pool.allocate(12) == 0


def test_release_slots_duplicate_ids_raise_not_merge():
    pool = SlotPool(8)
    slots = pool.allocate_scattered(4)
    with pytest.raises(ValueError, match="duplicate slot id"):
        pool.release_slots(slots + [slots[0]])
    # Nothing was freed by the rejected call.
    assert pool.free_slots == 4
    pool.release_slots(slots)
    assert pool.free_slots == 8


def test_release_slots_atomic_when_later_run_double_frees():
    pool = SlotPool(10)
    held = pool.allocate(4)          # [0,4)
    free_already = [8, 9]            # tail of the pool is still free
    with pytest.raises(ValueError):
        pool.release_slots([0, 1, 2, 3] + free_already)
    # The earlier run [0,4) must NOT have been freed by the failed call.
    assert pool.free_slots == 6
    pool.release(held, 4)
    assert pool.allocate(10) == 0


# ------------------------------------------------------- extension at end
def test_extension_room_at_pool_end():
    pool = SlotPool(8)
    base = pool.allocate(6)  # [0,6), free tail [6,8)
    assert pool.extension_room(base, 6) == 2
    pool.claim_extension(base, 6, 2)
    assert pool.free_slots == 0
    # The block now ends exactly at the pool boundary: no room, and a
    # claim past the end is rejected.
    assert pool.extension_room(base, 8) == 0
    with pytest.raises(ValueError):
        pool.claim_extension(base, 8, 1)
    pool.release(base, 8)
    assert pool.free_slots == 8


# ------------------------------------------------------------ conservation
def test_alloc_free_round_trip_conserves_slots():
    pool = SlotPool(64)
    live: list[tuple[str, object]] = []
    # A deterministic interleaving of every alloc/free flavour.
    live.append(("block", (pool.allocate(10), 10)))
    base, k = live[0][1]
    pool.claim_extension(base, k, 3)  # free tail starts right after it
    live[0] = ("block", (base, k + 3))
    live.append(("scatter", pool.allocate_scattered(7)))
    live.append(("block", (pool.allocate(5), 5)))
    live.append(("scatter", pool.allocate_scattered(11)))
    held = sum(
        (len(v) if kind == "scatter" else v[1]) for kind, v in live
    )
    assert pool.free_slots == 64 - held
    for kind, v in live:
        if kind == "scatter":
            pool.release_slots(v)
        else:
            pool.release(v[0], v[1])
    assert pool.free_slots == 64
    assert pool.allocate(64) == 0


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
    """Every flavour of allocate/release, accepted and rejected, in a
    seeded random order: the maintained counter always equals the free
    list's total, the list stays canonical, and a rejected call leaves
    both exactly as they were."""
    rng = random.Random(seed)
    pool = SlotPool(rng.choice([7, 48, 200]))
    held: set[int] = set()           # slot ids handed out and not returned
    blocks: list[tuple[int, int]] = []   # contiguous (base, k) holdings
    runsets: list[list[tuple[int, int]]] = []  # run holdings
    idsets: list[list[int]] = []     # id-list holdings

    def rejected(call, *args):
        before = _snapshot(pool)
        with pytest.raises(ValueError):
            call(*args)
        assert _snapshot(pool) == before

    for _ in range(400):
        op = rng.randrange(11)
        k = rng.randint(1, max(1, pool.total // 3))
        if op == 0:
            base = pool.allocate(k)
            if base is not None:
                blocks.append((base, k))
                held.update(range(base, base + k))
        elif op == 1 and blocks:
            i = rng.randrange(len(blocks))
            base, cur = blocks[i]
            room = pool.extension_room(base, cur)
            assert room == next(
                (hi - lo for lo, hi in pool._free if lo == base + cur), 0
            )
            if room:
                extra = rng.randint(1, room)
                pool.claim_extension(base, cur, extra)
                held.update(range(base + cur, base + cur + extra))
                blocks[i] = (base, cur + extra)
            rejected(pool.claim_extension, base, blocks[i][1], room + 1)
        elif op == 2:
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
        elif op == 3:
            ids = pool.allocate_scattered(k)
            if ids is not None:
                assert len(ids) == k and ids == sorted(ids)
                held.update(ids)
                idsets.append(ids)
        elif op == 4 and blocks:
            base, cur = blocks.pop(rng.randrange(len(blocks)))
            pool.release(base, cur)
            held.difference_update(range(base, base + cur))
        elif op == 5 and runsets:
            runs = runsets.pop(rng.randrange(len(runsets)))
            rng.shuffle(runs)  # the order of runs in a call is free
            pool.release_runs(runs)
            held.difference_update(_ids(runs))
        elif op == 6 and idsets:
            ids = idsets.pop(rng.randrange(len(idsets)))
            rng.shuffle(ids)
            pool.release_slots(ids)
            held.difference_update(ids)
        elif op == 7 and pool._free:
            # double free of something already free, alone and after a
            # valid run of the same call (atomicity).
            lo, hi = rng.choice(pool._free)
            rejected(pool.release, lo, hi - lo)
            rejected(pool.release_slots, [lo])
            if runsets:
                rejected(pool.release_runs, runsets[-1] + [(lo, lo + 1)])
            if idsets:
                rejected(pool.release_slots, idsets[-1] + [hi - 1])
        elif op == 8:
            # out-of-range and malformed releases.
            rejected(pool.release, pool.total - 1, 2)
            rejected(pool.release, -1, 2)
            rejected(pool.release, 3, -1)
            rejected(pool.release_runs, [(pool.total, pool.total + 1)])
            rejected(pool.release_runs, [(2, 2)])
            rejected(pool.release_slots, [pool.total])
        elif op == 9 and runsets:
            # the same run twice in one call, and overlapping runs.
            lo, hi = runsets[-1][0]
            rejected(pool.release_runs, [(lo, hi), (lo, hi)])
            rejected(pool.release_runs, [(lo, hi), (hi - 1, hi)])
        elif op == 10 and idsets:
            rejected(pool.release_slots, idsets[-1] + idsets[-1][:1])
        _check_invariants(pool, held)

    for base, cur in blocks:
        pool.release(base, cur)
    for runs in runsets:
        pool.release_runs(runs)
    for ids in idsets:
        pool.release_slots(ids)
    assert _snapshot(pool) == ([(0, pool.total)], pool.total)


def test_release_of_zero_slots_is_a_no_op():
    pool = SlotPool(8)
    pool.allocate(3)
    before = _snapshot(pool)
    pool.release(5, 0)
    pool.release_runs([])
    pool.release_slots([])
    assert _snapshot(pool) == before


# ---------------------------------------------------------- run holdings
def test_shrink_frees_last_allocated_slots_and_keeps_base():
    """A trace job holds runs in allocation order: growing appends, a
    shrink frees from the tail (splitting a run if it must), and
    ``record.base`` stays the first slot the job was ever handed."""
    # Fragment a 32-slot pool: free = [2,6) [10,14) [20,32).
    sched = TraceScheduler(32, [JobSpec("j", 0.0, 100, 1.0, 2, 16)])
    pool = sched.pool
    assert pool.allocate(32) == 0
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
