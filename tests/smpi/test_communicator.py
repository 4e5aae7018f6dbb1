"""Communicator semantics: groups, inter/intra lookups, dup/create ops."""

import pytest

from repro.smpi import Communicator, run_spmd


# ------------------------------------------------------------- pure object
def test_intra_basicum():
    c = Communicator(1, (10, 11, 12))
    assert not c.is_inter
    assert c.size == 3 and c.remote_size == 3
    assert c.rank_of_gid(11) == 1
    assert c.peer_gid(2) == 12
    assert c.contains_gid(12) and not c.contains_gid(99)


def test_inter_lookups():
    c = Communicator(2, (1, 2), remote_group=(7, 8, 9))
    assert c.is_inter
    assert c.size == 2 and c.remote_size == 3
    assert c.peer_gid(1) == 8  # peers index the remote group


def test_group_validation():
    with pytest.raises(ValueError):
        Communicator(1, (1, 1))
    with pytest.raises(ValueError):
        Communicator(1, ())
    with pytest.raises(ValueError):
        Communicator(1, (1, 2), remote_group=(2, 3))  # overlap
    with pytest.raises(ValueError):
        Communicator(1, (1,), remote_group=())


def test_peer_rank_bounds():
    c = Communicator(1, (5, 6))
    with pytest.raises(IndexError):
        c.peer_gid(2)
    with pytest.raises(KeyError):
        c.rank_of_gid(99)


# ----------------------------------------------------------------- live ops
def test_comm_dup_gives_fresh_context_same_group():
    def main(mpi):
        dup = yield from mpi.comm_dup()
        assert dup.ctx_id != mpi.comm_world.ctx_id
        assert dup.group == mpi.comm_world.group
        # Traffic on the duplicate must not cross-match the original.
        if mpi.rank == 0:
            yield from mpi.send("on-dup", dest=1, tag=3, comm=dup)
            yield from mpi.send("on-world", dest=1, tag=3)
            return None
        world_msg = yield from mpi.recv(source=0, tag=3)
        dup_msg = yield from mpi.recv(source=0, tag=3, comm=dup)
        return (world_msg, dup_msg)

    results, _ = run_spmd(main, 2)
    assert results[1] == ("on-world", "on-dup")


def test_comm_create_subset():
    def main(mpi):
        sub = yield from mpi.comm_create(mpi.comm_world, [0, 2])
        if mpi.rank in (0, 2):
            assert sub is not None
            total = yield from mpi.allreduce(1, comm=sub)
            return total
        assert sub is None
        return None

    results, _ = run_spmd(main, 3)
    assert results == [2, None, 2]


def test_comm_create_empty_rejected():
    def main(mpi):
        try:
            yield from mpi.comm_create(mpi.comm_world, [])
        except ValueError:
            return "rejected"
        return "accepted"

    results, _ = run_spmd(main, 2)
    assert results == ["rejected", "rejected"]


def test_async_spawn_handle():
    def child(mpi):
        mpi.finalize()
        return "child"
        yield  # pragma: no cover

    def main(mpi):
        handle = yield from mpi.comm_spawn_async(child, slots=[1])
        assert not handle.completed  # spawn takes model time
        iters = 0
        while not handle.completed:
            yield from mpi.compute(0.05)
            iters += 1
        inter = handle.result
        assert inter.is_inter and inter.remote_size == 1
        return iters

    results, sim = run_spmd(main, 1)
    assert results[0] >= 1  # the caller really did keep computing


def test_async_merge_handle():
    def child(mpi):
        merged = yield from mpi.merge_intercomm(mpi.parent, high=True)
        total = yield from mpi.allreduce(1, comm=merged)
        mpi.finalize()
        return total

    def main(mpi):
        inter = yield from mpi.comm_spawn(child, slots=[1])
        handle = yield from mpi.merge_intercomm_async(inter, high=False)
        while not handle.completed:
            yield from mpi.compute(0.001)
        merged = handle.result
        total = yield from mpi.allreduce(1, comm=merged)
        return (merged.size, total)

    results, _ = run_spmd(main, 1)
    assert results[0] == (2, 2)


def test_intercomm_collectives_rejected_where_unsupported():
    def child(mpi):
        mpi.finalize()
        return None
        yield  # pragma: no cover

    def main(mpi):
        inter = yield from mpi.comm_spawn(child, slots=[1])
        try:
            yield from mpi.allreduce(1, comm=inter)
        except ValueError:
            return "rejected"
        return "accepted"

    results, _ = run_spmd(main, 1)
    assert results == ["rejected"]
