"""Collective correctness against numpy references, for varied sizes."""

import operator

import numpy as np
import pytest

from repro.smpi import op_min, op_sum, run_spmd

SIZES = [1, 2, 3, 4, 5, 7, 8]


@pytest.mark.parametrize("p", SIZES)
def test_barrier_synchronises(p):
    def main(mpi):
        # Ranks arrive at wildly different times; all must leave together.
        yield from mpi.compute(0.01 * (mpi.rank + 1))
        yield from mpi.barrier()
        return mpi.now

    results, _ = run_spmd(main, p, n_nodes=4, cores_per_node=max(1, (p + 3) // 4))
    latest_arrival = 0.01 * p
    assert all(t >= latest_arrival for t in results)


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast_from_any_root(p, root):
    root = p - 1 if root == "last" else 0

    def main(mpi):
        value = {"payload": list(range(10))} if mpi.rank == root else None
        value = yield from mpi.bcast(value, root=root)
        return value

    results, _ = run_spmd(main, p)
    assert all(r == {"payload": list(range(10))} for r in results)


@pytest.mark.parametrize("p", SIZES)
def test_allreduce_sum_scalar(p):
    def main(mpi):
        total = yield from mpi.allreduce(mpi.rank + 1, op_sum)
        return total

    results, _ = run_spmd(main, p)
    assert all(r == p * (p + 1) // 2 for r in results)


@pytest.mark.parametrize("p", SIZES)
def test_allreduce_sum_arrays(p):
    def main(mpi):
        vec = np.full(16, float(mpi.rank))
        out = yield from mpi.allreduce(vec, op_sum)
        return out

    results, _ = run_spmd(main, p)
    expected = np.full(16, float(sum(range(p))))
    for r in results:
        np.testing.assert_allclose(r, expected)


@pytest.mark.parametrize("op,expected", [
    pytest.param(max, lambda p: p - 1, id="op_max-<lambda>"),
    pytest.param(op_min, lambda p: 0, id="op_min-<lambda>"),
    pytest.param(operator.mul, lambda p: 0, id="op_prod-<lambda>"),
])
def test_allreduce_other_ops(op, expected):
    p = 5

    def main(mpi):
        out = yield from mpi.allreduce(mpi.rank, op)
        return out

    results, _ = run_spmd(main, p)
    assert all(r == expected(p) for r in results)


@pytest.mark.parametrize("p", SIZES)
def test_allgatherv_variable_blocks(p):
    def main(mpi):
        block = np.arange(mpi.rank + 1, dtype=np.float64) + 100 * mpi.rank
        blocks = yield from mpi.allgatherv(block)
        return np.concatenate(blocks)

    results, _ = run_spmd(main, p)
    expected = np.concatenate(
        [np.arange(r + 1, dtype=np.float64) + 100 * r for r in range(p)]
    )
    for r in results:
        np.testing.assert_array_equal(r, expected)


def _alltoall(mpi, send, algorithm):
    """``alltoall`` (Bruck above two ranks) or the direct ``ialltoall``."""
    if algorithm == "bruck":
        got = yield from mpi.alltoall(send)
        return got
    req, got = yield from mpi.ialltoall(send)
    yield from mpi.wait(req)
    return got


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("algorithm", ["bruck", "direct"])
def test_alltoall_matches_reference(p, algorithm):
    def main(mpi):
        send = [f"{mpi.rank}->{d}" for d in range(p)]
        got = yield from _alltoall(mpi, send, algorithm)
        return got

    results, _ = run_spmd(main, p)
    for r in range(p):
        assert results[r] == [f"{s}->{r}" for s in range(p)]


def test_alltoall_bruck_and_direct_agree_on_arrays():
    p = 6

    def run(algorithm):
        def main(mpi):
            send = [np.full(3, 10 * mpi.rank + d) for d in range(p)]
            got = yield from _alltoall(mpi, send, algorithm)
            return [g.tolist() for g in got]

        results, _ = run_spmd(main, p)
        return results

    assert run("bruck") == run("direct")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_alltoallv_pairwise_blocking(p):
    def main(mpi):
        send = {d: np.full(d + 1, float(mpi.rank)) for d in range(p)}
        got = yield from mpi.alltoallv(send, recv_from=list(range(p)))
        return {s: v.tolist() for s, v in got.items()}

    results, _ = run_spmd(main, p)
    for r in range(p):
        assert set(results[r]) == set(range(p))
        for s in range(p):
            assert results[r][s] == [float(s)] * (r + 1)


def test_alltoallv_sparse_pattern():
    """Only some pairs exchange data (block redistribution is sparse)."""
    p = 4

    def main(mpi):
        send = {}
        if mpi.rank < 2:  # only ranks 0,1 send, only to rank 3
            send[3] = np.array([float(mpi.rank)])
        recv_from = [0, 1] if mpi.rank == 3 else []
        got = yield from mpi.alltoallv(send, recv_from=recv_from)
        return {s: v.tolist() for s, v in got.items()}

    results, _ = run_spmd(main, p)
    assert results[3] == {0: [0.0], 1: [1.0]}
    assert results[0] == {} and results[2] == {}


@pytest.mark.parametrize("p", [2, 4, 5])
def test_ialltoallv_nonblocking(p):
    def main(mpi):
        send = {d: np.full(8, float(mpi.rank * p + d)) for d in range(p)}
        req, results = yield from mpi.ialltoallv(send, recv_from=list(range(p)))
        yield from mpi.wait(req)
        return {s: float(v[0]) for s, v in results.items()}

    results, _ = run_spmd(main, p)
    for r in range(p):
        assert results[r] == {s: float(s * p + r) for s in range(p)}


def test_ialltoall_nonblocking():
    p = 4

    def main(mpi):
        send = [100 * mpi.rank + d for d in range(p)]
        req, results = yield from mpi.ialltoall(send)
        yield from mpi.wait(req)
        return results

    results, _ = run_spmd(main, p)
    for r in range(p):
        assert results[r] == [100 * s + r for s in range(p)]


def test_collectives_compose_in_sequence():
    """Back-to-back collectives on one communicator must not cross-match."""
    p = 4

    def main(mpi):
        a = yield from mpi.allreduce(1, op_sum)
        yield from mpi.barrier()
        b = yield from mpi.bcast(a * 10 if mpi.rank == 2 else None, root=2)
        blocks = yield from mpi.allgatherv(np.array([float(mpi.rank)]))
        c = float(np.concatenate(blocks).sum())
        return (a, b, c)

    results, _ = run_spmd(main, p)
    assert all(r == (p, p * 10, sum(range(p))) for r in results)


def test_alltoall_wrong_length_rejected():
    def main(mpi):
        try:
            yield from mpi.alltoall([1, 2, 3])  # p=2, wrong length
        except ValueError:
            return "rejected"
        return "accepted"

    results, _ = run_spmd(main, 2)
    assert results == ["rejected", "rejected"]
