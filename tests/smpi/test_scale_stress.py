"""Larger-world stress: collectives and redistribution at 64+ ranks."""

import numpy as np
import pytest

from repro.redistribution import Dataset, FieldSpec, RedistMethod, RedistributionPlan
from repro.redistribution.api import make_session
from repro.smpi import run_spmd


def test_allreduce_64_ranks():
    def main(mpi):
        total = yield from mpi.allreduce(mpi.rank + 1)
        return total

    results, _ = run_spmd(main, 64, n_nodes=8, cores_per_node=8)
    assert all(r == 64 * 65 // 2 for r in results)


def test_bruck_alltoall_48_ranks():
    p = 48

    def main(mpi):
        got = yield from mpi.alltoall([mpi.rank * p + d for d in range(p)])
        return got == [s * p + mpi.rank for s in range(p)]

    results, _ = run_spmd(main, p, n_nodes=8, cores_per_node=6)
    assert all(results)


def test_allgatherv_40_ranks_ring():
    p = 40

    def main(mpi):
        blocks = yield from mpi.allgatherv(np.array([float(mpi.rank)]))
        return float(np.concatenate(blocks).sum())

    results, _ = run_spmd(main, p, n_nodes=8, cores_per_node=5)
    assert all(r == sum(range(p)) for r in results)


def test_redistribution_64_to_24():
    n = 6400
    specs = (FieldSpec("v", "dense", constant=True),)
    plan = RedistributionPlan.block(n, 64, 24)
    global_v = np.arange(n, dtype=np.float64)

    def main(mpi):
        r = mpi.rank
        src = r if r < 64 else None
        dst = r if r < 24 else None
        session = make_session(
            RedistMethod.P2P, mpi, mpi.comm_world, plan, names=["v"],
            src_rank=src, dst_rank=dst,
            src_dataset=(
                Dataset.create(n, specs, *plan.src_range(src),
                               data={"v": global_v[slice(*plan.src_range(src))]})
                if src is not None else None
            ),
            dst_dataset=(
                Dataset.create(n, specs, *plan.dst_range(dst))
                if dst is not None else None
            ),
        )
        yield from session.run_blocking()
        if dst is not None:
            lo, hi = plan.dst_range(dst)
            return bool(
                np.array_equal(session.dst_dataset.stores["v"].data,
                               global_v[lo:hi])
            )
        return None

    results, _ = run_spmd(main, 64, n_nodes=8, cores_per_node=8)
    assert all(r for r in results[:24])
