"""End-to-end redistribution over simulated MPI.

Every combination of {P2P, COL, RMA} x {merge-style intra, baseline-style
inter} x {blocking, test-driven} must deliver bit-identical data.
"""

from collections import Counter

import numpy as np
import pytest
from scipy import sparse as sp

from repro.cluster import ETHERNET_10G, Machine
from repro.obs import MetricsProbe
from repro.redistribution import (
    VALUES_TAG,
    Dataset,
    FieldSpec,
    RedistMethod,
    RedistributionPlan,
    make_session,
)
from repro.redistribution.session import lower
from repro.simulate import Simulator
from repro.smpi import MpiWorld, run_spmd

N_ROWS = 60
N_COLS = 30


def specs():
    return (
        FieldSpec("A", "csr", constant=True),
        FieldSpec("x", "dense", constant=False),
        FieldSpec("blob", "virtual", constant=True, bytes_per_row=500.0),
    )


def global_matrix():
    rng = np.random.default_rng(42)
    return sp.random(N_ROWS, N_COLS, density=0.3, random_state=rng, format="csr")


def global_vector():
    return np.arange(N_ROWS, dtype=np.float64) * 1.5


def source_dataset(plan, s):
    lo, hi = plan.src_range(s)
    return Dataset.create(
        N_ROWS, specs(), lo, hi,
        data={"A": global_matrix()[lo:hi], "x": global_vector()[lo:hi]},
        fill_virtual=True,
    )


def target_dataset(plan, t):
    lo, hi = plan.dst_range(t)
    return Dataset.create(N_ROWS, specs(), lo, hi)


def check_target(ds, plan, t):
    lo, hi = plan.dst_range(t)
    np.testing.assert_allclose(
        ds.stores["A"].matrix.toarray(), global_matrix()[lo:hi].toarray()
    )
    np.testing.assert_array_equal(ds.stores["x"].data, global_vector()[lo:hi])
    assert ds.stores["blob"].complete


def merge_style_main(mpi, method, ns, nt, driving, variant=None):
    """All ranks share one intra-comm; ranks < ns are sources, < nt targets."""
    plan = RedistributionPlan.block(N_ROWS, ns, nt)
    r = mpi.rank
    src_rank = r if r < ns else None
    dst_rank = r if r < nt else None
    if src_rank is None and dst_rank is None:
        return "idle"
    session = make_session(
        method,
        mpi,
        mpi.comm_world,
        plan,
        names=["A", "x", "blob"],
        src_rank=src_rank,
        dst_rank=dst_rank,
        src_dataset=source_dataset(plan, src_rank) if src_rank is not None else None,
        dst_dataset=target_dataset(plan, dst_rank) if dst_rank is not None else None,
        variant=variant,
    )
    if driving == "blocking":
        yield from session.run_blocking()
    else:  # test-driven (strategy A shape)
        yield from session.start()
        while not (yield from session.test()):
            yield from mpi.compute(1e-4)
    if dst_rank is not None:
        check_target(session.dst_dataset, plan, dst_rank)
        return "target-ok"
    return "source-done"


MERGE_CASES = [(4, 2), (2, 4), (3, 5), (5, 3), (4, 4), (1, 5), (5, 1)]


@pytest.mark.parametrize("method", [RedistMethod.P2P, RedistMethod.COL, RedistMethod.RMA])
@pytest.mark.parametrize("ns,nt", MERGE_CASES)
def test_merge_style_blocking(method, ns, nt):
    p = max(ns, nt)
    results, _ = run_spmd(
        merge_style_main, p, args=(method, ns, nt, "blocking"),
        n_nodes=4, cores_per_node=2,
    )
    assert all(r in ("target-ok", "source-done") for r in results)
    assert results.count("target-ok") == nt


@pytest.mark.parametrize("method", [RedistMethod.P2P, RedistMethod.COL, RedistMethod.RMA])
@pytest.mark.parametrize("ns,nt", [(4, 2), (2, 4), (3, 3)])
def test_merge_style_test_driven(method, ns, nt):
    """Strategy-A shape: sources/targets drive the session with test()."""
    p = max(ns, nt)
    results, _ = run_spmd(
        merge_style_main, p, args=(method, ns, nt, "testing"),
        n_nodes=4, cores_per_node=2,
    )
    assert results.count("target-ok") == nt


def baseline_style_main(mpi, method, ns, nt, driving, variant=None):
    """Sources spawn nt children and redistribute over the inter-comm."""
    plan = RedistributionPlan.block(N_ROWS, ns, nt)

    def child(cmpi):
        t = cmpi.rank
        session = make_session(
            method, cmpi, cmpi.parent, plan,
            names=["A", "x", "blob"],
            dst_rank=t,
            dst_dataset=target_dataset(plan, t),
            variant=variant,
        )
        if driving == "blocking":
            yield from session.run_blocking()
        else:
            # Async strategies: every rank must enter the same non-blocking
            # collectives; targets just wait on them immediately (§3.2).
            yield from session.start()
            yield from session.finish()
        check_target(session.dst_dataset, plan, t)
        cmpi.finalize()
        return "child-ok"

    inter = yield from mpi.comm_spawn(child, slots=range(ns, ns + nt))
    s = mpi.rank
    session = make_session(
        method, mpi, inter, plan,
        names=["A", "x", "blob"],
        src_rank=s,
        src_dataset=source_dataset(plan, s),
        variant=variant,
    )
    if driving == "blocking":
        yield from session.run_blocking()
    else:
        yield from session.start()
        while not (yield from session.test()):
            yield from mpi.compute(1e-4)
    return "source-done"


@pytest.mark.parametrize("method", [RedistMethod.P2P, RedistMethod.COL, RedistMethod.RMA])
@pytest.mark.parametrize("ns,nt", [(2, 3), (3, 2), (2, 2)])
def test_baseline_style_blocking(method, ns, nt):
    results, sim = run_spmd(
        baseline_style_main, ns, args=(method, ns, nt, "blocking"),
        n_nodes=4, cores_per_node=2,
    )
    assert results == ["source-done"] * ns
    child_results = [
        p.result for p in sim._processes if p.name.startswith("spawned")
    ]
    assert child_results == ["child-ok"] * nt


@pytest.mark.parametrize("method", [RedistMethod.P2P, RedistMethod.COL])
def test_baseline_style_async_sources(method):
    ns, nt = 3, 2
    results, sim = run_spmd(
        baseline_style_main, ns, args=(method, ns, nt, "testing"),
        n_nodes=4, cores_per_node=2,
    )
    assert results == ["source-done"] * ns


#: every shipped session shape: (method, RMA variant).
SHIPPED = [("p2p", None), ("col", None), ("rma", "origin"), ("rma", "target")]
PHASES = ("values", "put", "get", "memcpy")


def lowered_transfers(plan, method, variant, spawn):
    """Per-phase chunk count of every rank's lowered program."""
    ns, nt = plan.n_sources, plan.n_targets
    if spawn == "merge":
        roles = [(r if r < ns else None, r if r < nt else None)
                 for r in range(max(ns, nt))]
    else:
        roles = [(s, None) for s in range(ns)] + [(None, t) for t in range(nt)]
    counts = Counter()
    for src_rank, dst_rank in roles:
        for op in lower(plan, method, src_rank, dst_rank, variant or "origin"):
            if op["op"] == "alltoallv":
                counts["values"] += len(op["send_to"])
            elif op["op"] == "isend" and op["tag"] == VALUES_TAG:
                counts["values"] += 1
            elif op["op"] in PHASES:
                counts[op["op"]] += 1
    return {phase: counts[phase] for phase in PHASES}


@pytest.mark.parametrize("method,variant", SHIPPED,
                         ids=["p2p", "col", "rma-origin", "rma-target"])
@pytest.mark.parametrize("spawn", ["merge", "baseline"])
@pytest.mark.parametrize("ns,nt", [(2, 4), (4, 2), (3, 3)])
def test_lowered_program_is_what_ships(method, variant, spawn, ns, nt):
    """The runtime transfer counters equal the chunk ops of the ranks'
    lowered programs — the same programs the static verifier checks."""
    plan = RedistributionPlan.block(N_ROWS, ns, nt)
    sim = Simulator()
    machine = Machine(sim, 4, 2, ETHERNET_10G)
    world = MpiWorld(machine)
    probe = MetricsProbe().attach(machine, world)
    if spawn == "merge":
        main, slots = merge_style_main, range(max(ns, nt))
    else:
        main, slots = baseline_style_main, range(ns)
    world.launch(main, slots=slots, args=(method, ns, nt, "blocking", variant))
    sim.run()
    counters = probe.detach().registry.to_dict()["counters"]
    shipped = {
        phase: counters.get(
            f"redist.transfers{{method={method},phase={phase}}}", 0)
        for phase in PHASES
    }
    expected = lowered_transfers(plan, method, variant, spawn)
    assert sum(expected.values()) > 0
    assert shipped == expected


def test_thread_driven_redistribution():
    """Strategy-T shape: an aux thread runs the blocking session while the
    main flow computes; data must still arrive intact."""
    ns, nt = 3, 2
    method = RedistMethod.P2P

    def main(mpi):
        plan = RedistributionPlan.block(N_ROWS, ns, nt)
        r = mpi.rank
        src_rank = r if r < ns else None
        dst_rank = r if r < nt else None
        session = make_session(
            method, mpi, mpi.comm_world, plan,
            names=["A", "x", "blob"],
            src_rank=src_rank,
            dst_rank=dst_rank,
            src_dataset=source_dataset(plan, src_rank) if src_rank is not None else None,
            dst_dataset=target_dataset(plan, dst_rank) if dst_rank is not None else None,
        )

        def comm_thread(tmpi):
            yield from session.run_blocking()
            return "thread-done"

        handle = yield from mpi.spawn_thread(comm_thread)
        iterations = 0
        while not handle.finished:
            yield from mpi.compute(1e-3)
            iterations += 1
        if dst_rank is not None:
            check_target(session.dst_dataset, plan, dst_rank)
        return iterations

    results, _ = run_spmd(main, max(ns, nt), n_nodes=3, cores_per_node=2)
    assert all(isinstance(r, int) for r in results)


def test_session_validation():
    from repro.redistribution import P2PRedistribution

    plan = RedistributionPlan.block(10, 2, 2)
    with pytest.raises(ValueError, match="at least one role"):
        P2PRedistribution(None, None, plan, ["x"])
    with pytest.raises(ValueError, match="source dataset"):
        P2PRedistribution(None, None, plan, ["x"], src_rank=0)
    with pytest.raises(ValueError, match="empty field list"):
        P2PRedistribution(None, None, plan, [], src_rank=0, src_dataset=object())
