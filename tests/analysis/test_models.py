"""Analytic models vs the simulator: they must agree where both are valid."""

import numpy as np
import pytest

from repro.analysis.models import (
    Prediction,
    chunk_times,
    message_time,
    predict_p2p_redistribution,
    predict_pairwise_alltoallv,
    predict_reconfiguration,
)
from repro.cluster import ETHERNET_10G, INFINIBAND_EDR, Machine
from repro.redistribution import (
    Dataset,
    FieldSpec,
    RedistMethod,
    RedistributionPlan,
    make_session,
)
from repro.simulate import Simulator
from repro.smpi import MpiWorld, SpawnModel, run_spmd


# ----------------------------------------------------------- message model
def test_message_time_components():
    t_small = message_time(ETHERNET_10G, 1000)  # eager
    assert t_small == pytest.approx(
        ETHERNET_10G.latency + 1000 / ETHERNET_10G.bandwidth
        + 1000 / ETHERNET_10G.copy_rate
    )
    t_big = message_time(ETHERNET_10G, 10_000_000)  # rendezvous
    assert t_big > 10_000_000 / ETHERNET_10G.bandwidth
    # Handshake adds two extra latencies over the eager formula.
    assert t_big == pytest.approx(
        3 * ETHERNET_10G.latency
        + 10_000_000 / ETHERNET_10G.bandwidth
        + 10_000_000 / ETHERNET_10G.copy_rate
    )


def test_simulated_message_matches_model():
    """Uncontended single transfer: simulator == closed form (within the
    per-message CPU overheads the model folds away)."""
    nbytes = 4_000_000
    payload = np.zeros(nbytes // 8)

    def main(mpi):
        if mpi.rank == 0:
            yield from mpi.send(payload, dest=1)
            return None
        t0 = mpi.now
        yield from mpi.recv(source=0)
        return mpi.now - t0

    # Two cores per node with one rank each: the rx copy gets a spare core,
    # which is what the closed form assumes.  Slots 0,2 -> different nodes.
    for fabric in (ETHERNET_10G, INFINIBAND_EDR):
        sim = Simulator()
        machine = Machine(sim, 2, 2, fabric)
        world = MpiWorld(machine)
        res = world.launch(main, slots=[0, 2])
        sim.run()
        predicted = message_time(fabric, nbytes)
        assert res.procs[1].result == pytest.approx(predicted, rel=0.05), fabric.name


# ------------------------------------------------------ redistribution model
def run_redistribution_sim(plan, bytes_per_row, method, fabric):
    n_rows = plan.n_rows
    spec = (FieldSpec("blob", "virtual", constant=True, bytes_per_row=bytes_per_row),)
    sim = Simulator()
    machine = Machine(sim, 8, 1, fabric)
    world = MpiWorld(machine)

    def main(mpi):
        r = mpi.rank
        src = r if r < plan.n_sources else None
        dst = r if r < plan.n_targets else None
        if src is None and dst is None:
            return None
        session = make_session(
            method, mpi, mpi.comm_world, plan, names=["blob"],
            src_rank=src, dst_rank=dst,
            src_dataset=(
                Dataset.create(n_rows, spec, *plan.src_range(src), fill_virtual=True)
                if src is not None else None
            ),
            dst_dataset=(
                Dataset.create(n_rows, spec, *plan.dst_range(dst))
                if dst is not None else None
            ),
        )
        yield from session.run_blocking()
        return mpi.now

    world.launch(main, slots=range(max(plan.n_sources, plan.n_targets)))
    sim.run()
    return sim.now


@pytest.mark.parametrize("ns,nt", [(4, 2), (2, 4), (4, 4)])
@pytest.mark.parametrize("fabric", [ETHERNET_10G, INFINIBAND_EDR], ids=lambda f: f.name)
def test_p2p_simulation_close_to_model(ns, nt, fabric):
    plan = RedistributionPlan.block(64_000, ns, nt)
    bpr = 1000.0
    predicted = predict_p2p_redistribution(plan, bpr, fabric)
    simulated = run_redistribution_sim(plan, bpr, RedistMethod.P2P, fabric)
    if predicted == 0:  # identity plan: self-copies only
        assert simulated < 0.02
    else:
        assert simulated == pytest.approx(predicted, rel=0.5)
        # The model is a lower-bound-ish estimate: sim >= ~model.
        assert simulated >= predicted * 0.5


@pytest.mark.parametrize("ns,nt", [(4, 2), (2, 4)])
def test_pairwise_model_exceeds_p2p_model(ns, nt):
    """The serialized collective schedule costs at least as much as the
    concurrent P2P one — the analytical root of the paper's Figure 2."""
    plan = RedistributionPlan.block(64_000, ns, nt)
    bpr = 1000.0
    for fabric in (ETHERNET_10G, INFINIBAND_EDR):
        assert predict_pairwise_alltoallv(plan, bpr, fabric) >= (
            predict_p2p_redistribution(plan, bpr, fabric) * 0.8
        )


def test_chunk_times_cover_all_cross_transfers():
    plan = RedistributionPlan.block(1000, 3, 5)
    times = chunk_times(plan, 8.0, ETHERNET_10G)
    crossing = [
        t for s in range(3) for t in plan.sends_for(s) if t.src != t.dst
    ]
    assert len(times) == len(crossing)
    assert all(v > 0 for v in times.values())


# ------------------------------------------------------------- end to end
def test_predict_reconfiguration_breakdown():
    plan = RedistributionPlan.block(100_000, 4, 8)
    spawn = SpawnModel()
    pred = predict_reconfiguration(
        plan, 500.0, ETHERNET_10G, spawn, cores_per_node=2, method="p2p",
        merge=True,
    )
    assert pred.spawn > 0  # 4 new processes
    assert pred.redistribution > 0
    assert pred.total == pytest.approx(pred.spawn + pred.redistribution)
    # Merge shrink spawns nothing.
    plan2 = RedistributionPlan.block(100_000, 8, 4)
    pred2 = predict_reconfiguration(
        plan2, 500.0, ETHERNET_10G, spawn, cores_per_node=2, merge=True
    )
    assert pred2.spawn == pytest.approx(spawn.merge_cost)
    # Baseline always spawns NT.
    pred3 = predict_reconfiguration(
        plan2, 500.0, ETHERNET_10G, spawn, cores_per_node=2, merge=False
    )
    assert pred3.spawn > pred2.spawn


def test_predict_reconfiguration_method_validation():
    plan = RedistributionPlan.block(100, 2, 2)
    with pytest.raises(ValueError):
        predict_reconfiguration(
            plan, 8.0, ETHERNET_10G, SpawnModel(), 2, method="bogus"
        )


def test_predict_rma_cheaper_control_than_p2p():
    """Same bandwidth floor, but no size round and no per-chunk rendezvous:
    the RMA closed form undercuts P2P's on every plan."""
    from repro.analysis.models import (
        predict_p2p_redistribution,
        predict_rma_redistribution,
    )

    plan = RedistributionPlan.block(100_000, 8, 4)
    rma = predict_rma_redistribution(plan, 500.0, ETHERNET_10G)
    p2p = predict_p2p_redistribution(plan, 500.0, ETHERNET_10G)
    assert 0 < rma < p2p
    empty = RedistributionPlan.block(100, 2, 2)  # identity: nothing moves
    assert predict_rma_redistribution(empty, 8.0, ETHERNET_10G) == 0.0


def test_baseline_vs_merge_prediction_matches_paper_ordering():
    """The closed form alone already predicts Figure 2's ordering."""
    plan = RedistributionPlan.block(500_000, 8, 4)
    spawn = SpawnModel()
    merge = predict_reconfiguration(plan, 100.0, ETHERNET_10G, spawn, 2,
                                    method="p2p", merge=True)
    baseline = predict_reconfiguration(plan, 100.0, ETHERNET_10G, spawn, 2,
                                       method="p2p", merge=False)
    assert merge.total < baseline.total


def test_baseline_prices_index_equal_chunks_as_wire_traffic():
    """Source i and target i are one process only under Merge; Baseline's
    groups are disjoint, so its index-equal chunks cross the wire."""
    spawn = SpawnModel()

    def redist(ns, nt, method, merge):
        plan = RedistributionPlan.block(500_000, ns, nt)
        return predict_reconfiguration(
            plan, 100.0, ETHERNET_10G, spawn, 2, method=method, merge=merge
        ).redistribution

    # 6->6: every chunk is index-equal; Merge keeps them all local.
    assert redist(6, 6, "p2p", merge=True) == 0.0
    assert redist(6, 6, "p2p", merge=False) > 0
    # 8->4: source 0's chunk to target 0 now costs the pairwise schedule a
    # real phase 0.  The bottleneck models' busiest endpoint (target 2, fed
    # by sources 4 and 5) is the same under both spawn methods.
    assert redist(8, 4, "col", merge=False) > redist(8, 4, "col", merge=True)
    assert redist(8, 4, "p2p", merge=False) == redist(8, 4, "p2p", merge=True)
    # Merge numbers are the ones the models always gave.
    assert redist(8, 4, "p2p", merge=True) == pytest.approx(14.3667392e-3)
    assert redist(8, 4, "col", merge=True) == pytest.approx(29.3333333e-3)
