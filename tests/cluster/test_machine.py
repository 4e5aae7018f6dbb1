"""Machine-level tests: placement rule, transfers, fabric presets."""

import pytest

from repro.cluster import (
    ETHERNET_10G,
    INFINIBAND_EDR,
    MEMORY_CHANNEL,
    FabricSpec,
    Machine,
    fabric_by_name,
)
from repro.simulate import Simulator, WaitEvent


def make_machine(n_nodes=2, cores=2, fabric=ETHERNET_10G):
    sim = Simulator()
    return sim, Machine(sim, n_nodes, cores, fabric)


# ----------------------------------------------------------------- placement
def test_block_placement_matches_paper_rule():
    sim, m = make_machine(n_nodes=8, cores=20)
    assert m.node_for_slot(0).node_id == 0
    assert m.node_for_slot(19).node_id == 0
    assert m.node_for_slot(20).node_id == 1
    assert m.node_for_slot(159).node_id == 7


def test_slot_wraps_beyond_machine():
    sim, m = make_machine(n_nodes=2, cores=2)
    assert m.node_for_slot(4).node_id == 0  # wrapped


def test_negative_slot_rejected():
    sim, m = make_machine()
    with pytest.raises(ValueError):
        m.node_for_slot(-1)


def test_total_cores():
    sim, m = make_machine(n_nodes=3, cores=4)
    assert m.total_cores == 12


# ------------------------------------------------------------------ transfers
def transfer_time(m, sim, src, dst, nbytes):
    out = {}

    def proc():
        yield WaitEvent(m.transfer(src, dst, nbytes))
        out["t"] = sim.now

    sim.spawn(proc())
    sim.run()
    return out["t"]


def test_internode_transfer_uses_fabric():
    sim, m = make_machine(fabric=ETHERNET_10G)
    t = transfer_time(m, sim, m.nodes[0], m.nodes[1], 1.25e9)
    assert t == pytest.approx(ETHERNET_10G.latency + 1.0)


def test_intranode_transfer_uses_memory_channel():
    sim, m = make_machine()
    nbytes = 1.2e9
    t = transfer_time(m, sim, m.nodes[0], m.nodes[0], nbytes)
    expected = MEMORY_CHANNEL.latency + nbytes / MEMORY_CHANNEL.bandwidth
    assert t == pytest.approx(expected)


def test_infiniband_faster_than_ethernet():
    size = 100e6
    sim_e, m_e = make_machine(fabric=ETHERNET_10G)
    sim_i, m_i = make_machine(fabric=INFINIBAND_EDR)
    t_e = transfer_time(m_e, sim_e, m_e.nodes[0], m_e.nodes[1], size)
    t_i = transfer_time(m_i, sim_i, m_i.nodes[0], m_i.nodes[1], size)
    assert t_i < t_e / 5  # 10x bandwidth gap, modulo latency


def test_concurrent_transfers_share_sender_nic():
    sim, m = make_machine(n_nodes=3, cores=1, fabric=ETHERNET_10G)
    times = []

    def proc(dst):
        yield WaitEvent(m.transfer(m.nodes[0], dst, 1.25e9))
        times.append(sim.now)

    sim.spawn(proc(m.nodes[1]))
    sim.spawn(proc(m.nodes[2]))
    sim.run()
    # Both flows bottleneck on node0's up-NIC -> ~2s each instead of 1s.
    assert all(t == pytest.approx(2.0, rel=1e-3) for t in times)


# -------------------------------------------------------------------- fabrics
def test_fabric_lookup():
    assert fabric_by_name("ethernet") is ETHERNET_10G
    assert fabric_by_name("Infiniband") is INFINIBAND_EDR
    with pytest.raises(KeyError):
        fabric_by_name("carrier-pigeon")


def test_fabric_validation():
    with pytest.raises(ValueError):
        FabricSpec("bad", bandwidth=0, latency=0, cpu_overhead=0, eager_threshold=0)
    with pytest.raises(ValueError):
        FabricSpec("bad", bandwidth=1, latency=-1, cpu_overhead=0, eager_threshold=0)


def test_machine_shape_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Machine(sim, 0, 4, ETHERNET_10G)
    with pytest.raises(ValueError):
        Machine(sim, 2, 0, ETHERNET_10G)


def test_oversubscribed_switch_caps_aggregate_bandwidth():
    """4 concurrent node-pair transfers through a 4:1 switch share its
    capacity; with a non-blocking switch they all run at full NIC speed."""
    from repro.simulate import WaitEvent

    def run(factor):
        sim = Simulator()
        m = Machine(sim, 8, 1, ETHERNET_10G, switch_oversubscription=factor)
        times = []

        def proc(src, dst):
            yield WaitEvent(m.transfer(m.nodes[src], m.nodes[dst], 1.25e9))
            times.append(sim.now)

        for i in range(4):
            sim.spawn(proc(i, i + 4))
        sim.run()
        return max(times)

    nonblocking = run(1.0)
    blocked = run(4.0)
    assert nonblocking == pytest.approx(1.0, rel=0.01)
    # 8 NICs / 4 oversubscription = 2 NIC-equivalents of switch capacity
    # shared by 4 flows -> each at half speed.
    assert blocked == pytest.approx(2.0, rel=0.01)


def test_switch_factor_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Machine(sim, 2, 1, ETHERNET_10G, switch_oversubscription=0.5)
