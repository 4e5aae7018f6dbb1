"""Flow-level network tests: serialisation time, sharing, max-min fairness."""

import pytest

from repro.cluster import Network
from repro.simulate import Simulator, Timeout, WaitEvent


def make_net(caps):
    sim = Simulator()
    net = Network(sim)
    links = [net.add_link(f"l{i}", c) for i, c in enumerate(caps)]
    return sim, net, links


def run_flow(sim, net, route, size, latency=0.0):
    done = {}

    def proc():
        yield WaitEvent(net.start_flow(route, size, latency=latency))
        done["t"] = sim.now

    sim.spawn(proc())
    sim.run()
    return done["t"]


def test_single_flow_serialisation_time():
    sim, net, links = make_net([100.0])
    t = run_flow(sim, net, [links[0]], 250.0)
    assert t == pytest.approx(2.5)


def test_latency_added_before_transfer():
    sim, net, links = make_net([100.0])
    t = run_flow(sim, net, [links[0]], 100.0, latency=0.5)
    assert t == pytest.approx(1.5)


def test_zero_byte_flow_costs_latency_only():
    sim, net, links = make_net([100.0])
    t = run_flow(sim, net, [links[0]], 0.0, latency=0.25)
    assert t == pytest.approx(0.25)


def test_two_flows_share_one_link():
    sim, net, links = make_net([100.0])
    times = {}

    def proc(name, size):
        yield WaitEvent(net.start_flow([links[0]], size, label=name))
        times[name] = sim.now

    sim.spawn(proc("a", 100.0))
    sim.spawn(proc("b", 100.0))
    sim.run()
    # Both at 50 B/s -> both finish at t=2.
    assert times["a"] == pytest.approx(2.0)
    assert times["b"] == pytest.approx(2.0)


def test_rate_recovers_after_flow_finishes():
    sim, net, links = make_net([100.0])
    times = {}

    def proc(name, size):
        yield WaitEvent(net.start_flow([links[0]], size, label=name))
        times[name] = sim.now

    sim.spawn(proc("short", 100.0))
    sim.spawn(proc("long", 200.0))
    sim.run()
    # Share 50/50 until short done at t=2 (long has 100 left),
    # long then at 100 B/s -> t=3.
    assert times["short"] == pytest.approx(2.0)
    assert times["long"] == pytest.approx(3.0)


def test_late_flow_slows_running_flow():
    sim, net, links = make_net([100.0])
    times = {}

    def early():
        yield WaitEvent(net.start_flow([links[0]], 200.0, label="early"))
        times["early"] = sim.now

    def late():
        yield Timeout(1.0)
        yield WaitEvent(net.start_flow([links[0]], 50.0, label="late"))
        times["late"] = sim.now

    sim.spawn(early())
    sim.spawn(late())
    sim.run()
    # early: 1s at 100 (100 left), then shares at 50 until late's 50 bytes
    # done at t=2; early then has 50 left at 100 -> t=2.5.
    assert times["late"] == pytest.approx(2.0)
    assert times["early"] == pytest.approx(2.5)


def test_max_min_with_distinct_bottlenecks():
    # Flow A uses links 0+1, flow B uses link 1 only. cap0=30, cap1=100.
    # Progressive filling: link0 offers 30 to A; link1 offers 50 each.
    # Bottleneck is link0 -> A=30; B then gets the rest of link1 = 70.
    sim, net, links = make_net([30.0, 100.0])
    times = {}

    def proc(name, route, size):
        yield WaitEvent(net.start_flow(route, size, label=name))
        times[name] = sim.now

    sim.spawn(proc("a", [links[0], links[1]], 30.0))
    sim.spawn(proc("b", [links[1]], 70.0))
    sim.run()
    assert times["a"] == pytest.approx(1.0)
    assert times["b"] == pytest.approx(1.0)


def test_flow_on_foreign_link_rejected():
    sim1, net1, links1 = make_net([10.0])
    sim2 = Simulator()
    net2 = Network(sim2)
    with pytest.raises(ValueError):
        net2.start_flow([links1[0]], 10.0)


def test_invalid_sizes_rejected():
    sim, net, links = make_net([10.0])
    with pytest.raises(ValueError):
        net.start_flow([links[0]], -1.0)
    with pytest.raises(ValueError):
        net.start_flow([links[0]], 1.0, latency=-0.1)


def test_link_capacity_must_be_positive():
    sim = Simulator()
    net = Network(sim)
    with pytest.raises(ValueError):
        net.add_link("bad", 0.0)


def test_bytes_carried_accounting():
    sim, net, links = make_net([100.0])
    run_flow(sim, net, [links[0]], 123.0)
    assert net.bytes_carried == pytest.approx(123.0)


def test_many_flows_through_shared_nic_serialise_fairly():
    sim, net, links = make_net([100.0])
    times = []

    def proc(size):
        yield WaitEvent(net.start_flow([links[0]], size))
        times.append(sim.now)

    for _ in range(4):
        sim.spawn(proc(100.0))
    sim.run()
    # Four equal flows, 25 B/s each -> all finish at t=4.
    assert all(t == pytest.approx(4.0) for t in times)


def test_unlabelled_flow_is_named_after_its_own_id():
    sim, net, links = make_net([100.0])
    net.start_flow([links[0]], 10.0)
    net.start_flow([links[0]], 10.0, label="named")
    first, second = sorted(net.active_flows, key=lambda f: f.flow_id)
    assert first.label == f"flow{first.flow_id}"
    assert second.label == "named"
