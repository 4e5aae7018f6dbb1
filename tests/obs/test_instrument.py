"""MetricsProbe: attach/detach hygiene and recorded layer metrics."""

import numpy as np
import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.obs import MetricsProbe, MetricsRegistry
from repro.simulate import Simulator
from repro.smpi import MpiWorld


def build_stack():
    sim = Simulator()
    machine = Machine(sim, 2, 1, ETHERNET_10G)
    world = MpiWorld(machine)
    return sim, machine, world


def run_pingpong(sim, world, nbytes=50_000):
    def main(mpi):
        if mpi.rank == 0:
            yield from mpi.compute(0.01)
            yield from mpi.send(np.zeros(nbytes // 8), dest=1, label="payload")
            return None
        yield from mpi.recv(source=0)
        return None

    world.launch(main, slots=[0, 1])
    sim.run()


def test_probe_records_cluster_and_smpi_metrics():
    sim, machine, world = build_stack()
    probe = MetricsProbe().attach(machine, world)
    run_pingpong(sim, world)
    reg = probe.detach().finalize()
    doc = reg.to_dict()
    # per-link traffic and flow-size histogram
    assert any(k.startswith("cluster.link.bytes{") for k in doc["counters"])
    assert doc["histograms"]["cluster.flow_nbytes"]["n"] > 0
    # per-node oversubscription gauge exists for every node
    over = [
        k for k in doc["gauges"]
        if k.startswith("cluster.node.oversubscription{")
    ]
    assert len(over) == len(machine.nodes)
    # cooperative smpi emission: per-communicator, per-protocol bytes
    smpi = [k for k in doc["counters"] if k.startswith("smpi.bytes{")]
    assert smpi and all("comm=" in k and "protocol=" in k for k in smpi)


def emitters(machine, world):
    return [machine.network, *machine.nodes, world]


def test_attach_sets_and_detach_clears_world_metrics():
    _, machine, world = build_stack()
    assert world.observers == ()
    probe = MetricsProbe().attach(machine, world)
    assert world.observers == (probe,)
    probe.detach()
    assert world.observers == ()


def test_detach_restores_wrapped_hooks():
    _, machine, world = build_stack()
    cls_methods = [type(machine.network).start_flow, type(machine.nodes[0]).submit]
    probe = MetricsProbe().attach(machine, world)
    assert all(e.observers == (probe,) for e in emitters(machine, world))
    # nothing is patched: the hot paths stay the class's own methods
    assert "start_flow" not in vars(machine.network)
    assert all("submit" not in vars(n) for n in machine.nodes)
    probe.detach()
    assert all(e.observers == () for e in emitters(machine, world))
    assert [type(machine.network).start_flow, type(machine.nodes[0]).submit] == cls_methods


def test_non_lifo_detach_leaves_no_observer():
    from repro.trace import Tracer

    sim, machine, world = build_stack()
    probe = MetricsProbe().attach(machine, world)
    tracer = Tracer().attach(machine)
    probe.detach()
    assert machine.network.observers == (tracer,)
    tracer.detach()
    assert all(e.observers == () for e in emitters(machine, world))
    before = probe.registry.to_dict()["counters"]
    machine.transfer(machine.nodes[0], machine.nodes[1], 1000)
    sim.run()
    assert probe.registry.to_dict()["counters"] == before
    assert tracer.events == []


def test_double_attach_rejected():
    _, machine, world = build_stack()
    probe = MetricsProbe().attach(machine, world)
    with pytest.raises(RuntimeError):
        probe.attach(machine, world)
    probe.detach()
    with pytest.raises(RuntimeError):
        probe.detach()


def test_second_probe_on_same_world_rejected():
    _, machine, world = build_stack()
    MetricsProbe().attach(machine, world)
    with pytest.raises(RuntimeError):
        MetricsProbe().attach(machine, world)


def test_finalize_snapshots_always_on_counters():
    sim, machine, world = build_stack()
    probe = MetricsProbe().attach(machine, world)
    run_pingpong(sim, world)
    probe.detach()
    reg = probe.finalize()
    doc = reg.to_dict()
    assert doc["counters"]["cluster.network.bytes_carried"] > 0
    allocations = (
        doc["counters"]["cluster.allocator.reallocations"]
        + doc["counters"]["cluster.allocator.fast_path_hits"]
    )
    assert allocations >= 1  # at least one flow was rate-allocated
    busy = [
        k for k in doc["gauges"]
        if k.startswith("cluster.node.busy_coreseconds{")
    ]
    peaks = [
        k for k in doc["gauges"]
        if k.startswith("cluster.node.peak_oversubscription{")
    ]
    assert len(busy) == len(machine.nodes)
    assert len(peaks) == len(machine.nodes)
    assert any(doc["gauges"][k]["last"] > 0 for k in peaks)
    # per-label traffic mirrored from the world's always-on accounting
    labels = [k for k in doc["counters"] if k.startswith("smpi.bytes_by_label")]
    assert labels


def test_wait_blocked_timer_recorded():
    sim, machine, world = build_stack()
    probe = MetricsProbe().attach(machine, world)
    run_pingpong(sim, world)
    reg = probe.detach().registry
    waits = [
        k for k in reg.to_dict()["timers"] if k.startswith("smpi.wait_blocked")
    ]
    assert waits  # the receiver blocked waiting for rank 0's payload


def test_detached_run_emits_nothing():
    sim, machine, world = build_stack()
    probe = MetricsProbe().attach(machine, world).detach()
    run_pingpong(sim, world)
    assert all(e.observers == () for e in emitters(machine, world))
    assert len(probe.registry) == 2 * len(machine.nodes)  # bound at attach
    assert all(c.value == 0 for c in probe.registry.counters.values())
    assert all(g.n == 0 for g in probe.registry.gauges.values())


# Observer outputs pinned byte for byte: metrics.json, the Perfetto trace and
# the sorted sanitizer findings of one run with all three observers attached.
OBSERVED_CELLS = {
    "merge-col-t-2-4": ((2, 4, "merge-col-t"), ""),
    "merge-rma-a-4-8": ((4, 8, "merge-rma-a"), ""),
    "merge-col-s-2-8-crash": (
        (2, 8, "merge-col-s"), "crash@redist+0.002:node=1"
    ),
    "merge-p2p-a-4-8-crash": (
        (4, 8, "merge-p2p-a"), "crash@redist+0.002:node=1"
    ),
}

OBSERVED_DIGESTS = {
    "merge-col-s-2-8-crash": {
        "metrics": "67b3c325c93dddab57ee341074f7f6795d23d1556cc1ea9ff9d3c3f6bc984c5e",
        "trace": "61aee6f8d0d6f46af4a8b7fa5ed4acb398c39a296c297c71bb1af404308702ee",
        "findings": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "merge-col-t-2-4": {
        "metrics": "2cde87b3ef3c9fbaccc4bfb65591784d7ba7eef3217e9452afd4869a6e512b42",
        "trace": "7f93947777256c7680b6078d31bbd0817090533dca93cebe943b905556ad5868",
        "findings": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "merge-p2p-a-4-8-crash": {
        "metrics": "08add8aeb2b54f60f1e8006f86b7e73da409eaa83c334a66616af6820e7a3894",
        "trace": "97e56992f2b54c5b667dae5118dfda766f11ec0cd872c68c9d82c597873a76bc",
        "findings": "fed8ab26dccf80c69cf5277e817a5b117181e96d5a5f6fffa81d874f53469729",
    },
    "merge-rma-a-4-8": {
        "metrics": "c5a2cc190a3b0a986082c28c591f1e52d596b8d415033b5684f7b98ffb4ddf3a",
        "trace": "6874e945aa3d452fd0948468ef053d705be30e63d1b6bc42b78924d52825af3a",
        "findings": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
}


def _sha(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def _renumber_messages(trace: str) -> str:
    """Message ids in flow labels come from a process-wide counter: number
    them by first appearance so the digest does not depend on what ran
    earlier in the same interpreter."""
    import re

    ids: dict[str, int] = {}
    return re.sub(
        r"\b(eager|rts|cts|data|rxcopy):(\d+)",
        lambda m: f"{m[1]}:{ids.setdefault(m[2], len(ids))}",
        trace,
    )


@pytest.mark.parametrize("cell", sorted(OBSERVED_CELLS))
def test_observer_outputs_pinned(cell):
    import json

    from repro.harness.runner import RunSpec, run_one
    from repro.obs import build_metrics_doc
    from repro.sanitize import Sanitizer
    from repro.sanitize.findings import Finding
    from repro.trace import Tracer

    (ns, nt, config), faults = OBSERVED_CELLS[cell]
    spec = RunSpec(ns, nt, config, "ethernet", "tiny", faults=faults)
    reg, tracer, san = MetricsRegistry(), Tracer(), Sanitizer()
    run_one(spec, metrics=reg, tracer=tracer, sanitizer=san)
    metrics = json.dumps(build_metrics_doc(reg), indent=2, sort_keys=True)
    findings = json.dumps(
        [f.to_dict() for f in sorted(san.findings, key=Finding.sort_key)],
        sort_keys=True,
    )
    got = {
        "metrics": _sha(metrics),
        "trace": _sha(_renumber_messages(tracer.to_chrome_trace())),
        "findings": _sha(findings),
    }
    assert got == OBSERVED_DIGESTS[cell]
