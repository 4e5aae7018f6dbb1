"""Tracer lifecycle: detach restores hooks, exports match the pinned
Perfetto schema snippet, and filtering composes with the obs replay."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.obs import MetricsRegistry
from repro.simulate import Simulator
from repro.smpi import MpiWorld
from repro.trace import Tracer

SCHEMA = json.loads(
    (Path(__file__).parent / "perfetto_schema.json").read_text()
)


def build_stack():
    sim = Simulator()
    machine = Machine(sim, 2, 1, ETHERNET_10G)
    world = MpiWorld(machine)
    return sim, machine, world


def run_pingpong(sim, world):
    def main(mpi):
        if mpi.rank == 0:
            yield from mpi.compute(0.005)
            yield from mpi.send(np.zeros(50_000), dest=1, label="payload")
            return None
        yield from mpi.recv(source=0)
        return None

    world.launch(main, slots=[0, 1])
    sim.run()


def test_detach_restores_machine_hooks():
    sim, machine, world = build_stack()
    emitters = [machine.network, *machine.nodes]
    tracer = Tracer().attach(machine)
    assert all(e.observers == (tracer,) for e in emitters)
    assert world.observers == ()  # a tracer needs no world hooks
    tracer.detach()
    assert all(e.observers == () for e in emitters)
    # events recorded before detach are kept; a detached tracer records
    # nothing further
    run_pingpong(sim, world)
    assert tracer.events == []


def test_detach_requires_attach():
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="not attached"):
        tracer.detach()


def test_attach_detach_reattach_cycle():
    sim, machine, world = build_stack()
    tracer = Tracer().attach(machine)
    tracer.detach()
    tracer.attach(machine)  # legal again after detach
    run_pingpong(sim, world)
    tracer.detach()
    assert tracer.events


def test_double_attach_rejected():
    _, machine, _ = build_stack()
    tracer = Tracer().attach(machine)
    with pytest.raises(RuntimeError, match="already attached"):
        tracer.attach(machine)


def test_chrome_trace_matches_pinned_schema():
    sim, machine, world = build_stack()
    tracer = Tracer().attach(machine)
    run_pingpong(sim, world)
    tracer.detach()
    tracer.mark("app", "reconfig", 0.0, 0.001)
    doc = json.loads(tracer.to_chrome_trace())
    for key in SCHEMA["top_level"]:
        assert key in doc
    events = doc["traceEvents"]
    assert events
    for e in events:
        assert e["ph"] in SCHEMA["event_phases"]
        if e["ph"] == "X":
            for field in SCHEMA["complete_event_required"]:
                assert field in e, f"complete event missing {field!r}"
            assert e["cat"] in SCHEMA["categories"]
            assert e["ts"] >= 0 and e["dur"] >= 0
        else:
            for field in SCHEMA["metadata_event_required"]:
                assert field in e, f"metadata event missing {field!r}"
            assert e["name"] in SCHEMA["metadata_names"]
    # every lane referenced by a complete event has a process_name record
    named = {e["pid"] for e in events if e["ph"] == "M"}
    used = {e["pid"] for e in events if e["ph"] == "X"}
    assert used <= named


def test_label_filter_suppresses_other_events():
    sim, machine, world = build_stack()
    tracer = Tracer(label_filter="data:").attach(machine)
    run_pingpong(sim, world)
    tracer.detach()
    assert tracer.events  # the rendezvous payload flow matched
    assert all("data:" in e.label for e in tracer.events)


def test_obs_spans_replay_into_tracer_lanes():
    tracer = Tracer()
    reg = MetricsRegistry()
    reg.timer("redist.phase_seconds", method="col", phase="values").record(
        0.0, 0.25, "redist:values"
    )
    assert reg.feed_tracer(tracer) == 1
    assert tracer.lanes() == [
        "obs:redist.phase_seconds{method=col,phase=values}"
    ]
    doc = json.loads(tracer.to_chrome_trace())
    x = next(e for e in doc["traceEvents"] if e["ph"] == "X")
    assert x["cat"] == "mark" and x["dur"] == pytest.approx(0.25e6)
