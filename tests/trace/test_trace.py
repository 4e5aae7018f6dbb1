"""Tracer: recording, filtering, export, and rendering."""

import json

import numpy as np
import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.harness import RunSpec, run_one
from repro.simulate import Simulator
from repro.smpi import MpiWorld
from repro.trace import TraceEvent, Tracer, ascii_timeline


def traced_run(label_filter=None):
    sim = Simulator()
    machine = Machine(sim, 2, 1, ETHERNET_10G)
    tracer = Tracer(label_filter=label_filter).attach(machine)
    world = MpiWorld(machine)

    def main(mpi):
        if mpi.rank == 0:
            yield from mpi.compute(0.01)
            yield from mpi.send(np.zeros(50_000), dest=1, label="payload")
            return None
        yield from mpi.recv(source=0)
        return None

    world.launch(main, slots=[0, 1])
    sim.run()
    return tracer, sim


def test_tracer_records_flows_and_cpu():
    tracer, sim = traced_run()
    cats = {e.category for e in tracer.events}
    assert "flow" in cats and "cpu" in cats
    lanes = tracer.lanes()
    assert any(lane.startswith("net:") for lane in lanes)
    assert any(lane.startswith("cpu:") for lane in lanes)
    # Every event fits inside the run.
    for e in tracer.events:
        assert 0 <= e.t0 <= e.t1 <= sim.now + 1e-9


def test_tracer_label_filter():
    tracer, _ = traced_run(label_filter="data:")
    assert tracer.events  # the rendezvous payload flow matched
    assert all("data:" in e.label for e in tracer.events)


def test_tracer_marks_and_queries():
    tracer = Tracer()
    tracer.mark("app", "checkpoint", 1.0)
    tracer.mark("app", "reconfig", 1.0, 2.5)
    assert tracer.between(0.5, 1.2)
    assert not tracer.between(5.0, 6.0)


def test_double_attach_rejected():
    sim = Simulator()
    machine = Machine(sim, 1, 1, ETHERNET_10G)
    tracer = Tracer().attach(machine)
    with pytest.raises(RuntimeError):
        tracer.attach(machine)


def test_chrome_trace_export():
    tracer, _ = traced_run()
    doc = json.loads(tracer.to_chrome_trace())
    events = doc["traceEvents"]
    assert any(e.get("ph") == "X" for e in events)
    assert any(e.get("ph") == "M" for e in events)  # lane names
    x = next(e for e in events if e.get("ph") == "X")
    assert x["ts"] >= 0 and x["dur"] >= 0


def test_ascii_timeline_renders():
    tracer, sim = traced_run()
    text = ascii_timeline(tracer.events, width=60)
    assert "legend:" in text
    assert "#" in text or "=" in text
    assert "cpu:" in text and "net:" in text


def test_ascii_timeline_empty_and_windowed():
    assert "(no trace events)" in ascii_timeline([])
    events = [TraceEvent(0.0, 1.0, "a", "cpu", "x")]
    text = ascii_timeline(events, width=20, t0=0.0, t1=2.0)
    assert "a" in text


def test_ascii_timeline_lane_cap():
    events = [
        TraceEvent(0.0, 1.0, f"lane{i:02d}", "cpu", "x") for i in range(30)
    ]
    text = ascii_timeline(events, max_lanes=5)
    assert "more lane(s) hidden" in text


def test_same_cell_twice_in_one_process_traces_identically():
    """Message ids in flow labels are numbered per world, so a trace does
    not depend on what ran earlier in the same interpreter."""

    def trace():
        tracer = Tracer()
        run_one(RunSpec(2, 4, "merge-col-t", "ethernet", "tiny"), tracer=tracer)
        return tracer.to_chrome_trace()

    assert trace() == trace()
