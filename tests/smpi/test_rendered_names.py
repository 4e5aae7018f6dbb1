"""Names stored raw on the hot path still read as text where people read them.

Requests, flows and messages keep ``("recv", "#", 7)``-style raw labels and
a blocked process keeps the command it waits on; both are formatted only
when read.  The deadlock report, the sanitizer's wait-for graph and the
tracer are those readers.
"""

import re

import pytest

from repro.cluster import ETHERNET_10G, Machine
from repro.sanitize import Sanitizer
from repro.simulate import DeadlockError, SimTimeLimitExceeded, Simulator
from repro.simulate.events import label_text
from repro.smpi import MpiWorld
from repro.trace import Tracer


def test_label_text_renders_raw_labels():
    assert label_text("plain") == "plain"
    assert label_text(("recv", "#", 7)) == "recv#7"
    assert label_text(("flow:", ("eager:", 3))) == "flow:eager:3"
    assert label_text(("flow:", 2048.0)) == "flow:2048.0"


def _blocked_world():
    """Rank 0 waits on one receive, rank 1 on two: nobody ever sends."""
    sim = Simulator()
    machine = Machine(sim, 2, 1, ETHERNET_10G, seed=0)
    world = MpiWorld(machine)

    def main(mpi):
        if mpi.rank == 0:
            yield from mpi.recv(source=1, tag=5)
        else:
            a = yield from mpi.irecv(source=0, tag=6)
            b = yield from mpi.irecv(source=0, tag=7)
            yield from mpi.waitall([a, b])

    return sim, world, main


def test_deadlock_report_and_wait_for_graph_read_rendered_names():
    sim, world, main = _blocked_world()
    san = Sanitizer().attach(world)
    world.launch(main, slots=range(2))
    try:
        with pytest.raises(DeadlockError) as exc_info:
            sim.run()
    finally:
        san.detach()
    err = exc_info.value
    assert any(re.search(r"waiting on event:recv#\d+\)$", b) for b in err.blocked)
    assert any(b.endswith("(waiting on all-of[2])") for b in err.blocked)
    assert any(re.search(r"blocked in WaitEvent\(recv#\d+\) on recv\(src=1, tag=5", d)
               for d in err.details)
    assert any("blocked in AllOf on recv(src=0, tag=6" in d for d in err.details)


def test_time_limit_report_reads_compute_at_node():
    sim = Simulator()
    machine = Machine(sim, 2, 1, ETHERNET_10G, seed=0)
    world = MpiWorld(machine)

    def main(mpi):
        yield from mpi.compute(10.0)

    world.launch(main, slots=[1])
    with pytest.raises(SimTimeLimitExceeded) as exc_info:
        sim.run(until=1.0, strict_until=True)
    assert [b.split(" ", 1)[1] for b in exc_info.value.blocked] == [
        f"(waiting on compute@{machine.nodes[1].name})"
    ]


def test_tracer_filters_on_rendered_flow_and_cpu_labels():
    sim = Simulator()
    machine = Machine(sim, 2, 1, ETHERNET_10G, seed=0)
    tracer = Tracer(label_filter="eager:").attach(machine)
    world = MpiWorld(machine)

    def main(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1.0, dest=1)
        else:
            yield from mpi.recv(source=0)

    world.launch(main, slots=range(2))
    sim.run()
    assert tracer.events
    assert all(re.match(r"eager:\d+ ", e.label) for e in tracer.events)
