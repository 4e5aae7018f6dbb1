"""Execution tracing for simulated runs.

A :class:`Tracer` attaches to a :class:`~repro.cluster.machine.Machine` and
records every network flow and CPU task as timed intervals, plus arbitrary
user marks.  Zero overhead when not attached (the hot paths are wrapped
only on attach).  Traces export to the Chrome ``chrome://tracing`` /
Perfetto JSON format and render as ASCII timelines
(:mod:`repro.trace.render`) — the practical way to *see* an overlap
strategy doing its thing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from ..cluster.machine import Machine
from ..simulate.events import label_text

__all__ = ["TraceEvent", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One timed interval on one actor lane."""

    t0: float
    t1: float
    lane: str
    category: str  # "flow" | "cpu" | "mark"
    label: str

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records flows, CPU tasks and user marks of one machine."""

    def __init__(self, label_filter: Optional[str] = None):
        self.events: list[TraceEvent] = []
        #: substring filter applied to flow/CPU labels (None records all).
        self.label_filter = label_filter
        self._machine: Optional[Machine] = None
        self._installed = False
        self._saved: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------------- attach
    def attach(self, machine: Machine) -> "Tracer":
        """Start recording ``machine``'s flows and compute tasks."""
        if self._installed:
            raise RuntimeError("tracer already attached")
        self._machine = machine
        self._installed = True
        self._wrap_network(machine)
        for node in machine.nodes:
            self._wrap_node(node)
        return self

    def detach(self) -> "Tracer":
        """Restore every wrapped hook; recorded events are kept."""
        if not self._installed:
            raise RuntimeError("tracer not attached")
        for obj, attr, orig in reversed(self._saved):
            setattr(obj, attr, orig)
        self._saved.clear()
        self._machine = None
        self._installed = False
        return self

    def _keep(self, label: str) -> bool:
        return self.label_filter is None or self.label_filter in label

    def _wrap_network(self, machine: Machine) -> None:
        net = machine.network
        sim = machine.sim
        orig = net.start_flow
        self._saved.append((net, "start_flow", orig))
        tracer = self

        def traced_start_flow(route, size, latency=0.0, label=""):
            t0 = sim.now
            ev = orig(route, size, latency=latency, label=label)
            label = label_text(label)
            if tracer._keep(label):
                lane = route[0].name.split(".")[0] if route else "net"

                def record(_ev):
                    tracer.events.append(
                        TraceEvent(t0, sim.now, f"net:{lane}", "flow",
                                   f"{label} ({size:.3g}B)")
                    )

                ev.add_callback(record)
            return ev

        net.start_flow = traced_start_flow

    def _wrap_node(self, node) -> None:
        sim = node.sim
        orig = node.submit
        self._saved.append((node, "submit", orig))
        tracer = self

        def traced_submit(work, on_done, label=""):
            t0 = sim.now
            label = label_text(label)

            def wrapped_done():
                if tracer._keep(label):
                    tracer.events.append(
                        TraceEvent(t0, sim.now, f"cpu:{node.name}", "cpu",
                                   label or "compute")
                    )
                on_done()

            orig(work, wrapped_done, label=label)

        node.submit = traced_submit

    # ------------------------------------------------------------------ marks
    def mark(self, lane: str, label: str, t0: float, t1: Optional[float] = None) -> None:
        """Record a user annotation (reconfiguration stages, checkpoints...)."""
        self.events.append(
            TraceEvent(t0, t1 if t1 is not None else t0, lane, "mark", label)
        )

    # ---------------------------------------------------------------- queries
    def lanes(self) -> list[str]:
        return sorted({e.lane for e in self.events})

    def between(self, t0: float, t1: float) -> list[TraceEvent]:
        return [e for e in self.events if e.t1 >= t0 and e.t0 <= t1]

    def total_time(self, lane: Optional[str] = None, category: Optional[str] = None) -> float:
        return sum(
            e.duration
            for e in self.events
            if (lane is None or e.lane == lane)
            and (category is None or e.category == category)
        )

    # ----------------------------------------------------------------- export
    def to_chrome_trace(self) -> str:
        """Chrome/Perfetto trace JSON (open in ``chrome://tracing``)."""
        out = []
        pids = {lane: i for i, lane in enumerate(self.lanes())}
        for e in sorted(self.events, key=lambda e: e.t0):
            out.append({
                "name": e.label,
                "cat": e.category,
                "ph": "X",
                "ts": e.t0 * 1e6,           # Chrome wants microseconds
                "dur": max(0.0, e.duration) * 1e6,
                "pid": pids[e.lane],
                "tid": 0,
                "args": {},
            })
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": lane},
            }
            for lane, pid in pids.items()
        ]
        return json.dumps({"traceEvents": meta + out})
