"""Execution tracing for simulated runs.

A :class:`Tracer` subscribes to a :class:`~repro.cluster.machine.Machine`'s
network and nodes (see :class:`repro.obs.instrument.Observer`) and records
every network flow and CPU task as timed intervals, plus arbitrary user
marks.  A machine with no tracer attached pays one empty-tuple check per
flow and task.  Traces export to the Chrome ``chrome://tracing`` / Perfetto
JSON format and render as ASCII timelines (:mod:`repro.trace.render`) — the
practical way to *see* an overlap strategy doing its thing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from ..obs.instrument import Observer
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


class Tracer(Observer):
    """Records flows, CPU tasks and user marks of one machine."""

    def __init__(self, label_filter: Optional[str] = None):
        self.events: list[TraceEvent] = []
        #: substring filter applied to flow/CPU labels (None records all).
        self.label_filter = label_filter

    def _keep(self, label: str) -> bool:
        return self.label_filter is None or self.label_filter in label

    def on_flow(self, route, size, label, done) -> None:
        label = label_text(label)
        if not self._keep(label):
            return
        sim = done.sim
        t0 = sim.now
        lane = f"net:{route[0].name.split('.')[0]}" if route else "net:net"
        text = f"{label} ({size:.3g}B)"
        done.add_callback(
            lambda _ev: self.events.append(
                TraceEvent(t0, sim.now, lane, "flow", text)
            )
        )

    def on_submit(self, node, on_done, label):
        label = label_text(label)
        if not self._keep(label):
            return on_done
        sim = node.sim
        t0 = sim.now
        lane = f"cpu:{node.name}"

        def traced_done():
            self.events.append(
                TraceEvent(t0, sim.now, lane, "cpu", label or "compute")
            )
            on_done()

        return traced_done

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
