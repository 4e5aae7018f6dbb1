"""Replaying a :class:`FaultSchedule` against one simulation.

The injector is attached once per run (``FaultInjector(...).attach()``); it
schedules every absolute-time event on the simulator, arms
redistribution-relative events when the first session starts moving data
(cooperative hook: ``world.fault_injector.notify_redist_started``), and
registers injected spawn failures with the MPI world.

Crash semantics (ordering matters — survivors must observe a consistent
world):

1. the node fails (compute evaporates, future submissions are swallowed);
2. every simulated process placed on the node is killed *synchronously*
   (``Simulator.kill_now``) in spawn order — deterministic;
3. the dead ranks are marked in the MPI world, completing outstanding
   traffic with :class:`~repro.smpi.errors.CommFailedError`.

Every injection is reported to the world's observers (``on_fault``); an
attached metrics probe counts it as ``faults_injected{kind=...}``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .schedule import FaultEvent, FaultSchedule

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.machine import Machine
    from ..smpi.world import MpiWorld

__all__ = ["FaultInjector"]


class FaultInjector:
    """Deterministic executor of one fault schedule."""

    def __init__(
        self,
        schedule: FaultSchedule,
        machine: "Machine",
        world: "MpiWorld",
    ):
        if isinstance(schedule, str):
            schedule = FaultSchedule.parse(schedule)
        self.schedule = schedule
        self.machine = machine
        self.world = world
        self.sim = machine.sim
        #: injection log: (sim time, canonical event string), in fire order.
        self.injected: list[tuple[float, str]] = []
        self._armed = False
        self._attached = False
        #: redistribution-relative events waiting for the anchor.
        self._pending_relative: list[FaultEvent] = []

    # ------------------------------------------------------------------ wiring
    def attach(self) -> "FaultInjector":
        """Register with the world and schedule every event.  Idempotent."""
        if self._attached:
            return self
        self._attached = True
        self.world.fault_injector = self
        for ev in self.schedule:
            if ev.kind == "spawnfail":
                # Attempt-indexed: registered up front, consumed at spawn.
                self.world.fail_spawns.add(int(ev.params["attempt"]))
                self.injected.append((self.sim.now, ev.canonical()))
                self._count(ev)
            elif ev.anchor == "redist":
                self._pending_relative.append(ev)
            else:
                self.sim.schedule_at(ev.time, lambda e=ev: self._fire(e))
        return self

    def notify_redist_started(self, now: float) -> None:
        """Anchor hook: the first redistribution session started moving
        data.  Arms every ``redist+dt`` event; later sessions are ignored
        (the anchor is one-shot, keeping schedules unambiguous)."""
        if self._armed:
            return
        self._armed = True
        for ev in self._pending_relative:
            self.sim.schedule(ev.delay, lambda e=ev: self._fire(e))
        self._pending_relative.clear()

    # ------------------------------------------------------------------ firing
    @property
    def faults_fired(self) -> int:
        return len(self.injected)

    def _count(self, ev: FaultEvent) -> None:
        for o in self.world.observers:
            o.on_fault(ev.kind)

    def _fire(self, ev: FaultEvent) -> None:
        self.injected.append((self.sim.now, ev.canonical()))
        self._count(ev)
        if ev.kind == "crash":
            self._crash_node(int(ev.params["node"]))
        elif ev.kind == "degrade":
            self.machine.degrade_node_links(
                int(ev.params["node"]), ev.params["factor"]
            )
        elif ev.kind == "straggler":
            self.machine.nodes[int(ev.params["node"])].set_speed(
                ev.params["factor"]
            )
        else:  # pragma: no cover - parse() rejects unknown kinds
            raise RuntimeError(f"unreachable fault kind {ev.kind!r}")

    def _crash_node(self, node_id: int) -> None:
        node = self.machine.nodes[node_id]
        node.fail()
        dead_gids: list[int] = []
        # Spawn order == list order: deterministic kill sequence.
        for proc in list(self.sim._processes):
            if proc.alive and proc.context.get("node") is node:
                gid = proc.context.get("rank_gid")
                if gid is not None:
                    dead_gids.append(gid)
                self.sim.kill_now(proc, reason=f"node {node.name} crashed")
        # The per-rank death watch already marked main ranks; this also
        # covers gids whose only process on the node was an aux thread.
        self.world.mark_ranks_dead(
            dead_gids, reason=f"node {node.name} crashed"
        )
