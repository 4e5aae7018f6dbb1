"""The processor-sharing ``Node`` as it was before virtual time: the oracle.

Every ``submit``/``add_poller``/``remove_poller`` subtracts the elapsed
work from every task, cancels the node's completion and schedules a new one
at the minimum remaining work.  Kept verbatim (``PollerToken`` is imported
from production) so ``test_cpu_oracle.py`` can hold the virtual-time
``repro.cluster.Node`` to it on random demand schedules.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.cluster import PollerToken
from repro.simulate.core import Simulator

__all__ = ["Node"]

_EPS = 1e-9
#: remaining-runtime epsilon guarding against the float livelock where
#: ``work_left / rate`` is below the ULP of the current simulation time
#: (see the twin constant in cluster.network).
_EPS_SECONDS = 1e-12


class _CpuTask:
    __slots__ = ("work_left", "on_done", "label")

    def __init__(self, work: float, on_done: Callable[[], None], label: str):
        self.work_left = work
        self.on_done = on_done
        self.label = label


class Node:
    """One cluster node: ``cores`` cores shared by compute tasks and pollers.

    The node keeps its own virtual-time accounting: whenever the demand set
    changes it advances every task's remaining work by the elapsed time at
    the previous rate, then reschedules the earliest completion.
    """

    def __init__(self, sim: Simulator, node_id: int, cores: int, name: str = ""):
        if cores < 1:
            raise ValueError(f"node needs >= 1 core, got {cores}")
        self.sim = sim
        self.node_id = node_id
        self.cores = cores
        self.name = name or f"node{node_id}"
        self._tasks: list[_CpuTask] = []
        self._pollers: set[int] = set()
        self._last_update = sim.now
        self._completion_item = None
        #: cumulative busy core-seconds, for utilisation accounting
        self.busy_coreseconds = 0.0
        #: highest demand ever seen (always-on: one compare per change, so
        #: oversubscription peaks survive to the end of a run for free)
        self.peak_demand = 0
        #: clock-speed factor (1.0 = nominal); the fault layer's *straggler*
        #: events lower it, slowing every demand on the node proportionally.
        self.speed = 1.0
        #: set by :meth:`fail` — a crashed node computes nothing and silently
        #: swallows new work (its processes are killed by the fault injector).
        self.failed = False

    # ---------------------------------------------------------------- load
    @property
    def demand(self) -> int:
        """Number of CPU-hungry entities (compute tasks + pollers)."""
        return len(self._tasks) + len(self._pollers)

    @property
    def rate(self) -> float:
        """Progress rate currently granted to each demand (0 < rate <= 1)."""
        n = self.demand
        if n == 0:
            return 1.0
        return min(1.0, self.cores / n)

    @property
    def oversubscribed(self) -> bool:
        return self.demand > self.cores

    # ------------------------------------------------------------ bookkeeping
    def _advance(self) -> None:
        # Hot path (runs on every demand-set change): ``rate``/``demand``
        # are inlined as locals to skip repeated property-descriptor calls.
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0:
            tasks = self._tasks
            n = len(tasks) + len(self._pollers)
            if tasks:
                r = 1.0 if n <= self.cores else self.cores / n
                work = dt * r * self.speed
                for t in tasks:
                    t.work_left -= work
            self.busy_coreseconds += dt * (self.cores if n > self.cores else n)
        self._last_update = now

    def _reschedule(self) -> None:
        if self._completion_item is not None:
            self._completion_item.cancelled = True
            self._completion_item = None
        tasks = self._tasks
        if not tasks:
            return
        n = len(tasks) + len(self._pollers)
        r = (1.0 if n <= self.cores else self.cores / n) * self.speed
        soonest = min(t.work_left for t in tasks)
        # Guard against float drift leaving a microscopic negative remainder.
        delay = soonest / r if soonest > 0.0 else 0.0
        self._completion_item = self.sim.schedule(delay, self._on_completion)

    def _on_completion(self) -> None:
        self._completion_item = None
        self._advance()
        n = len(self._tasks) + len(self._pollers)
        rate = (1.0 if n <= self.cores else self.cores / n) * self.speed
        done = {
            id(t)
            for t in self._tasks
            if t.work_left <= _EPS or t.work_left / rate <= _EPS_SECONDS
        }
        if not done:
            # Rate changed since scheduling; just reschedule.
            self._reschedule()
            return
        finished = [t for t in self._tasks if id(t) in done]
        self._tasks = [t for t in self._tasks if id(t) not in done]
        self._reschedule()
        for t in finished:
            t.on_done()

    # ------------------------------------------------------------------- API
    def submit(self, work: float, on_done: Callable[[], None], label: str = "") -> None:
        """Add ``work`` seconds of single-core compute; ``on_done`` fires when
        it finishes (taking current and future load into account)."""
        if work < 0 or not math.isfinite(work):
            raise ValueError(f"work must be finite and >= 0, got {work}")
        if self.failed:
            return  # crashed node: the work (and its completion) evaporates
        if work == 0:
            self.sim.schedule(0.0, on_done)
            return
        self._advance()
        self._tasks.append(_CpuTask(work, on_done, label))
        d = len(self._tasks) + len(self._pollers)
        if d > self.peak_demand:
            self.peak_demand = d
        self._reschedule()

    def add_poller(self, token: PollerToken) -> None:
        """Register a CPU-burning poller (e.g. a rank inside MPI_Wait*)."""
        if token.id in self._pollers:
            raise ValueError(f"poller {token!r} registered twice")
        self._advance()
        self._pollers.add(token.id)
        d = len(self._tasks) + len(self._pollers)
        if d > self.peak_demand:
            self.peak_demand = d
        self._reschedule()

    def remove_poller(self, token: PollerToken) -> None:
        if token.id not in self._pollers:
            raise ValueError(f"poller {token!r} not registered")
        self._advance()
        self._pollers.discard(token.id)
        self._reschedule()

    # ---------------------------------------------------------------- faults
    def fail(self) -> None:
        """Crash the node: all running compute evaporates and future
        :meth:`submit` calls are silently swallowed.

        Pollers are deliberately *kept* — they belong to processes the fault
        injector kills right after, and their teardown (``remove_poller`` in
        ``finally`` blocks) must still balance.  Idempotent.
        """
        if self.failed:
            return
        self._advance()
        self.failed = True
        self._tasks.clear()
        if self._completion_item is not None:
            self._completion_item.cancelled = True
            self._completion_item = None

    def set_speed(self, factor: float) -> None:
        """Scale the node's clock (straggler injection: ``factor < 1``).

        Accounting for in-progress work is settled at the old speed first, so
        the change is exact mid-task.
        """
        if factor <= 0 or not math.isfinite(factor):
            raise ValueError(f"speed factor must be finite and > 0, got {factor}")
        self._advance()
        self.speed = factor
        self._reschedule()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name} cores={self.cores} demand={self.demand}>"
