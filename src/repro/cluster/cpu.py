"""Processor-sharing CPU model.

Each :class:`Node` has ``cores`` cores and a set of *demands*: compute tasks
(which make progress on a fixed amount of work) and *pollers* (entities that
burn a CPU share without progressing — the model for MPI blocking waits,
which MPICH implements as polling loops, and for busy auxiliary threads).

When the number of demands ``n`` exceeds ``cores``, every demand runs at rate
``cores / n`` (classic egalitarian processor sharing).  This is the mechanism
behind the paper's oversubscription observations: during a Baseline
reconfiguration NS source + NT target processes are alive on the same nodes,
so iteration compute time inflates by roughly ``(NS+NT)/cores_used`` — the
"20 % up to 7000 %" iteration-cost blowup of Figures 7 and 8.

The sharing is kept in *virtual time*: every demand on a node receives the
same service, so the node keeps one cumulative per-demand service counter
and each task a finish tag (service at submit + work) in a heap.  Advancing
the clock is one multiply-add, and the node holds one owner timer (see
:mod:`repro.simulate.core`) for its head tag, re-armed only when the head
tag or the per-demand rate changes.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import partial
from operator import itemgetter
from typing import Any, Callable

from ..simulate.core import Command, SimProcess, Simulator

__all__ = ["Node", "Compute", "ComputeOn", "PollerToken"]

#: a task whose finish tag is within ``max(_EPS, _EPS_SECONDS * rate)`` of
#: the node's service counter completes now.  The seconds term guards the
#: float livelock where the remaining runtime is below the ULP of the
#: current simulation time (see the twin constant in cluster.network).
_EPS = 1e-9
_EPS_SECONDS = 1e-12

_submission_order = itemgetter(1)


class PollerToken:
    """Opaque handle identifying one poller registration on a node."""

    __slots__ = ("id", "label")

    _ids = itertools.count()

    def __init__(self, label: str = ""):
        self.id = next(self._ids)
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PollerToken {self.id} {self.label}>"


class Node:
    """One cluster node: ``cores`` cores shared by compute tasks and pollers.

    ``_service`` is the work every demand has received since the node last
    ran out of tasks; a task finishes when it reaches the task's tag.
    """

    def __init__(self, sim: Simulator, node_id: int, cores: int, name: str = ""):
        if cores < 1:
            raise ValueError(f"node needs >= 1 core, got {cores}")
        self.sim = sim
        self.node_id = node_id
        self.cores = cores
        self.name = name or f"node{node_id}"
        #: heap of ``(finish tag, submission seq, on_done)``
        self._tags: list[tuple[float, int, Callable[[], None]]] = []
        self._submitted = 0
        self._pollers: set[int] = set()
        #: demand (tasks + pollers); per-demand service rate and its integral
        self._n = 0
        self._rate = 1.0
        self._service = 0.0
        self._last_update = sim.now
        #: owner-timer seq of the pending head completion (-1 = none)
        self._timer_seq = -1
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
        #: subscribed :class:`repro.obs.Observer` objects (``on_submit``,
        #: ``on_demand``); empty unless one is attached.
        self.observers = ()

    # ---------------------------------------------------------------- load
    @property
    def demand(self) -> int:
        """Number of CPU-hungry entities (compute tasks + pollers)."""
        return self._n

    @property
    def rate(self) -> float:
        """Progress rate currently granted to each demand (0 < rate <= 1)."""
        n = self._n
        if n == 0:
            return 1.0
        return min(1.0, self.cores / n)

    # ------------------------------------------------------------ bookkeeping
    def _advance(self) -> None:
        """Settle service and busy time up to now (the demand set is about
        to change)."""
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0:
            if self._tags:
                self._service += dt * self._rate
            n = self._n
            cores = self.cores
            self.busy_coreseconds += dt * (cores if n > cores else n)
            self._last_update = now

    def _retime(self) -> None:
        """Refresh the per-demand rate and arm the owner timer for the head
        tag.  Runs whenever either changed while tasks exist; without tasks
        the rate is unused and refreshed by the next submit."""
        tags = self._tags
        if tags:
            n = self._n
            cores = self.cores
            rate = self._rate = self.speed if n <= cores else cores / n * self.speed
            left = tags[0][0] - self._service
            self.sim.set_timer(self, left / rate if left > 0.0 else 0.0)
        else:
            self._timer_seq = -1
            self._service = 0.0  # nothing refers to it: keep tags small

    def _on_timer(self) -> None:
        self._timer_seq = -1
        self._advance()
        tags = self._tags
        eps = _EPS_SECONDS * self._rate
        limit = self._service + (eps if eps > _EPS else _EPS)
        done = []
        while tags and tags[0][0] <= limit:
            done.append(heapq.heappop(tags))
        self._n -= len(done)
        if len(done) > 1:  # tasks finishing together: submission order
            done.sort(key=_submission_order)
        self._retime()
        for entry in done:
            entry[2]()

    # ------------------------------------------------------------------- API
    def submit(self, work: float, on_done: Callable[[], None], label: Any = "") -> None:
        """Add ``work`` seconds of single-core compute; ``on_done`` fires when
        it finishes (taking current and future load into account).
        ``label`` names the task for observers only."""
        if work < 0 or not math.isfinite(work):
            raise ValueError(f"work must be finite and >= 0, got {work}")
        observers = self.observers
        if observers:
            for o in observers:
                on_done = o.on_submit(self, on_done, label)
        if self.failed:
            pass  # crashed node: the work (and its completion) evaporates
        elif work == 0:
            self.sim.schedule(0.0, on_done)
        else:
            self._advance()
            tags = self._tags
            entry = (self._service + work, self._submitted, on_done)
            self._submitted += 1
            heapq.heappush(tags, entry)
            n = self._n = self._n + 1
            if n > self.peak_demand:
                self.peak_demand = n
            if n > self.cores or tags[0] is entry:  # rate fell or new head
                self._retime()
        if observers:
            for o in observers:
                o.on_demand(self)

    def add_poller(self, token: PollerToken) -> None:
        """Register a CPU-burning poller (e.g. a rank inside MPI_Wait*)."""
        if token.id in self._pollers:
            raise ValueError(f"poller {token!r} registered twice")
        self._advance()
        self._pollers.add(token.id)
        n = self._n = self._n + 1
        if n > self.peak_demand:
            self.peak_demand = n
        if n > self.cores and self._tags:
            self._retime()
        if self.observers:
            for o in self.observers:
                o.on_demand(self)

    def remove_poller(self, token: PollerToken) -> None:
        if token.id not in self._pollers:
            raise ValueError(f"poller {token!r} not registered")
        self._advance()
        self._pollers.discard(token.id)
        n = self._n = self._n - 1
        if n >= self.cores and self._tags:  # it was beyond the cores
            self._retime()
        if self.observers:
            for o in self.observers:
                o.on_demand(self)

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
        self._n -= len(self._tags)
        self._tags.clear()
        self._retime()

    def set_speed(self, factor: float) -> None:
        """Scale the node's clock (straggler injection: ``factor < 1``).

        Accounting for in-progress work is settled at the old speed first, so
        the change is exact mid-task.
        """
        if factor <= 0 or not math.isfinite(factor):
            raise ValueError(f"speed factor must be finite and > 0, got {factor}")
        self._advance()
        self.speed = factor
        self._retime()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name} cores={self.cores} demand={self.demand}>"


class ComputeOn(Command):
    """Yieldable: run ``work`` seconds of single-core compute on ``node``."""

    __slots__ = ("node", "work", "value")

    def __init__(self, node: Node, work: float, value: Any = None):
        self.node = node
        self.work = work
        self.value = value

    def describe(self, proc: SimProcess) -> str:
        return f"compute@{self.node.name}"

    def execute(self, sim: Simulator, proc: SimProcess) -> None:
        self.node.submit(self.work, partial(sim.resume, proc, self.value),
                         label=proc.name)


class Compute(Command):
    """Yieldable: run ``work`` seconds of compute on the process's own node.

    The owning layer must have stored the node in ``proc.context['node']``
    (the simulated MPI world launcher does this for every rank).
    """

    __slots__ = ("work", "value")

    def __init__(self, work: float, value: Any = None):
        self.work = work
        self.value = value

    def describe(self, proc: SimProcess) -> str:
        return f"compute@{proc.context['node'].name}"

    def execute(self, sim: Simulator, proc: SimProcess) -> None:
        node = proc.context.get("node")
        if node is None:
            raise RuntimeError(
                f"{proc.name}: Compute yielded by a process with no node in context; "
                "use ComputeOn(node, work) or run under smpi"
            )
        node.submit(self.work, partial(sim.resume, proc, self.value),
                    label=proc.name)
