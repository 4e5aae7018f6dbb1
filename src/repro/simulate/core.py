"""Discrete-event simulation kernel.

The kernel is deliberately small: a time-ordered event heap, generator-based
simulated processes, and an extensible *command* protocol.  A simulated
process is a Python generator that ``yield``\\ s command objects; each command
implements :meth:`Command.execute` and is responsible for eventually resuming
the process via :meth:`Simulator.resume`.  Higher layers (the cluster CPU
scheduler, the network, the simulated MPI library) define their own commands
without the kernel knowing about them — the same extension style SimPy uses,
rebuilt from scratch here so the repository has no external runtime
dependencies beyond numpy/scipy.

Determinism: ties in the heap are broken by a monotonically increasing
sequence number, so two runs with the same seed produce identical traces.

Owner-held timers: a model with one pending completion (a CPU node, the
network) arms it with :meth:`Simulator.set_timer`.  The heap entry is the
plain tuple ``(time, seq, owner)`` and fires ``owner._on_timer()`` only while
``owner._timer_seq`` still equals ``seq``, so re-arming or cancelling
(``owner._timer_seq = -1``) is one integer store with no handle allocated —
the seq-based cancellation Timeout wakeups use.  :meth:`Simulator.schedule`
stays for one-off callbacks.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import (
    DeadlockError,
    InvalidYield,
    ProcessKilled,
    SimTimeLimitExceeded,
    SimulationError,
)
from .events import SimEvent

__all__ = ["Command", "Simulator", "SimProcess"]


class Command:
    """Base class for everything a simulated process may ``yield``.

    Subclasses override :meth:`execute`.  The contract: after ``execute``
    returns, *something* must eventually call ``sim.resume(proc, value)`` or
    ``sim.throw_in(proc, exc)`` — otherwise the process stays blocked forever
    and will show up in the deadlock report.
    """

    #: human-readable reason shown in deadlock reports while a process is
    #: blocked on this command.
    blocking_reason: str = "command"

    #: commands are created at very high rates inside the event loop, so
    #: subclasses declare ``__slots__`` and skip per-instance ``__dict__``.
    __slots__ = ()

    def execute(self, sim: "Simulator", proc: "SimProcess") -> None:
        raise NotImplementedError

    def describe(self, proc: "SimProcess") -> str:
        """What ``proc`` blocked on this waits for (formatted only when read)."""
        return self.blocking_reason


class SimProcess:
    """Handle for a running simulated process.

    The handle doubles as a completion event (:attr:`done_event`) so other
    processes can join on it, and records the generator's return value.
    """

    _ALIVE = "alive"
    _DONE = "done"
    _FAILED = "failed"
    _KILLED = "killed"

    __slots__ = (
        "sim",
        "gen",
        "name",
        "pid",
        "state",
        "done_event",
        "_blocked",
        "result",
        "context",
        "_pending_seq",
        "_send",
    )

    def __init__(self, sim: "Simulator", gen: Generator[Command, Any, Any], name: str):
        self.sim = sim
        self.gen = gen
        #: bound ``gen.send``, cached because :meth:`Simulator._step` resumes
        #: the generator once per event (one slotted load beats two lookups).
        self._send = gen.send
        self.name = name
        self.pid = sim._next_id()
        self.state = self._ALIVE
        self.done_event = SimEvent(sim, ("done:", name))
        #: the command the process is currently blocked on; rendered only
        #: when read (:attr:`blocked_on`, deadlock reports).
        self._blocked: Optional[Command] = None
        #: result value once finished
        self.result: Any = None
        #: arbitrary per-process scratch space for higher layers (e.g. the
        #: simulated MPI rank, the node the process runs on).
        self.context: dict[str, Any] = {}
        #: heap sequence number of a pending Timeout wakeup (-1 = none),
        #: invalidated when the process is resumed or killed early so stale
        #: wakeups neither fire nor needlessly advance the clock.  Storing
        #: the seq instead of a handle object keeps timeout scheduling
        #: allocation-free (the wakeup rides the heap as a plain tuple).
        self._pending_seq: int = -1

    # -------------------------------------------------------------- lifecycle
    @property
    def alive(self) -> bool:
        return self.state == self._ALIVE

    @property
    def blocked_on(self) -> Optional[str]:
        """What the process is currently blocked on (for deadlock reports)."""
        cmd = self._blocked
        return None if cmd is None else cmd.describe(self)

    def kill(self, reason: str = "killed") -> None:
        """Throw :class:`ProcessKilled` into the process at the current time.

        The kill is *scheduled*: it takes effect when the event loop next
        runs, like a signal.  Use :meth:`Simulator.kill_now` when the caller
        needs the process torn down synchronously (e.g. a fault injector that
        must observe the death before notifying survivors).
        """
        if self.state != self._ALIVE:
            return
        self.sim.throw_in(self, ProcessKilled(reason))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimProcess {self.name} pid={self.pid} {self.state}>"


class _HeapItem:
    """Handle for one scheduled callback: fire ``fn`` at simulated ``time``.

    The heap itself stores ``(time, seq, item)`` tuples so ordering is
    resolved by C-level tuple comparison (``seq`` is unique, so the item
    object is never compared) — an order-of-magnitude cheaper than a Python
    ``__lt__`` for the hundreds of thousands of sift comparisons per run.
    Setting the handle's ``cancelled`` flag skips execution.

    The handle is an owner-held timer (see the module docstring) that owns
    exactly one entry: ``_on_timer`` is the callback itself and
    ``_timer_seq`` its entry's seq until cancelled.  Process wakeups — the
    dominant event class — ride the heap as plain tuples instead (see
    :meth:`Simulator._schedule_timeout` / the drain loop in
    :meth:`Simulator.run`), which keeps them allocation-light.
    """

    __slots__ = ("time", "seq", "_on_timer", "_timer_seq")

    def __init__(self, time: float, seq: int, fn: Callable[[], None]):
        self.time = time
        self.seq = seq
        self._on_timer = fn
        self._timer_seq = seq

    @property
    def cancelled(self) -> bool:
        return self._timer_seq != self.seq

    @cancelled.setter
    def cancelled(self, value: bool) -> None:
        self._timer_seq = -1 if value else self.seq


class Simulator:  # repro: noqa[REP005] - one instance per run; hooks land as attributes
    """The event loop.

    Typical use::

        sim = Simulator()
        def worker():
            yield Timeout(1.0)
            return 42
        p = sim.spawn(worker(), name="w0")
        sim.run()
        assert p.result == 42 and sim.now == 1.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._ids = itertools.count()
        self._processes: list[SimProcess] = []
        self._failures: list[tuple[SimProcess, BaseException]] = []
        #: hooks run every time the heap empties, before deadlock detection.
        #: Layers that keep internal work queues (e.g. lazily scheduled
        #: network recomputation) can register here.
        self.idle_hooks: list[Callable[[], bool]] = []
        #: hooks consulted when deadlock is about to be raised; each returns
        #: explanation lines folded into the :class:`DeadlockError` message.
        #: The MPI sanitizer registers its wait-for-graph renderer here.
        self.diagnostics: list[Callable[[], list[str]]] = []

    # ----------------------------------------------------------------- ids
    def _next_id(self) -> int:
        return next(self._ids)

    # ----------------------------------------------------------------- events
    def event(self, name: Any = "") -> SimEvent:
        return SimEvent(self, name=name)

    def schedule(self, delay: float, fn: Callable[[], None]) -> _HeapItem:
        """Run ``fn()`` after ``delay`` simulated seconds. Returns a handle
        whose ``cancelled`` flag may be set to skip execution."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        time = self.now + delay
        seq = next(self._seq)
        item = _HeapItem(time, seq, fn)
        heapq.heappush(self._heap, (time, seq, item))
        return item

    def schedule_at(self, time: float, fn: Callable[[], None]) -> _HeapItem:
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self.schedule(time - self.now, fn)

    def schedule_batch(
        self, entries: Iterable[tuple[float, Callable[[], None]]]
    ) -> list[_HeapItem]:
        """Schedule many ``(absolute_time, fn)`` callbacks in one pass.

        The batch-wakeup lane: pushing ``K`` events one by one costs
        ``K * log(N)`` sift operations, while extending the heap list and
        re-heapifying once costs ``O(N + K)`` — the win the trace-driven RMS
        simulator relies on when it posts 10^4 job arrivals up front.  Small
        batches fall back to individual pushes so a one-element "batch" pays
        nothing extra.  Sequence numbers are drawn in iteration order, so
        same-time entries fire in the order given (exactly as if they had
        been scheduled through :meth:`schedule_at` one by one).
        """
        heap = self._heap
        now = self.now
        staged: list[tuple[float, int, _HeapItem]] = []
        handles: list[_HeapItem] = []
        for time, fn in entries:
            if time < now:
                raise ValueError(
                    f"cannot schedule in the past: {time} < {now}"
                )
            seq = next(self._seq)
            item = _HeapItem(time, seq, fn)
            staged.append((time, seq, item))
            handles.append(item)
        # Below ~len(heap)/8 entries the K*log(N) pushes beat the O(N+K)
        # re-heapify; either path yields the same (time, seq) fire order.
        if len(staged) * 8 < len(heap):
            for entry in staged:
                heapq.heappush(heap, entry)
        else:
            heap.extend(staged)
            heapq.heapify(heap)
        return handles

    def set_timer(self, owner: Any, delay: float) -> None:
        """(Re-)arm ``owner``'s one timer ``delay`` seconds ahead, staling
        its earlier entry (owner-held timers: see the module docstring)."""
        seq = next(self._seq)
        owner._timer_seq = seq
        heapq.heappush(self._heap, (self.now + delay, seq, owner))

    def _schedule_timeout(self, delay: float, proc: SimProcess, value: Any) -> None:
        """Allocation-light fast path for a cancellable Timeout wakeup.

        The wakeup is pushed as a plain 4-tuple ``(time, seq, proc, value)``
        — no handle object, no closure.  Cancellation is by sequence number:
        the wakeup fires only while ``proc._pending_seq`` still equals its
        ``seq``, so resuming or killing the process invalidates it with a
        single integer store.  Equivalent to the historical ``schedule(delay,
        lambda: self._step(proc, value, None))`` + handle-cancel protocol,
        at a fraction of the per-event cost.
        """
        seq = next(self._seq)
        proc._pending_seq = seq
        heapq.heappush(self._heap, (self.now + delay, seq, proc, value))

    def _schedule_wakeup(
        self, proc: SimProcess, value: Any, exc: Optional[BaseException]
    ) -> None:
        """Closure-free zero-delay wakeup (spawn/resume/throw_in).

        Pushed as a 5-tuple ``(time, seq, proc, value, exc)``; never
        cancelled (a stale wakeup on a dead process is a no-op via the
        state check in :meth:`_step`, exactly as before).
        """
        heapq.heappush(
            self._heap, (self.now, next(self._seq), proc, value, exc)
        )

    # -------------------------------------------------------------- processes
    def spawn(self, gen: Generator[Command, Any, Any], name: str = "") -> SimProcess:
        """Register a generator as a simulated process, starting it at the
        current simulation time (before any already-queued events at a later
        time, after already-queued events at the same time)."""
        if not hasattr(gen, "send"):
            raise TypeError(f"spawn() needs a generator, got {type(gen).__name__}")
        proc = SimProcess(self, gen, name or f"proc#{next(self._ids)}")
        self._processes.append(proc)
        self._schedule_wakeup(proc, None, None)
        return proc

    def resume(self, proc: SimProcess, value: Any = None) -> None:
        """Resume ``proc`` at the current time, sending ``value`` into it."""
        if proc.state is not SimProcess._ALIVE:
            return
        proc._pending_seq = -1
        self._schedule_wakeup(proc, value, None)

    def throw_in(self, proc: SimProcess, exc: BaseException) -> None:
        """Raise ``exc`` inside ``proc`` at the current time."""
        if proc.state is not SimProcess._ALIVE:
            return
        proc._pending_seq = -1
        self._schedule_wakeup(proc, None, exc)

    def kill_now(self, proc: SimProcess, reason: str = "killed") -> None:
        """Kill ``proc`` *synchronously* (its ``finally`` cleanup runs before
        this call returns).

        Unlike :meth:`SimProcess.kill` — which schedules the
        :class:`ProcessKilled` throw like a signal — this is for callers that
        must observe the death immediately, e.g. a fault injector crashing a
        node: the processes on it must be gone *before* survivors are told,
        so the failure notification never races a half-dead generator.
        """
        if not proc.alive:
            return
        proc._pending_seq = -1
        self._step(proc, None, ProcessKilled(reason))

    def _step(self, proc: SimProcess, value: Any, exc: Optional[BaseException]) -> None:
        # ``state`` only ever holds the interned class constants, so an
        # identity check is safe and skips the ``alive`` property call.
        if proc.state is not SimProcess._ALIVE:
            return
        proc._pending_seq = -1
        proc._blocked = None
        try:
            if exc is not None:
                cmd = proc.gen.throw(exc)
            else:
                cmd = proc._send(value)
        except StopIteration as stop:
            proc.state = SimProcess._DONE
            proc.result = stop.value
            proc.done_event.trigger(stop.value)
            return
        except ProcessKilled:
            proc.state = SimProcess._KILLED
            proc.done_event.trigger(None)
            return
        except BaseException as err:  # noqa: BLE001 - report any process crash
            proc.state = SimProcess._FAILED
            self._failures.append((proc, err))
            if proc.done_event.pending:
                proc.done_event.fail(err)
            return
        if not isinstance(cmd, Command):
            bad = InvalidYield(f"{proc.name} yielded {cmd!r}; expected a simulate.Command")
            self.throw_in(proc, bad)
            return
        proc._blocked = cmd
        try:
            cmd.execute(self, proc)
        except BaseException as err:  # command setup failed synchronously
            self.throw_in(proc, err)

    # -------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None, strict_until: bool = False) -> float:
        """Drain the event heap.

        Returns the final simulation time.  Raises :class:`DeadlockError`
        when processes remain blocked with nothing scheduled, and re-raises
        the first process failure (with the others noted) to fail loudly
        rather than silently producing partial results.

        With ``until`` set, the run stops once the next live event lies past
        the limit.  By default that stop is *lenient* — the clock is clamped
        to ``until`` and the remaining work stays queued for a later
        ``run()`` call.  With ``strict_until=True`` the documented
        :class:`SimTimeLimitExceeded` contract applies instead: hitting the
        limit with events still queued or processes still blocked raises,
        so a hung scenario cannot masquerade as a bounded run.

        Cancelled heap entries (stale wakeups) never count as pending work:
        a heap holding only cancelled items past ``until`` drains through to
        the normal end-of-run deadlock check rather than silently returning.
        """
        if strict_until and until is None:
            raise ValueError("strict_until=True requires an explicit until")
        # The drain loop runs hundreds of thousands of iterations per
        # simulated job; bind the hot lookups to locals (heap list, heappop,
        # failures list — both lists are only ever mutated in place).
        # Heap entries come in three shapes, disambiguated by length (the
        # (time, seq) prefix is unique, so C-level tuple comparison never
        # reaches the payload):
        #   3-tuple (time, seq, owner)            - owner-held timer/callback
        #   4-tuple (time, seq, proc, value)      - cancellable Timeout wakeup
        #   5-tuple (time, seq, proc, value, exc) - spawn/resume/throw wakeup
        heap = self._heap
        heappop = heapq.heappop
        failures = self._failures
        step = self._step
        while True:
            while heap:
                if failures:
                    self._raise_failures()
                entry = heap[0]
                t = entry[0]
                if until is not None and t > until:
                    # Stale (cancelled) wakeups are not pending work: drop
                    # them so a heap holding nothing else falls through to
                    # the deadlock check below instead of returning early.
                    if self._entry_stale(entry):
                        heappop(heap)
                        continue
                    self.now = until
                    if strict_until:
                        pending = sum(
                            1 for e in heap if not self._entry_stale(e)
                        )
                        raise SimTimeLimitExceeded(
                            until, pending, self._blocked_report()
                        )
                    return self.now
                entry = heappop(heap)
                n = len(entry)
                if n == 4:
                    # Timeout wakeup: fires only while still the process's
                    # registered pending wakeup (seq match = not cancelled).
                    proc = entry[2]
                    if proc._pending_seq != entry[1]:
                        continue
                elif n == 3:
                    # Owner-held timer: live while its seq is the owner's.
                    owner = entry[2]
                    if owner._timer_seq != entry[1]:
                        continue
                now = self.now
                if t > now:
                    self.now = t
                elif t < now - 1e-12:
                    raise SimulationError(
                        f"time went backwards: {t} < {now}"
                    )
                if n == 4:
                    step(proc, entry[3], None)
                elif n == 3:
                    owner._on_timer()
                else:
                    step(entry[2], entry[3], entry[4])
            if failures:
                self._raise_failures()
            # Allow layers to flush deferred work that may enqueue new events.
            if any(hook() for hook in list(self.idle_hooks)):
                continue
            break
        blocked = self._blocked_report()
        if blocked:
            details: list[str] = []
            for hook in list(self.diagnostics):
                details.extend(hook())
            raise DeadlockError(blocked, details=details)
        return self.now

    @staticmethod
    def _entry_stale(entry: tuple) -> bool:
        """True when a heap entry is a cancelled timer or stale wakeup."""
        n = len(entry)
        if n == 3:
            return entry[2]._timer_seq != entry[1]
        if n == 4:
            return entry[2]._pending_seq != entry[1]
        return False

    def _blocked_report(self) -> list[str]:
        return [
            f"{p.name} (waiting on {p.blocked_on})"
            for p in self._processes
            if p.alive and p._blocked is not None
        ]

    def _raise_failures(self) -> None:
        proc, err = self._failures[0]
        others = ", ".join(p.name for p, _ in self._failures[1:])
        note = f" (further failures in: {others})" if others else ""
        raise SimulationError(f"process {proc.name!r} failed{note}") from err

    # ---------------------------------------------------------------- queries
    @property
    def live_processes(self) -> list[SimProcess]:
        return [p for p in self._processes if p.alive]

    def wait_all(self, procs: Iterable[SimProcess]) -> Generator[Command, Any, list[Any]]:
        """Convenience subroutine: ``yield from sim.wait_all(procs)``."""
        from .primitives import WaitEvent

        results = []
        for p in procs:
            results.append((yield WaitEvent(p.done_event)))
        return results
