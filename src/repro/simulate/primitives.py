"""Built-in kernel commands that simulated processes can ``yield``.

Higher layers add their own commands (CPU work, network transfers, MPI
calls); the ones here are pure-kernel: delays, event waits, and combinators.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from .core import Command, SimProcess, Simulator
from .events import EventState, SimEvent

__all__ = ["Timeout", "WaitEvent", "AnyOf", "AllOf", "Now", "Passivate"]

_PENDING = EventState.PENDING
_FAILED = EventState.FAILED


class Timeout(Command):
    """Resume the process after ``delay`` simulated seconds.

    The optional ``value`` is what the ``yield`` expression evaluates to,
    which keeps subroutine code symmetric with event waits.
    """

    blocking_reason = "timeout"
    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        # Hot constructor: most callers already pass a float, so skip the
        # redundant conversion (float() on a float still allocates a call).
        self.delay = delay if delay.__class__ is float else float(delay)
        self.value = value

    def execute(self, sim: Simulator, proc: SimProcess) -> None:
        # Allocation-light wakeup: rides the heap as a plain tuple, with
        # seq-based cancellation (see Simulator._schedule_timeout).
        sim._schedule_timeout(self.delay, proc, self.value)


class WaitEvent(Command):
    """Block until a :class:`SimEvent` triggers; yields the event's value.

    If the event failed, the stored exception is raised inside the waiting
    process.  Waiting on an already-triggered event resumes immediately (at
    the current time, after already queued same-time events).
    """

    __slots__ = ("event",)

    def __init__(self, event: SimEvent):
        if not isinstance(event, SimEvent):
            raise TypeError(f"WaitEvent needs a SimEvent, got {type(event).__name__}")
        self.event = event

    def describe(self, proc: SimProcess) -> str:
        return f"event:{self.event.name}"

    def execute(self, sim: Simulator, proc: SimProcess) -> None:
        def on_fire(ev: SimEvent) -> None:
            if ev._state is _FAILED:
                try:
                    ev.value
                except BaseException as exc:  # noqa: BLE001
                    sim.throw_in(proc, exc)
                    return
            sim.resume(proc, ev._value)

        self.event.add_callback(on_fire)


class AnyOf(Command):
    """Block until *any* of the events fires.

    Yields ``(index, value)`` of the first event to fire, with deterministic
    lowest-index tie-breaking for events that are already triggered.  This is
    the kernel primitive underneath ``MPI_Waitany``.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[SimEvent]):
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf needs at least one event")

    def describe(self, proc: SimProcess) -> str:
        return f"any-of[{len(self.events)}]"

    def execute(self, sim: Simulator, proc: SimProcess) -> None:
        done = False
        callbacks: list[tuple[SimEvent, Any]] = []

        def make_cb(index: int):
            def on_fire(ev: SimEvent) -> None:
                nonlocal done
                if done:
                    return
                done = True
                for other, cb in callbacks:
                    if other is not ev:
                        other.discard_callback(cb)
                if ev._state is _FAILED:
                    try:
                        ev.value
                    except BaseException as exc:  # noqa: BLE001
                        sim.throw_in(proc, exc)
                        return
                sim.resume(proc, (index, ev._value))

            return on_fire

        # Deterministic: check already-fired events in index order first.
        for i, ev in enumerate(self.events):
            if ev._state is not _PENDING:
                make_cb(i)(ev)
                return
        for i, ev in enumerate(self.events):
            cb = make_cb(i)
            callbacks.append((ev, cb))
            ev.add_callback(cb)


class AllOf(Command):
    """Block until *all* events fire; yields the list of their values."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[SimEvent]):
        self.events = list(events)

    def describe(self, proc: SimProcess) -> str:
        return f"all-of[{len(self.events)}]"

    def execute(self, sim: Simulator, proc: SimProcess) -> None:
        remaining = sum(1 for ev in self.events if ev._state is _PENDING)
        failed = False

        # Deterministic: an event that already failed surfaces its stored
        # exception immediately (first by list order), even when nothing is
        # pending anymore — otherwise an all-settled wait would silently
        # yield the failed events' ``None`` values.
        for ev in self.events:
            if ev._state is _FAILED:
                try:
                    ev.value
                except BaseException as exc:  # noqa: BLE001
                    sim.throw_in(proc, exc)
                return

        if remaining == 0:
            self._finish(sim, proc)
            return

        def on_fire(ev: SimEvent) -> None:
            nonlocal remaining, failed
            if failed:
                return
            if ev._state is _FAILED:
                failed = True
                try:
                    ev.value
                except BaseException as exc:  # noqa: BLE001
                    sim.throw_in(proc, exc)
                return
            remaining -= 1
            if remaining == 0:
                self._finish(sim, proc)

        for ev in self.events:
            if ev._state is _PENDING:
                ev.add_callback(on_fire)

    def _finish(self, sim: Simulator, proc: SimProcess) -> None:
        sim.resume(proc, [ev._value for ev in self.events])


class Now(Command):
    """Yields the current simulation time without advancing it.

    Resumes synchronously-next (same timestamp), so surrounding code observes
    no delay.
    """

    blocking_reason = "now"
    __slots__ = ()

    def execute(self, sim: Simulator, proc: SimProcess) -> None:
        sim.resume(proc, sim.now)


class Passivate(Command):
    """Block forever until another process resumes or kills this one.

    Used by simulated thread join points and by terminated-but-not-reaped
    MPI processes.  An optional ``reason`` improves deadlock reports.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str = "passivate"):
        self.reason = reason

    def describe(self, proc: SimProcess) -> str:
        return self.reason

    def execute(self, sim: Simulator, proc: SimProcess) -> None:
        """Intentionally nothing: someone must ``sim.resume(proc)``."""
