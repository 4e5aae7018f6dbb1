"""One-shot simulation events.

A :class:`SimEvent` is the kernel's basic synchronisation object: it starts
*pending*, is *triggered* exactly once with an optional value (or *failed*
with an exception), and wakes every process that waited on it.  Unlike
callback-soup designs, waiters are plain simulated processes resumed through
the simulator, which keeps event ordering deterministic.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional

__all__ = ["EventState", "SimEvent", "label_text"]


def label_text(label: Any) -> str:
    """Render a raw label: a ``str`` as is, a (nested) tuple as its parts
    concatenated.  Hot paths name every message's events and flows
    ``("recv#", 7)``; only reports and traces read them as ``"recv#7"``."""
    if label.__class__ is str:
        return label
    return "".join(label_text(p) if p.__class__ is tuple else str(p) for p in label)


class EventState(enum.Enum):
    PENDING = "pending"
    TRIGGERED = "triggered"
    FAILED = "failed"


class SimEvent:
    """A one-shot event carrying an optional payload.

    Parameters
    ----------
    sim:
        Owning simulator.  Needed so that triggering an event can schedule
        waiter resumption at the current simulation time.
    name:
        Optional label used in deadlock reports: a string or a raw label
        tuple rendered by :func:`label_text` when :attr:`name` is read.
    """

    __slots__ = ("sim", "_name", "_state", "_value", "_exc", "_callbacks")

    def __init__(self, sim: "Simulator", name: Any = ""):  # noqa: F821
        self.sim = sim
        self._name = name or ("event#", sim._next_id())
        self._state = EventState.PENDING
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: list[Callable[["SimEvent"], None]] = []

    # ------------------------------------------------------------------ state
    @property
    def name(self) -> str:
        return label_text(self._name)

    @property
    def state(self) -> EventState:
        return self._state

    @property
    def pending(self) -> bool:
        return self._state is EventState.PENDING

    @property
    def triggered(self) -> bool:
        return self._state is EventState.TRIGGERED

    @property
    def failed(self) -> bool:
        return self._state is EventState.FAILED

    @property
    def value(self) -> Any:
        """Payload of a triggered event.

        Raises the stored exception when the event failed, and
        :class:`RuntimeError` when still pending.
        """
        if self._state is EventState.TRIGGERED:
            return self._value
        if self._state is EventState.FAILED:
            assert self._exc is not None
            raise self._exc
        raise RuntimeError(f"{self.name}: value read while still pending")

    # --------------------------------------------------------------- triggers
    def trigger(self, value: Any = None) -> "SimEvent":
        """Mark the event as triggered and wake all waiters.

        Triggering twice is an error: one-shot semantics are what the
        higher-level MPI request objects rely on.
        """
        if self._state is not EventState.PENDING:
            raise RuntimeError(f"{self.name}: trigger() on non-pending event ({self._state.value})")
        self._state = EventState.TRIGGERED
        self._value = value
        self._run_callbacks()
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        """Mark the event as failed; waiters will have ``exc`` raised in them."""
        if self._state is not EventState.PENDING:
            raise RuntimeError(f"{self.name}: fail() on non-pending event ({self._state.value})")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._state = EventState.FAILED
        self._exc = exc
        self._run_callbacks()
        return self

    def _run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    # --------------------------------------------------------------- waiting
    def add_callback(self, cb: Callable[["SimEvent"], None]) -> None:
        """Register ``cb``; runs immediately if the event already fired."""
        if self._state is EventState.PENDING:
            self._callbacks.append(cb)
        else:
            cb(self)

    def discard_callback(self, cb: Callable[["SimEvent"], None]) -> None:
        try:
            self._callbacks.remove(cb)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimEvent {self.name} {self._state.value}>"
