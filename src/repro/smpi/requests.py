"""MPI request objects for the simulated layer.

Requests wrap one-shot completion events.  Waiting/testing on them is the
job of :class:`~repro.smpi.context.RankCtx` (which also handles the CPU
polling and progress-engine bookkeeping); the classes here only carry state.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Optional

from ..simulate.core import Simulator
from ..simulate.events import EventState, SimEvent
from .datatypes import ANY_SOURCE, ANY_TAG
from .status import Status

__all__ = ["Request", "SendRequest", "RecvRequest", "MultiRequest"]

_PENDING = EventState.PENDING


class Request:
    """Base request: a completion event plus optional data/status."""

    __slots__ = ("req_id", "kind", "done", "_data", "status", "error")

    _ids = itertools.count()

    def __init__(self, sim: Simulator, kind: str):
        self.req_id = next(Request._ids)
        self.kind = kind
        self.done = SimEvent(sim, (kind, "#", self.req_id))
        #: payload delivered to a receive (None for sends).
        self._data: Any = None
        #: envelope of a completed receive.
        self.status: Optional[Status] = None
        #: the exception that failed this request, if any.
        self.error: Optional[BaseException] = None

    @property
    def data(self) -> Any:
        """Payload of a completed receive (``None`` for sends)."""
        return self._data

    @property
    def completed(self) -> bool:
        return self.done.triggered

    @property
    def failed(self) -> bool:
        return self.done.failed

    def _complete(self, data: Any = None, status: Optional[Status] = None) -> None:
        if self.done._state is not _PENDING:  # already failed (peer death raced us)
            return
        self._data = data
        self.status = status
        self.done.trigger(self)

    def _fail(self, exc: BaseException) -> None:
        """Complete this request *in error* (peer died).  Idempotent: a
        request that already completed or failed is left untouched."""
        if self.done._state is not _PENDING:
            return
        self.error = exc
        self.done.fail(exc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "failed" if self.failed else ("done" if self.completed else "pending")
        return f"<{type(self).__name__} #{self.req_id} {state}>"


class SendRequest(Request):
    """Pending send.  Eager sends complete at injection (buffered semantics);
    rendezvous sends complete when the payload has fully drained."""

    __slots__ = ("dst_gid", "tag", "nbytes")

    def __init__(self, sim: Simulator, dst_gid: int, tag: int, nbytes: int):
        super().__init__(sim, "send")
        self.dst_gid = dst_gid
        self.tag = tag
        self.nbytes = nbytes


class RecvRequest(Request):
    """Posted receive.  ``source``/``tag`` may be wildcards; the matched
    sender's communicator-relative rank lands in :attr:`Request.status`."""

    __slots__ = ("comm", "source", "tag", "reader")

    def __init__(self, sim: Simulator, comm, source: int, tag: int):
        super().__init__(sim, "recv")
        self.comm = comm
        self.source = source  # comm-relative rank or ANY_SOURCE
        self.tag = tag
        #: told of every ``data`` read: the sanitizer of this request's
        #: world sets itself here when it sees the receive posted.
        self.reader = None

    @property
    def data(self) -> Any:
        """Payload of the completed receive.

        Reading this before the request completed is undefined behaviour
        under real MPI; an attached sanitizer flags it as SAN002.
        """
        if self.reader is not None:
            self.reader.on_data_read(self)
        return self._data

    def matches(self, ctx_id: int, src_rank: int, tag: int) -> bool:
        if self.comm.ctx_id != ctx_id:
            return False
        if self.source != ANY_SOURCE and self.source != src_rank:
            return False
        if self.tag != ANY_TAG and self.tag != tag:
            return False
        return True


class MultiRequest(Request):
    """Aggregate of child requests (non-blocking collectives).

    Completes when every child completes.  ``Testall`` on the parent is the
    paper's Algorithm-3 completion check for ``MPI_Ialltoallv``.
    """

    __slots__ = ("children",)

    def __init__(self, sim: Simulator, children: Iterable[Request]):
        super().__init__(sim, "multi")
        self.children = list(children)
        failed = next((c for c in self.children if c.failed), None)
        if failed is not None:
            self._fail(failed.error or RuntimeError("child request failed"))
            return
        remaining = sum(1 for c in self.children if not c.completed)
        if remaining == 0:
            self._complete(None)
            return
        state = {"n": remaining}

        def on_child(ev):
            if ev.failed:
                # Propagate the first child failure; later completions are
                # absorbed by the pending-guards in _complete/_fail.
                exc: BaseException
                try:
                    ev.value
                    exc = RuntimeError("child request failed")
                except BaseException as child_exc:  # noqa: BLE001 - re-raised via fail
                    exc = child_exc
                self._fail(exc)
                return
            state["n"] -= 1
            if state["n"] == 0:
                self._complete(None)

        for c in self.children:
            if not c.completed:
                c.done.add_callback(on_child)
