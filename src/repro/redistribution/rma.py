"""One-sided (RMA) redistribution — the paper's §5 extension, promoted to a
first-class third method alongside P2P (Algorithm 1) and COL (Algorithm 2).

Built on the passive-target subsystem (:mod:`repro.smpi.rma`): a window is
created collectively over the redistribution communicator and the data
moves inside shared lock epochs, in one of two symmetrical variants:

* **origin-driven** (``variant="origin"``, the default): each *source*
  opens a shared lock epoch per destination and issues one *put* per chunk
  of its send schedule — no size pre-exchange and no two-sided matching.
  Targets expose their (empty) destination dataset and learn completeness
  from put-notification counters: the plan predicts exactly how many
  chunks must land.
* **target-driven** (``variant="target"``): each *target* locks its
  sources and issues one *get* per chunk of its receive schedule; sources
  expose their source dataset and wait until the notification counter says
  every chunk was served.

Either way the rendezvous-progress artifact carries over from the
two-sided world on non-RDMA fabrics (see :mod:`repro.smpi.rma`): large
one-sided payloads only complete while the *data-holding* side is inside
an MPI call, so the asynchronous strategies drain them at ``test()``
checkpoints — which is exactly the regime the RMA-vs-COL characterisation
benchmark probes.  On RDMA fabrics the hardware completes ops without any
remote progress and the method's no-matching advantage shows directly.
"""

from __future__ import annotations

from ..simulate.primitives import AllOf
from .session import RMA_VARIANTS, RedistributionSession

__all__ = ["RmaRedistribution", "RMA_VARIANTS"]


class _DatasetExposure:
    """Window exposure adapter over one dataset.

    Origin-driven puts carry ``(lo, hi, payload_dict)`` tuples; target-
    driven gets read a row range back out (offset/count address dataset
    rows, not bytes — ``read_nbytes`` reports the true wire size).
    """

    def __init__(self, dataset, names, staged=None):
        self.dataset = dataset
        self.names = names
        #: target-driven variant: ``(lo, hi) -> (payloads, nbytes)``
        #: pre-packed from the exposing source's program, which lists its
        #: full get schedule up front, so one batched store pass serves every
        #: request.
        self._staged = staged or {}

    def apply_put(self, payload) -> None:
        lo, hi, payloads = payload
        self.dataset.insert(lo, hi, payloads, self.names)

    def read(self, offset: int, count: int):
        """Serve one get: ``(payload_dict, wire_nbytes)``.

        The byte count rides along because only the data-holding side can
        price a chunk (the requesting side's dataset is still empty — with
        CSR fields the wire size depends on the rows' population)."""
        return self._staged[(offset, offset + count)]

    def read_nbytes(self, offset: int, count: int) -> int:
        return self._staged[(offset, offset + count)][1]


class RmaRedistribution(RedistributionSession):
    """One rank's one-sided redistribution (see module docstring)."""

    method_name = "rma"

    def __init__(self, *args, variant: str = "origin", **kwargs):
        self.variant = variant  # validated by the lowering
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------ lifecycle
    def start(self):
        """Create the window (collective), open the lock epochs, and issue
        every one-sided operation of my program."""
        if self._started:
            raise RuntimeError("session already started")
        self._started = True
        self._mark_started()
        prog = self.program
        wait = prog[-1] if prog[-1]["op"] == "notify_wait" else None
        exposure = None
        if wait is not None:
            staged = None
            if self.variant == "target":
                # Pre-pack every chunk the targets will get from me — the
                # program lists the full request schedule, so one batched
                # store pass replaces a per-get extract.
                staged = {
                    chunk: (payload, nbytes) for chunk, (_s, nbytes, payload)
                    in zip(wait["chunks"], self._pack(wait["chunks"]))
                }
            exposure = _DatasetExposure(
                self.dst_dataset if self.variant == "origin" else self.src_dataset,
                self.names,
                staged=staged,
            )
        self._win = yield from self.ctx.win_create(exposure, comm=self.comm)
        self._op_events = []     # completion events of my puts/gets
        self._pending_gets = []  # (lo, hi, event) of gets awaiting insert
        self._locked = []        # peers whose epoch is still open
        self._notify_event = None

        if wait is not None:
            self._notify_event = self._win.notification_event(
                self.ctx.gid, threshold=wait["threshold"]
            )

        yield from self._memcpys()

        if not prog[0]["drives"]:
            return

        # Open one shared epoch per distinct peer, concurrently: the lock
        # requests overlap their control-message round trips.
        t0 = self.ctx.now
        peers = [op["peer"] for op in prog if op["op"] == "lock"]
        grants = []
        for peer in peers:
            ev = yield from self.ctx.win_ilock(self._win, peer)
            grants.append(ev)
        if grants:
            yield from self.ctx._polling_block(AllOf(grants))
            self._locked = peers
        self._emit_phase_span("lock", t0)

        t0 = self.ctx.now
        if self.variant == "origin":
            # Payloads and wire sizes for the whole put schedule from one
            # store pass.
            puts = [op for op in prog if op["op"] == "put"]
            packed = self._pack([(op["lo"], op["hi"]) for op in puts])
            for op, (_sizes, nbytes, payloads) in zip(puts, packed):
                self._emit_transfer("put", nbytes)
                ev = yield from self.ctx.win_put(
                    self._win, op["peer"], (op["lo"], op["hi"], payloads),
                    nbytes=nbytes, label=f"{self.label}:put",
                )
                self._op_events.append(ev)
            self._emit_phase_span("put", t0)
        else:
            for op in prog:
                if op["op"] != "get":
                    continue
                lo, hi = op["lo"], op["hi"]
                ev = yield from self.ctx.win_iget(
                    self._win, op["peer"], lo, hi - lo,
                    label=f"{self.label}:get",
                )
                self._op_events.append(ev)
                self._pending_gets.append((lo, hi, ev))
            self._emit_phase_span("get", t0)

    def _insert_landed_gets(self) -> None:
        """Move completed gets into the destination dataset.

        Byte accounting happens here, not at issue time: the chunk size is
        priced by the exposure (see :meth:`_DatasetExposure.read`) and only
        becomes known to the requesting side when the data lands."""
        still = []
        for lo, hi, ev in self._pending_gets:
            if ev.triggered:
                payloads, nbytes = ev.value
                self._emit_transfer("get", nbytes)
                self.dst_dataset.insert(lo, hi, payloads, self.names)
            else:
                still.append((lo, hi, ev))
        self._pending_gets = still

    def _locally_done(self) -> bool:
        ops_done = all(ev.triggered for ev in self._op_events)
        notified = self._notify_event is None or self._notify_event.triggered
        return ops_done and notified

    def _close_epochs(self):
        """Unlock every open epoch (flushes; cheap once the ops drained)."""
        for peer in self._locked:
            yield from self.ctx.win_unlock(self._win, peer)
        self._locked = []

    def finish(self):
        """Block until my ops flushed, my epochs closed, and — when I
        expose data — the notification counter reached its threshold."""
        if not self._started:
            raise RuntimeError("finish() before start()")
        t0 = self.ctx.now
        yield from self._close_epochs()
        if self._notify_event is not None and self._notify_event.pending:
            yield from self.ctx._polling_block(AllOf([self._notify_event]))
        self._insert_landed_gets()
        self._emit_phase_span("drain", t0)
        self._finished = True
        self._mark_finished()

    def test(self):
        """One progress window plus a completion check.  RMA needs no
        handshake pumping of its own — the progress tick is what lets
        deferred one-sided landings drain on non-RDMA fabrics — so the
        checkpoints stay as cheap as the method promises."""
        if not self._started:
            raise RuntimeError("test() before start()")
        if self._finished:
            return True
        yield from self.ctx.progress_tick()
        for ev in self._op_events:
            if ev.failed:
                ev.value  # raises CommFailedError (A/T strategies learn here)
        self._insert_landed_gets()
        if self._locked and all(ev.triggered for ev in self._op_events):
            # Everything I drove completed: the closing flushes are empty,
            # so the unlocks cannot block this checkpoint.
            yield from self._close_epochs()
        if self._locally_done() and not self._locked:
            self._finished = True
            self._mark_finished()
        self._emit_test(self._finished)
        return self._finished
