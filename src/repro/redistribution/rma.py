"""One-sided (RMA) redistribution — the paper's §5 extension, promoted to a
first-class third method alongside P2P (Algorithm 1) and COL (Algorithm 2).

Built on the passive-target subsystem (:mod:`repro.smpi.rma`): a window is
created collectively over the redistribution communicator and the data
moves inside ``win_lock`` epochs, in one of two symmetrical variants:

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
from .session import RedistributionSession

__all__ = ["RmaRedistribution", "RMA_VARIANTS"]

#: accepted values of :class:`RmaRedistribution` ``variant=``.
RMA_VARIANTS = ("origin", "target")


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
        #: pre-packed from the compiled plan — the exposing source knows its
        #: full get schedule up front, so one batched store pass serves every
        #: request.  Reads outside the staged schedule (never issued by the
        #: sessions) are extracted on demand.
        self._staged = staged or {}

    def apply_put(self, payload) -> None:
        lo, hi, payloads = payload
        self.dataset.insert(lo, hi, payloads, self.names)

    def read(self, offset: int, count: int):
        """Serve one get: ``(payload_dict, wire_nbytes)``.

        The byte count rides along because only the data-holding side can
        price a chunk (the requesting side's dataset is still empty — with
        CSR fields the wire size depends on the rows' population)."""
        lo, hi = offset, offset + count
        hit = self._staged.get((lo, hi))
        if hit is not None:
            return hit
        return (
            self.dataset.extract(lo, hi, list(self.names)),
            self.dataset.range_nbytes(lo, hi, list(self.names)),
        )

    def read_nbytes(self, offset: int, count: int) -> int:
        hit = self._staged.get((offset, offset + count))
        if hit is not None:
            return hit[1]
        return self.dataset.range_nbytes(offset, offset + count, list(self.names))


class RmaRedistribution(RedistributionSession):
    """One rank's one-sided redistribution (see module docstring)."""

    method_name = "rma"

    def __init__(self, *args, variant: str = "origin", **kwargs):
        super().__init__(*args, **kwargs)
        if variant not in RMA_VARIANTS:
            raise ValueError(
                f"unknown RMA variant {variant!r}; "
                f"valid choices: {', '.join(RMA_VARIANTS)}"
            )
        self.variant = variant

    # ------------------------------------------------------------ static view
    @classmethod
    def symbolic_schedule(cls, plan, src_rank=None, dst_rank=None, *,
                          variant: str = "origin") -> list[dict]:
        """Elaborate one rank's one-sided ops as plain data, for the static
        verifier (:mod:`repro.sanitize.static_check`).

        Mirrors :meth:`start`/:meth:`finish`: the collective ``win_create``,
        the shared lock epochs opened *concurrently* over the sorted peer
        set (the AllOf block), one put/get per scheduled chunk, the closing
        unlocks, and — on the exposing side — the notification wait with the
        plan-predicted threshold of :meth:`_expected_notifications`.
        """
        if variant not in RMA_VARIANTS:
            raise ValueError(
                f"unknown RMA variant {variant!r}; "
                f"valid choices: {', '.join(RMA_VARIANTS)}"
            )
        is_source = src_rank is not None
        is_target = dst_rank is not None
        drives = is_source if variant == "origin" else is_target
        exposes = is_target if variant == "origin" else is_source
        peer_side = "dst" if variant == "origin" else "src"
        ops: list[dict] = [{"op": "win_create"}]
        if is_source and is_target:
            for tr in plan.sends_for(src_rank):
                if tr.dst == dst_rank:
                    ops.append({"op": "memcpy", "rows": tr.n_rows})
        if drives:
            if variant == "origin":
                schedule = [
                    (tr.dst, tr.n_rows)
                    for tr in plan.sends_for(src_rank)
                    if not (is_target and tr.dst == dst_rank)
                ]
            else:
                schedule = [
                    (tr.src, tr.n_rows)
                    for tr in plan.recvs_for(dst_rank)
                    if not (is_source and tr.src == src_rank)
                ]
            peers = sorted({peer for peer, _rows in schedule})
            for order, peer in enumerate(peers):
                ops.append({"op": "lock", "peer": peer, "side": peer_side,
                            "mode": "shared", "concurrent": True,
                            "order": order})
            kind = "put" if variant == "origin" else "get"
            for peer, rows in schedule:
                ops.append({"op": kind, "peer": peer, "side": peer_side,
                            "rows": rows})
            for peer in peers:
                ops.append({"op": "unlock", "peer": peer, "side": peer_side})
        if exposes:
            if variant == "origin":
                threshold = sum(
                    1
                    for tr in plan.recvs_for(dst_rank)
                    if not (is_source and tr.src == src_rank)
                )
            else:
                threshold = sum(
                    1
                    for tr in plan.sends_for(src_rank)
                    if not (is_target and tr.dst == dst_rank)
                )
            ops.append({"op": "notify_wait", "threshold": threshold})
        return ops

    # --------------------------------------------------------------- common
    @property
    def _drives(self) -> bool:
        """Do I issue the one-sided operations (lock/put or lock/get)?"""
        if self.variant == "origin":
            return self.is_source
        return self.is_target

    def _schedule(self):
        """(peer, lo, hi) triples I drive, excluding the memcpy self-chunk."""
        if self.variant == "origin":
            for tr in self.plan.sends_for(self.src_rank):
                if self.is_target and tr.dst == self.dst_rank:
                    continue  # self-chunk moves by memcpy
                yield tr.dst, tr.lo, tr.hi
        else:
            for tr in self.plan.recvs_for(self.dst_rank):
                if self.is_source and tr.src == self.src_rank:
                    continue
                yield tr.src, tr.lo, tr.hi

    def _expected_notifications(self) -> int:
        """Completed ops my exposure must observe before I am done."""
        if self.variant == "origin":
            # Puts landing in my destination dataset.
            return sum(
                1
                for tr in self.plan.recvs_for(self.dst_rank)
                if not (self.is_source and tr.src == self.src_rank)
            )
        # Gets served from my source dataset.
        return sum(
            1
            for tr in self.plan.sends_for(self.src_rank)
            if not (self.is_target and tr.dst == self.dst_rank)
        )

    @property
    def _exposes(self) -> bool:
        """Does my dataset sit behind the window for the other side?"""
        if self.variant == "origin":
            return self.is_target
        return self.is_source

    # ------------------------------------------------------------ lifecycle
    def start(self):
        """Create the window (collective), open the lock epochs, and issue
        every one-sided operation of my schedule."""
        if self._started:
            raise RuntimeError("session already started")
        self._started = True
        self._mark_started()
        exposure = None
        if self._exposes:
            staged = None
            if self.variant == "target":
                # Pre-pack every chunk the targets will get from me — the
                # plan predicts the full request schedule, so one batched
                # store pass replaces a per-get extract.
                staged = {
                    (tr.lo, tr.hi): (chunk[2], chunk[1])
                    for tr, chunk in zip(*self._precomputed_sends())
                    if chunk is not None
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

        if self._exposes:
            self._notify_event = self._win.notification_event(
                self.ctx.gid, threshold=self._expected_notifications()
            )

        if self.is_source and self.is_target:
            yield from self._do_local_copy()

        if not self._drives:
            return

        schedule = list(self._schedule())

        # Open one shared epoch per distinct peer, concurrently: the lock
        # requests overlap their control-message round trips.
        t0 = self.ctx.now
        peers = sorted({peer for peer, _lo, _hi in schedule})
        grants = []
        for peer in peers:
            ev = yield from self.ctx.win_ilock(self._win, peer)
            grants.append(ev)
        if grants:
            yield from self.ctx._polling_block(AllOf(grants))
            self._locked = list(peers)
        self._emit_phase_span("lock", t0)

        t0 = self.ctx.now
        if self.variant == "origin":
            # Payloads and wire sizes for the whole put schedule from one
            # store pass; ``_schedule`` iterates the plan's send order minus
            # the self-chunk, exactly the non-None chunks of
            # ``_precomputed_sends`` in order.
            chunks = [c for c in self._precomputed_sends()[1] if c is not None]
            for (dst, lo, hi), (_sizes, nbytes, payloads) in zip(schedule, chunks):
                self._emit_transfer("put", nbytes)
                ev = yield from self.ctx.win_put(
                    self._win, dst, (lo, hi, payloads),
                    nbytes=nbytes, label=f"{self.label}:put",
                )
                self._op_events.append(ev)
            self._emit_phase_span("put", t0)
        else:
            for src, lo, hi in schedule:
                ev = yield from self.ctx.win_iget(
                    self._win, src, lo, hi - lo,
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
