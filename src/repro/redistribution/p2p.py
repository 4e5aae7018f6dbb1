"""Algorithm 1: data redistribution with point-to-point MPI functions.

Faithful reimplementation of the paper's Algorithm 1:

* sources loop over their targets, sending a *sizes* message (tag 77) and a
  *values* message (tag 88) with ``MPI_Isend``; a rank that is both source
  and target replaces its self-pair with a ``memcpy``;
* targets post an ``MPI_Irecv`` (tag 77) per source, then run a
  ``MPI_Waitany`` state machine: a completed size message creates the
  internal structures and posts the matching tag-88 receive; a completed
  value message decrements ``numRcv``;
* sources conclude with ``MPI_Waitall`` (synchronous) or ``MPI_Testall``
  (Algorithm 3) on all their send requests.

Non-blocking functions are used throughout, so the Merge case — where the
source and target groups intersect — cannot deadlock (§3.1).
"""

from __future__ import annotations

from .session import SIZES_TAG, VALUES_TAG, RedistributionSession

__all__ = ["P2PRedistribution"]


class P2PRedistribution(RedistributionSession):
    """One rank's Algorithm-1 state machine."""

    method_name = "p2p"

    # ------------------------------------------------------------ static view
    @classmethod
    def symbolic_schedule(cls, plan, src_rank=None, dst_rank=None) -> list[dict]:
        """Elaborate one rank's Algorithm-1 ops as plain data, for the static
        verifier (:mod:`repro.sanitize.static_check`).

        Pure function of ``(plan, roles)`` — no simulator, comm or
        dataset required.  Must mirror :meth:`start`/:meth:`finish` exactly:
        every isend/irecv those methods would issue appears here as one op
        dict (``peer`` is a role index on the ``side`` group).  The tag-88
        receives are posted only after the matching tag-77 message lands,
        which ``after_tag`` records for the dependency check.
        """
        ops: list[dict] = []
        if dst_rank is not None:
            for tr in plan.recvs_for(dst_rank):
                if src_rank is not None and tr.src == src_rank:
                    continue  # self-chunk arrives by memcpy (source loop)
                ops.append({"op": "irecv", "peer": tr.src, "side": "src",
                            "tag": SIZES_TAG})
                ops.append({"op": "irecv", "peer": tr.src, "side": "src",
                            "tag": VALUES_TAG, "after_tag": SIZES_TAG})
        if src_rank is not None:
            for tr in plan.sends_for(src_rank):
                if dst_rank is not None and tr.dst == dst_rank:
                    ops.append({"op": "memcpy", "rows": tr.n_rows})
                    continue
                ops.append({"op": "isend", "peer": tr.dst, "side": "dst",
                            "tag": SIZES_TAG, "rows": 0})
                ops.append({"op": "isend", "peer": tr.dst, "side": "dst",
                            "tag": VALUES_TAG, "rows": tr.n_rows})
        return ops

    def start(self):
        """Sources: fire all Isends.  Targets: post all tag-77 Irecvs."""
        if self._started:
            raise RuntimeError("session already started")
        self._started = True
        self._mark_started()
        self._send_reqs = []
        self._size_reqs = {}   # src -> pending tag-77 request
        self._value_reqs = {}  # src -> pending tag-88 request
        self._recv_ranges = {}
        self._num_rcv = 0
        self._sizes_seen = {}

        if self.is_target:
            for tr in self.plan.recvs_for(self.dst_rank):
                self._recv_ranges[tr.src] = (tr.lo, tr.hi)
                if self.is_source and tr.src == self.src_rank:
                    continue  # self-chunk arrives by memcpy
                req = yield from self.ctx.irecv(
                    source=tr.src, tag=SIZES_TAG, comm=self.comm
                )
                self._size_reqs[tr.src] = req
                self._num_rcv += 1

        if self.is_source:
            # Sizes and payloads for the whole schedule come from one pass
            # over the stores; the memcpy keeps its position in the
            # per-transfer message sequence.
            for tr, chunk in zip(*self._precomputed_sends()):
                if chunk is None:
                    yield from self._do_local_copy()
                    continue
                sizes, total, payload = chunk
                self._emit_transfer("values", total)
                sreq = yield from self.ctx.isend(
                    sizes, tr.dst, tag=SIZES_TAG, comm=self.comm,
                    label=f"{self.label}:sizes",
                )
                vreq = yield from self.ctx.isend(
                    payload, tr.dst, tag=VALUES_TAG, comm=self.comm,
                    nbytes=total, label=f"{self.label}:values",
                )
                self._send_reqs.extend([sreq, vreq])

    # ----------------------------------------------------------- completion
    def _handle_completed_size(self, src: int, req):
        """Tag-77 arrival: 'create internal structures' and post tag-88."""
        self._sizes_seen[src] = req.data
        vreq = yield from self.ctx.irecv(
            source=src, tag=VALUES_TAG, comm=self.comm
        )
        self._value_reqs[src] = vreq

    def _handle_completed_value(self, src: int, req):
        lo, hi = self._recv_ranges[src]
        self.dst_dataset.insert(lo, hi, req.data, self.names)
        self._num_rcv -= 1

    def finish(self):
        """Blocking completion: Waitany loop for targets, Waitall for sources."""
        if not self._started:
            raise RuntimeError("finish() before start()")
        # Target state machine (Algorithm 1's while numRcv > 0 loop).  The
        # request dicts only ever hold unhandled requests (entries are
        # deleted as they are processed), so the Waitany set is simply their
        # union; Waitany returns immediately for already-completed entries.
        while self._num_rcv > 0:
            srcs, reqs, kinds = [], [], []
            for src, req in self._size_reqs.items():
                srcs.append(src), reqs.append(req), kinds.append(True)
            for src, req in self._value_reqs.items():
                srcs.append(src), reqs.append(req), kinds.append(False)
            idx, req = yield from self.ctx.waitany(reqs)
            src, is_size = srcs[idx], kinds[idx]
            if is_size:
                del self._size_reqs[src]
                yield from self._handle_completed_size(src, req)
            else:
                del self._value_reqs[src]
                self._handle_completed_value(src, req)
        # Source side: "verify that the operations have been completed".
        if self._send_reqs:
            yield from self.ctx.waitall(self._send_reqs)
        self._finished = True
        self._mark_finished()

    def test(self):
        """Algorithm 3's ``Test_Redistribution``: one progress window, then
        drain whatever completed; never blocks."""
        if not self._started:
            raise RuntimeError("test() before start()")
        if self._finished:
            return True
        yield from self.ctx.progress_tick()
        for src in list(self._size_reqs):
            req = self._size_reqs[src]
            if req.completed:
                del self._size_reqs[src]
                yield from self._handle_completed_size(src, req)
        for src in list(self._value_reqs):
            req = self._value_reqs[src]
            if req.completed:
                del self._value_reqs[src]
                self._handle_completed_value(src, req)
        if self._num_rcv == 0 and all(r.completed for r in self._send_reqs):
            self._finished = True
            self._mark_finished()
        self._emit_test(self._finished)
        return self._finished
