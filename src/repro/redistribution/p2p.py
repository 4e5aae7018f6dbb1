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

    def start(self):
        """Walk my program: targets post their tag-77 Irecvs, sources fire
        their Isend pairs, with the memcpy in the self-chunk's place."""
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
        # Sizes and payloads for the whole send schedule come from one pass
        # over the stores, consumed in program order.
        packed = iter(self._pack([
            (op["lo"], op["hi"]) for op in self.program
            if op["op"] == "isend" and op["tag"] == VALUES_TAG
        ]))
        for op in self.program:
            kind, peer = op["op"], op.get("peer")
            if kind == "memcpy":
                yield from self._memcpy(op)
            elif kind == "irecv" and op["tag"] == SIZES_TAG:
                req = yield from self.ctx.irecv(
                    source=peer, tag=SIZES_TAG, comm=self.comm
                )
                self._size_reqs[peer] = req
                self._num_rcv += 1
            elif kind == "irecv":
                # Posted once the sizes land (:meth:`_handle_completed_size`).
                self._recv_ranges[peer] = (op["lo"], op["hi"])
            elif op["tag"] == SIZES_TAG:
                sizes, total, payload = next(packed)
                self._emit_transfer("values", total)
                sreq = yield from self.ctx.isend(
                    sizes, peer, tag=SIZES_TAG, comm=self.comm,
                    label=f"{self.label}:sizes",
                )
            else:
                vreq = yield from self.ctx.isend(
                    payload, peer, tag=VALUES_TAG, comm=self.comm,
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
