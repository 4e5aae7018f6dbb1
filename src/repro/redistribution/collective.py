"""Algorithm 2: data redistribution with collective MPI functions.

Faithful reimplementation of the paper's Algorithm 2:

* an ``MPI_Alltoall`` moves the per-pair byte counts from sources to
  targets ("Send/Recv sizes");
* targets create their internal structures;
* an ``MPI_Alltoallv`` moves the values.

The blocking variant inherits the *serialized pairwise exchange* schedule
from :func:`repro.smpi.collectives.alltoallv_pairwise`, which on an
inter-communicator (Baseline method) is the slow path the paper calls out
in §4.4.2.  The asynchronous variant (strategy A) posts
``MPI_Ialltoall`` / ``MPI_Ialltoallv`` and advances through ``Testall``
windows — every rank must still *enter* both collectives, so targets wait
on them immediately while sources keep iterating (§3.2).
"""

from __future__ import annotations

from .session import RedistributionSession

__all__ = ["ColRedistribution"]


class ColRedistribution(RedistributionSession):
    """One rank's Algorithm-2 participation."""

    method_name = "col"

    # ------------------------------------------------------------ static view
    @classmethod
    def symbolic_schedule(cls, plan, src_rank=None, dst_rank=None) -> list[dict]:
        """Elaborate one rank's Algorithm-2 ops as plain data, for the static
        verifier (:mod:`repro.sanitize.static_check`).

        Mirrors :meth:`run_blocking`/:meth:`start`: every member enters the
        size Alltoall and the value Alltoallv, even with nothing to move;
        ``send_to`` keys are target indices, the ``recv_from`` entries
        source indices, exactly like :meth:`_values_args`.
        """
        ops: list[dict] = []
        self_rows = None
        send_to: dict[int, int] = {}
        recv_from: list[int] = []
        if src_rank is not None:
            for tr in plan.sends_for(src_rank):
                if dst_rank is not None and tr.dst == dst_rank:
                    self_rows = tr.n_rows
                    continue
                send_to[tr.dst] = tr.n_rows
        if dst_rank is not None:
            for tr in plan.recvs_for(dst_rank):
                if src_rank is not None and tr.src == src_rank:
                    continue
                recv_from.append(tr.src)
        if self_rows is not None:
            ops.append({"op": "memcpy", "rows": self_rows})
        ops.append({"op": "alltoall"})
        ops.append({"op": "alltoallv", "send_to": send_to,
                    "recv_from": recv_from})
        return ops

    def _emit_send_bytes(self, nbytes_map: dict) -> None:
        for nbytes in nbytes_map.values():
            self._emit_transfer("values", nbytes)

    # ------------------------------------------------------------- build args
    def _sizes_sendlist(self) -> list[int]:
        """Per-peer byte counts for the size Alltoall (0 where no chunk)."""
        sizes = [0] * self.comm.remote_size
        if self.is_source:
            for tr, chunk in zip(*self._precomputed_sends()):
                if chunk is not None:  # None: self-chunk handled locally
                    sizes[tr.dst] = chunk[1]
        return sizes

    def _values_args(self):
        """(send_map, nbytes_map, recv_from) for the value Alltoallv."""
        send_map, nbytes_map, recv_from = {}, {}, []
        if self.is_source:
            for tr, chunk in zip(*self._precomputed_sends()):
                if chunk is None:
                    continue
                send_map[tr.dst] = chunk[2]
                nbytes_map[tr.dst] = chunk[1]
        if self.is_target:
            for tr in self.plan.recvs_for(self.dst_rank):
                if self.is_source and tr.src == self.src_rank:
                    continue
                recv_from.append(tr.src)
        return send_map, nbytes_map, recv_from

    def _insert_received(self, results: dict) -> None:
        for tr in self.plan.recvs_for(self.dst_rank):
            if self.is_source and tr.src == self.src_rank:
                continue
            self.dst_dataset.insert(tr.lo, tr.hi, results.get(tr.src), self.names)

    # -------------------------------------------------------------- blocking
    def run_blocking(self):
        """Synchronous strategy (S): Alltoall sizes, then Alltoallv values,
        with MPICH's pairwise schedule for the blocking Alltoallv."""
        self._started = True
        self._mark_started()
        yield from self._do_local_copy()
        t0 = self.ctx.now
        self.sizes_received = yield from self.ctx.alltoall(
            self._sizes_sendlist(), comm=self.comm
        )
        self._emit_phase_span("sizes", t0)
        # "Create internal structures" happens lazily inside the stores.
        send_map, nbytes_map, recv_from = self._values_args()
        self._emit_send_bytes(nbytes_map)
        t0 = self.ctx.now
        results = yield from self.ctx.alltoallv(
            send_map,
            recv_from=recv_from,
            comm=self.comm,
            nbytes_map=nbytes_map,
            label=f"{self.label}:values",
        )
        self._emit_phase_span("values", t0)
        if self.is_target:
            self._insert_received(results)
        self._finished = True
        self._mark_finished()

    # ----------------------------------------------------------------- async
    def start(self):
        """Strategy A: post the non-blocking size Alltoall."""
        if self._started:
            raise RuntimeError("session already started")
        self._started = True
        self._mark_started()
        yield from self._do_local_copy()
        self._stage = "sizes"
        self._t_stage = self.ctx.now
        self._sizes_req, self.sizes_received = yield from self.ctx.ialltoall(
            self._sizes_sendlist(), comm=self.comm
        )
        self._values_req = None
        self._values_results = None

    def _advance(self):
        """Move through the sizes -> values -> done pipeline, without blocking."""
        if self._stage == "sizes" and self._sizes_req.completed:
            self._emit_phase_span("sizes", self._t_stage)
            send_map, nbytes_map, recv_from = self._values_args()
            self._emit_send_bytes(nbytes_map)
            self._t_stage = self.ctx.now
            self._values_req, self._values_results = yield from self.ctx.ialltoallv(
                send_map,
                recv_from=recv_from,
                comm=self.comm,
                nbytes_map=nbytes_map,
                label=f"{self.label}:values",
            )
            self._stage = "values"
        if self._stage == "values" and self._values_req.completed:
            self._emit_phase_span("values", self._t_stage)
            if self.is_target:
                self._insert_received(self._values_results)
            self._stage = "done"
            self._finished = True
            self._mark_finished()

    def test(self):
        """``Test_Redistribution``: one progress window + pipeline advance."""
        if not self._started:
            raise RuntimeError("test() before start()")
        if self._finished:
            return True
        yield from self.ctx.progress_tick()
        yield from self._advance()
        self._emit_test(self._finished)
        return self._finished

    def finish(self):
        """Block until done (used by targets after posting the I-collectives,
        and by strategy S through ``run_blocking``)."""
        if not self._started:
            raise RuntimeError("finish() before start()")
        while not self._finished:
            if self._stage == "sizes":
                yield from self.ctx.waitall([self._sizes_req])
            elif self._stage == "values":
                yield from self.ctx.waitall([self._values_req])
            yield from self._advance()
