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

    def _emit_send_bytes(self, nbytes_map: dict) -> None:
        for nbytes in nbytes_map.values():
            self._emit_transfer("values", nbytes)

    # ------------------------------------------------------------- build args
    def _pack_values(self) -> None:
        """Pack my outgoing chunks (``send_to`` of my program's Alltoallv)."""
        self._values_op = self.program[-1]
        send_to = self._values_op["send_to"]
        self._packed = dict(zip(send_to, self._pack(list(send_to.values()))))

    def _sizes_sendlist(self) -> list[int]:
        """Per-peer byte counts for the size Alltoall (0 where no chunk)."""
        sizes = [0] * self.comm.remote_size
        for dst, (_sizes, total, _payload) in self._packed.items():
            sizes[dst] = total
        return sizes

    def _values_args(self):
        """(send_map, nbytes_map, recv_from) for the value Alltoallv."""
        send_map = {dst: chunk[2] for dst, chunk in self._packed.items()}
        nbytes_map = {dst: chunk[1] for dst, chunk in self._packed.items()}
        return send_map, nbytes_map, self._values_op["recv_from"]

    def _insert_received(self, results: dict) -> None:
        ranges = self._values_op["recv_ranges"]
        for src in self._values_op["recv_from"]:
            lo, hi = ranges[src]
            self.dst_dataset.insert(lo, hi, results.get(src), self.names)

    # -------------------------------------------------------------- blocking
    def run_blocking(self):
        """Synchronous strategy (S): Alltoall sizes, then Alltoallv values,
        with MPICH's pairwise schedule for the blocking Alltoallv."""
        self._started = True
        self._mark_started()
        self._pack_values()
        yield from self._memcpys()
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
        self._pack_values()
        yield from self._memcpys()
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
