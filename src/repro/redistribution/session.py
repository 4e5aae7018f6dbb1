"""Shared structure of one rank's participation in a Stage-3 redistribution.

A *session* is created by the malleability manager on every participating
rank with that rank's roles:

* ``src_rank`` — my index among the NS sources (None if I am not a source);
* ``dst_rank`` — my index among the NT targets (None if I am not a target).

In the Baseline method the two roles never coincide (disjoint groups over an
inter-communicator); in the Merge method ranks ``< min(NS, NT)`` hold both
(the ``memcpy`` branch of Algorithm 1).

Sessions expose two driving styles:

* ``run_blocking()`` — the synchronous strategy (S): complete everything;
* ``start()`` then repeated ``test()`` — the non-blocking strategy (A),
  Algorithm 3's ``Start data redistribution`` / ``Test_Redistribution``,
  closed by ``finish()`` once no iteration is left to test from;
  the thread strategy (T) simply runs ``run_blocking()`` inside an
  auxiliary thread.
"""

from __future__ import annotations

from typing import Optional

from .plan import RedistributionPlan, Transfer
from .stores import Dataset

__all__ = ["RedistributionSession", "SIZES_TAG", "VALUES_TAG"]

#: the paper's Algorithm 1 tags.
SIZES_TAG = 77
VALUES_TAG = 88


class RedistributionSession:
    """Base class; see module docstring for the driving protocol."""

    #: short method tag used in metric labels ("p2p" | "col" | "rma").
    method_name = "base"

    def __init__(
        self,
        ctx,
        comm,
        plan: RedistributionPlan,
        names: list[str],
        src_rank: Optional[int] = None,
        dst_rank: Optional[int] = None,
        src_dataset: Optional[Dataset] = None,
        dst_dataset: Optional[Dataset] = None,
        label: str = "redist",
    ):
        if src_rank is None and dst_rank is None:
            raise ValueError("a session needs at least one role")
        if src_rank is not None and src_dataset is None:
            raise ValueError("source role needs the source dataset")
        if dst_rank is not None and dst_dataset is None:
            raise ValueError("target role needs the (empty) target dataset")
        if not names:
            raise ValueError("nothing to redistribute: empty field list")
        self.ctx = ctx
        self.comm = comm
        self.plan = plan
        self.names = list(names)
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        self.src_dataset = src_dataset
        self.dst_dataset = dst_dataset
        self.label = label
        self._started = False
        self._finished = False
        self._t_started: Optional[float] = None
        #: cache of :meth:`_precomputed_sends`.
        self._pre_sends: Optional[tuple] = None

    # ------------------------------------------------------- observability
    # Cooperative emission (see repro.obs): when no MetricsProbe is
    # attached, ``world.metrics`` is None and each helper is one pointer
    # comparison; sessions never require a registry to run.
    def _metrics(self):
        return getattr(self.ctx.world, "metrics", None)

    def _emit_transfer(self, phase: str, nbytes: float) -> None:
        m = self._metrics()
        if m is not None:
            m.counter(
                "redist.transfer_bytes", method=self.method_name, phase=phase
            ).inc(nbytes)
            m.counter(
                "redist.transfers", method=self.method_name, phase=phase
            ).inc()

    def _emit_phase_span(self, phase: str, t0: float) -> None:
        m = self._metrics()
        if m is not None:
            m.timer(
                "redist.phase_seconds", method=self.method_name, phase=phase
            ).record(t0, self.ctx.now, label=f"{self.label}:{phase}")

    def _emit_test(self, done: bool) -> None:
        """Async progress timeline: one gauge sample per ``test()`` call."""
        m = self._metrics()
        if m is not None:
            m.counter("redist.test_calls", method=self.method_name).inc()
            m.gauge("redist.session_done", label=self.label).set(
                1.0 if done else 0.0, self.ctx.now
            )

    def _mark_started(self) -> None:
        if self._t_started is None:
            self._t_started = self.ctx.now
            # Cooperative fault hook: 'redist'-anchored fault events fire
            # relative to the first session that starts moving data.
            fi = getattr(self.ctx.world, "fault_injector", None)
            if fi is not None:
                fi.notify_redist_started(self.ctx.now)

    def _mark_finished(self) -> None:
        if self._t_started is not None:
            self._emit_phase_span("session", self._t_started)
            self._t_started = None

    # ------------------------------------------------------------- helpers
    @property
    def is_source(self) -> bool:
        return self.src_rank is not None

    @property
    def is_target(self) -> bool:
        return self.dst_rank is not None

    def _self_transfer(self) -> Optional[Transfer]:
        """The chunk I keep locally when I hold both roles (Merge)."""
        if not (self.is_source and self.is_target):
            return None
        for tr in self.plan.sends_for(self.src_rank):
            if tr.dst == self.dst_rank:
                return tr
        return None

    def _do_local_copy(self):
        """The ``memcpy`` branch: move my overlap without MPI, paying
        memory-bandwidth time."""
        tr = self._self_transfer()
        if tr is None:
            return
        payloads = self.src_dataset.extract(tr.lo, tr.hi, self.names)
        nbytes = self.src_dataset.range_nbytes(tr.lo, tr.hi, self.names)
        self._emit_transfer("memcpy", nbytes)
        san = self.ctx.world.sanitizer
        token = None
        if san is not None:
            token = san.on_memcpy_begin(
                self.ctx, self.src_dataset, tr.lo, tr.hi, self.names
            )
        cost = nbytes / self.ctx.machine.memory_channel.bandwidth
        if cost > 0:
            yield from self.ctx.compute(cost)
        if san is not None:
            san.on_memcpy_end(token)
        self.dst_dataset.insert(tr.lo, tr.hi, payloads, self.names)

    def _precomputed_sends(self) -> tuple:
        """My whole send schedule (source role) from one pass over the stores.

        Lowers :meth:`RedistributionPlan.compiled_sends` through the batched
        store interface and returns ``(transfers, chunks)`` where
        ``chunks[i]`` is ``(sizes, total, payload)`` for ``transfers[i]`` —
        ``sizes`` the per-field byte dict, ``total`` its sum, ``payload`` the
        extracted field dict — or ``None`` for the memcpy self-chunk, which
        :meth:`_do_local_copy` handles itself.

        Extraction yields nothing to the simulator, so doing it up front
        cannot move any event time.  The result is cached: a session's
        stores are immutable while it runs, and every consumer (sizes list,
        values map, put loop) shares one extraction.
        """
        pre = self._pre_sends
        if pre is None:
            prog = self.plan.compiled_sends(self.src_rank)
            transfers = prog.transfers
            keep = [
                i for i, tr in enumerate(transfers)
                if not (self.is_target and tr.dst == self.dst_rank)
            ]
            chunks: list = [None] * len(transfers)
            if keep:
                los, his = prog.los[keep], prog.his[keep]
                per_name = {
                    n: self.src_dataset.stores[n].range_nbytes_batch(los, his)
                    for n in self.names
                }
                payloads = self.src_dataset.extract_batch(los, his, self.names)
                for j, i in enumerate(keep):
                    sizes = {n: int(per_name[n][j]) for n in self.names}
                    chunks[i] = (sizes, sum(sizes.values()), payloads[j])
            pre = self._pre_sends = (transfers, chunks)
        return pre

    # ----------------------------------------------------------- interface
    def run_blocking(self):
        """Synchronous strategy: complete the whole redistribution."""
        yield from self.start()
        yield from self.finish()

    def start(self):
        """Post everything that can be posted without blocking."""
        raise NotImplementedError
        yield  # pragma: no cover

    def test(self):
        """Advance (one progress window) and return completion status."""
        raise NotImplementedError
        yield  # pragma: no cover

    def finish(self):
        """Block until the redistribution completes."""
        raise NotImplementedError
        yield  # pragma: no cover

    @property
    def finished(self) -> bool:
        return self._finished
