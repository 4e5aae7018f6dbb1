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

from .plan import RedistributionPlan
from .stores import Dataset

__all__ = [
    "RedistributionSession",
    "SIZES_TAG",
    "VALUES_TAG",
    "RMA_VARIANTS",
    "is_memcpy",
    "lower",
]

#: the paper's Algorithm 1 tags.
SIZES_TAG = 77
VALUES_TAG = 88

#: RMA data-movement directions: sources put (origin) or targets get (target).
RMA_VARIANTS = ("origin", "target")


def is_memcpy(peer: int, held: Optional[int]) -> bool:
    """The memcpy-vs-wire decision for one chunk, made here for every
    consumer: :func:`lower` (so the sessions and the static verifier) and
    the cost models of :mod:`repro.analysis.models`.

    ``peer`` is the chunk's far end (a target index on a send, a source
    index on a receive); ``held`` is this process's own index on that side,
    or None when it holds one role only.  The chunk never leaves the
    process — Algorithm 1's ``memcpy`` branch — exactly when the two
    coincide, which only a Merge rank can arrange.  Baseline's groups are
    disjoint, so even an index-equal chunk crosses the wire.
    """
    return peer == held


def _chunks(prog) -> list[tuple[int, int, int]]:
    """``(peer, lo, hi)`` triples of a compiled plan program, in order."""
    return list(zip(prog.peers.tolist(), prog.los.tolist(), prog.his.tolist()))


def lower(
    plan: RedistributionPlan,
    method: str,
    src_rank: Optional[int] = None,
    dst_rank: Optional[int] = None,
    variant: str = "origin",
) -> list[dict]:
    """One rank's Stage-3 program: the ops its session issues, in order.

    A pure function of ``(plan, method, roles, variant)``, read from the
    compiled plan programs (:meth:`RedistributionPlan.compiled_sends` /
    :meth:`~RedistributionPlan.compiled_recvs`).  The sessions walk it and
    :func:`repro.sanitize.static_check.elaborate` checks it, so the verifier
    sees exactly what ships.  ``method`` is ``"p2p"``, ``"col"`` or
    ``"rma"``; ``variant`` picks the RMA direction and is validated here.

    Each op is a dict; ``peer`` is a role index on the ``side`` group
    (``"dst"``: targets, ``"src"``: sources) and chunk-bearing ops carry
    their rows ``[lo, hi)``:

    * P2P (Algorithm 1): per incoming chunk an ``irecv`` of tag 77 and one
      of tag 88 with ``after_tag`` (posted once the sizes landed), then per
      outgoing chunk an ``isend`` pair of tags 77/88 — or a ``memcpy`` in
      the self-chunk's place;
    * COL (Algorithm 2): the ``memcpy``, the size ``alltoall`` and the value
      ``alltoallv`` with ``send_to`` (target index -> rows), ``recv_from``
      (source indices) and ``recv_ranges`` (source index -> rows);
    * RMA: the collective ``win_create`` (``drives``: whether this rank
      issues the one-sided ops), the ``memcpy``, shared ``lock`` epochs
      over the sorted peer set opened concurrently, one ``put`` (origin) or
      ``get`` (target) per driven chunk, the ``unlock`` per peer and, on the
      exposing side, ``notify_wait`` with the ``threshold`` of ops that land
      at or are served from this rank and those ``chunks``.
    """
    if variant not in RMA_VARIANTS:
        raise ValueError(
            f"unknown RMA variant {variant!r}; "
            f"valid choices: {', '.join(RMA_VARIANTS)}"
        )
    sends = [] if src_rank is None else _chunks(plan.compiled_sends(src_rank))
    recvs = [] if dst_rank is None else _chunks(plan.compiled_recvs(dst_rank))
    wire_recvs = [c for c in recvs if not is_memcpy(c[0], src_rank)]
    if method == "p2p":
        ops: list[dict] = []
        for peer, lo, hi in wire_recvs:
            ops.append({"op": "irecv", "peer": peer, "side": "src",
                        "tag": SIZES_TAG})
            ops.append({"op": "irecv", "peer": peer, "side": "src",
                        "tag": VALUES_TAG, "after_tag": SIZES_TAG,
                        "lo": lo, "hi": hi})
        for peer, lo, hi in sends:
            if is_memcpy(peer, dst_rank):
                ops.append({"op": "memcpy", "lo": lo, "hi": hi})
                continue
            ops.append({"op": "isend", "peer": peer, "side": "dst",
                        "tag": SIZES_TAG})
            ops.append({"op": "isend", "peer": peer, "side": "dst",
                        "tag": VALUES_TAG, "lo": lo, "hi": hi})
        return ops

    ops = [{"op": "memcpy", "lo": lo, "hi": hi}
           for peer, lo, hi in sends if is_memcpy(peer, dst_rank)]
    wire_sends = [c for c in sends if not is_memcpy(c[0], dst_rank)]
    if method == "col":
        return ops + [
            {"op": "alltoall"},
            {"op": "alltoallv",
             "send_to": {peer: (lo, hi) for peer, lo, hi in wire_sends},
             "recv_from": [peer for peer, _lo, _hi in wire_recvs],
             "recv_ranges": {peer: (lo, hi) for peer, lo, hi in wire_recvs}},
        ]
    if method != "rma":
        raise ValueError(
            f"unknown redistribution method {method!r}; "
            f"valid choices: p2p, col, rma"
        )
    # The drives/exposes split: origin-driven sources put into the targets'
    # exposed datasets; target-driven targets get from the sources'.
    if variant == "origin":
        driver, exposer, side, kind = src_rank, dst_rank, "dst", "put"
        driven, landing = wire_sends, wire_recvs
    else:
        driver, exposer, side, kind = dst_rank, src_rank, "src", "get"
        driven, landing = wire_recvs, wire_sends
    peers = sorted({peer for peer, _lo, _hi in driven})
    ops = [{"op": "win_create", "drives": driver is not None}, *ops]
    ops += [{"op": "lock", "peer": peer, "side": side, "mode": "shared",
             "concurrent": True, "order": order}
            for order, peer in enumerate(peers)]
    ops += [{"op": kind, "peer": peer, "side": side, "lo": lo, "hi": hi}
            for peer, lo, hi in driven]
    ops += [{"op": "unlock", "peer": peer, "side": side} for peer in peers]
    if exposer is not None:
        ops.append({"op": "notify_wait", "threshold": len(landing),
                    "chunks": [(lo, hi) for _peer, lo, hi in landing]})
    return ops


class RedistributionSession:
    """Base class; see module docstring for the driving protocol."""

    #: short method tag used in metric labels ("p2p" | "col" | "rma").
    method_name = "base"
    #: RMA data-movement direction; the two-sided methods have none.
    variant = "origin"

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
        #: my ops, in issue order (see :func:`lower`).
        self.program = lower(plan, self.method_name, src_rank, dst_rank,
                             self.variant)

    # ------------------------------------------------------- observability
    # The world's observers (repro.obs.instrument.Observer) see transfers,
    # phase ends and test() calls; with none attached each is a no-op loop.
    def _emit_transfer(self, phase: str, nbytes: float) -> None:
        for o in self.ctx.world.observers:
            o.on_redist_transfer(self, phase, nbytes)

    def _emit_phase_span(self, phase: str, t0: float) -> None:
        for o in self.ctx.world.observers:
            o.on_redist_phase(self, phase, t0)

    def _emit_test(self, done: bool) -> None:
        for o in self.ctx.world.observers:
            o.on_redist_test(self, done)

    def _mark_started(self) -> None:
        if self._t_started is None:
            self._t_started = self.ctx.now
            # Cooperative fault hook: 'redist'-anchored fault events fire
            # relative to the first session that starts moving data.
            fi = self.ctx.world.fault_injector
            if fi is not None:
                fi.notify_redist_started(self.ctx.now)

    def _mark_finished(self) -> None:
        if self._t_started is not None:
            self._emit_phase_span("session", self._t_started)
            self._t_started = None

    # ------------------------------------------------------------- helpers
    def _memcpy(self, op: dict):
        """The ``memcpy`` branch: move my overlap ``[lo, hi)`` without MPI,
        paying memory-bandwidth time."""
        lo, hi = op["lo"], op["hi"]
        payloads = self.src_dataset.extract(lo, hi, self.names)
        nbytes = self.src_dataset.range_nbytes(lo, hi, self.names)
        self._emit_transfer("memcpy", nbytes)
        observers = self.ctx.world.observers
        for o in observers:
            o.on_memcpy_begin(self, lo, hi)
        cost = nbytes / self.ctx.machine.memory_channel.bandwidth
        if cost > 0:
            yield from self.ctx.compute(cost)
        for o in observers:
            o.on_memcpy_end(self, lo, hi)
        self.dst_dataset.insert(lo, hi, payloads, self.names)

    def _memcpys(self):
        """Every ``memcpy`` op of my program (COL and RMA run them up front)."""
        for op in self.program:
            if op["op"] == "memcpy":
                yield from self._memcpy(op)

    def _pack(self, chunks: list) -> list:
        """``(sizes, total, payload)`` per outgoing ``(lo, hi)`` chunk, from
        one batched pass over the source stores: ``sizes`` the per-field
        wire-byte dict, ``total`` its sum, ``payload`` the extracted field
        dict.  Extraction yields nothing to the simulator, so packing a
        whole schedule up front cannot move any event time.
        """
        if not chunks:
            return []
        los, his = zip(*chunks)
        per_name = {
            n: self.src_dataset.stores[n].range_nbytes_batch(los, his)
            for n in self.names
        }
        payloads = self.src_dataset.extract_batch(los, his, self.names)
        packed = []
        for j, payload in enumerate(payloads):
            sizes = {n: int(per_name[n][j]) for n in self.names}
            packed.append((sizes, sum(sizes.values()), payload))
        return packed

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
