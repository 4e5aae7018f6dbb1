"""Runtime MPI-correctness sanitizer for the simulated stack.

Because the whole MPI library is simulated, every send, receive, request
and buffer access is visible in-process — so the checker real-MPI users
need MUST or ThreadSanitizer for can be built directly on the library's
own hooks.  :class:`Sanitizer` subscribes to one :class:`~repro.smpi.world.
MpiWorld`'s observers like :class:`repro.obs.MetricsProbe`
(:class:`repro.obs.instrument.Observer`):

* **observer hooks** — the smpi/redistribution layers report sends,
  receives, puts, lock epochs, blocking waits, self-copies and finalize
  to the world's ``observers`` tuple; a detached run pays one empty-tuple
  check per event and stays byte-identical.  Each posted receive carries
  its world's sanitizer as ``reader``, so ``req.data`` reads (SAN002)
  reach only the sanitizer of that world;
* **completion callbacks** — pending operations register a one-shot
  callback on their completion event, so races are checked exactly when
  the operation (locally) completes.

Detected hazards (see :data:`repro.sanitize.findings.SAN_RULES`):

======  ==============================================================
SAN001  origin buffer of a pending isend / win_put modified in flight
SAN002  ``req.data`` of a pending receive read before completion
SAN003  request still pending at rank finalize (request leak)
SAN004  arrived traffic never consumed by a matching receive
SAN005  operation issued on an aborted communicator
SAN006  inconsistent Alltoallv send/recv pairings across members
SAN007  self-``memcpy`` source range modified during the copy window
SAN008  simulator deadlock (wait-for-graph explanation)
SAN009  passive-target lock epoch still open at origin finalize
======  ==============================================================

For one-sided traffic the buffer-race rule is **epoch-aware**: every put
lies in a lock epoch and holds its origin-buffer fingerprint until the
epoch is flushed (``win_flush`` / ``win_unlock``) — the strict MPI reuse
rule — rather than only until the operation's own completion event.  The
simulation itself is forgiving (puts snapshot payloads at issue), so
these stay pure observations.

All checks are *observations*: the sanitizer never changes simulation
behaviour, it only records :class:`~repro.sanitize.findings.Finding`
objects.  ``flush_to(registry)`` exports them into an obs
:class:`~repro.obs.MetricsRegistry` as ``sanitizer_findings{rule=...}``
counters plus structured ``sanitizer_findings`` records.
"""

from __future__ import annotations

import zlib
from typing import Any, Optional

from ..obs.instrument import Observer
from .findings import Finding

__all__ = ["Sanitizer", "SanitizerError", "fingerprint_payload"]


class SanitizerError(RuntimeError):
    """Raised by :meth:`Sanitizer.assert_clean` when findings exist."""

    def __init__(self, findings: list[Finding]):
        self.findings = list(findings)
        lines = "\n".join(f.format() for f in findings)
        super().__init__(
            f"sanitizer recorded {len(findings)} finding(s):\n{lines}"
        )


# --------------------------------------------------------------- fingerprints
def fingerprint_payload(payload: Any) -> Optional[int]:
    """Cheap content fingerprint of a *mutable* payload, or ``None``.

    ``None`` means "not trackable / cannot race": immutable scalars,
    :class:`~repro.smpi.datatypes.Blob` timing tokens and opaque objects
    have no buffer an application could scribble over.  numpy arrays and
    scipy sparse blocks hash their raw bytes with crc32 (fast, and
    collisions only ever *hide* a race, never invent one).
    """
    if payload is None:
        return None
    # Blob and friends: declared wire size only, no real buffer.
    if getattr(payload, "__sim_nbytes__", None) is not None:
        return None
    if isinstance(payload, (int, float, complex, bool, str, bytes, frozenset)):
        return None
    nb = getattr(payload, "nbytes", None)
    if nb is not None and hasattr(payload, "tobytes"):  # ndarray / np scalar
        try:
            return zlib.crc32(payload.tobytes())
        except (TypeError, ValueError):  # object dtype etc.
            return None
    # scipy sparse: hash the three defining arrays.
    if hasattr(payload, "indptr") and hasattr(payload, "indices"):
        acc = zlib.crc32(payload.indptr.tobytes())
        acc = zlib.crc32(payload.indices.tobytes(), acc)
        return zlib.crc32(payload.data.tobytes(), acc)
    if isinstance(payload, (list, tuple)):
        acc = zlib.crc32(b"L")
        tracked = False
        for item in payload:
            fp = fingerprint_payload(item)
            if fp is not None:
                tracked = True
                acc = zlib.crc32(str(fp).encode(), acc)
        return acc if tracked else None
    if isinstance(payload, dict):
        acc = zlib.crc32(b"D")
        tracked = False
        for key in sorted(payload, key=repr):
            fp = fingerprint_payload(payload[key])
            if fp is not None:
                tracked = True
                acc = zlib.crc32(repr(key).encode(), acc)
                acc = zlib.crc32(str(fp).encode(), acc)
        return acc if tracked else None
    return None


class _OpenOp:
    """One pending tracked operation (send, recv or one-sided put)."""

    __slots__ = ("kind", "gid", "ctx", "tag", "peer", "payload", "fp", "t0")

    def __init__(self, kind, gid, ctx, tag, peer, payload, fp, t0):
        self.kind = kind
        self.gid = gid
        self.ctx = ctx
        self.tag = tag
        self.peer = peer
        self.payload = payload
        self.fp = fp
        self.t0 = t0


class Sanitizer(Observer):
    """Attachable MPI-correctness checker for one simulated world."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        #: open (pending) tracked ops keyed by an integer token.
        self._open: dict[int, _OpenOp] = {}
        self._next_token = 0
        #: gid -> (description, pending request tuple) while blocked.
        self._blocked: dict[int, tuple[str, tuple]] = {}
        #: (ctx_id, tag_base) -> {gid: (comm, rank, sends, recvs)}.
        self._a2av: dict[tuple[int, int], dict[int, tuple]] = {}
        #: finalized gids (suppresses duplicate finalize scans).
        self._finalized: set[int] = set()
        #: (win_id, origin_gid, target_gid) -> (ctx_id, lock-issue time) of
        #: every not-yet-unlocked passive-target epoch (SAN009 at finalize).
        self._epoch_open: dict[tuple[int, int, int], tuple[int, float]] = {}
        #: (win_id, origin_gid, target_gid) -> puts issued inside the open
        #: epoch; fingerprints are verified when the epoch is flushed.
        self._epoch_puts: dict[tuple[int, int, int], list[_OpenOp]] = {}
        #: session -> fingerprint and start time of its open self-copy.
        self._copies: dict = {}

    # ------------------------------------------------------------- lifecycle
    def attach(self, machine=None, world=None) -> "Sanitizer":
        """Start checking ``world`` (the sanitizer needs no machine hooks)."""
        super().attach(world=world)
        world.sim.diagnostics.append(self._deadlock_details)
        return self

    def detach(self) -> "Sanitizer":
        """Stop checking; run end-of-run consistency passes.

        Findings (and the obs export) survive detach, exactly like a
        metrics registry surviving ``MetricsProbe.detach``.
        """
        super().detach()
        self._check_incomplete_alltoallv()
        self.world.sim.diagnostics.remove(self._deadlock_details)
        return self

    # -------------------------------------------------------------- findings
    def _emit(self, rule: str, message: str, **kw) -> None:
        self.findings.append(Finding(rule=rule, message=message, **kw))

    def report(self) -> str:
        """Human-readable multi-line summary (deterministic order)."""
        if not self.findings:
            return "sanitizer: no findings"
        lines = [f"sanitizer: {len(self.findings)} finding(s)"]
        for f in sorted(self.findings, key=Finding.sort_key):
            lines.append("  " + f.format())
        return "\n".join(lines)

    def flush_to(self, registry) -> None:
        """Export findings into an obs registry: one
        ``sanitizer_findings{rule=...}`` counter increment and one
        structured record per finding, in deterministic order."""
        for f in sorted(self.findings, key=Finding.sort_key):
            registry.counter("sanitizer_findings", rule=f.rule).inc()
            registry.record("sanitizer_findings", f.to_dict())

    def assert_clean(self) -> None:
        if self.findings:
            raise SanitizerError(sorted(self.findings, key=Finding.sort_key))

    # --------------------------------------------------------- P2P tracking
    def _register(self, kind, gid, ctx, tag, peer, payload, done_event) -> None:
        fp = fingerprint_payload(payload)
        token = self._next_token
        self._next_token += 1
        self._open[token] = _OpenOp(
            kind, gid, ctx, tag, peer, payload if fp is not None else None,
            fp, self._now(),
        )

        def on_done(_ev) -> None:
            op = self._open.pop(token, None)
            if op is None:
                return
            if _ev.failed:
                return  # aborted by the failure layer: not a race
            if op.fp is not None and op.kind == "send":
                if fingerprint_payload(op.payload) != op.fp:
                    self._emit(
                        "SAN001",
                        f"{op.kind} buffer to peer gid={op.peer} modified "
                        f"while the operation was pending "
                        f"(posted at t={op.t0:.6f})",
                        rank=op.gid, ctx=op.ctx, tag=op.tag, t=self._now(),
                        detail={"peer": op.peer, "kind": op.kind},
                    )

        done_event.add_callback(on_done)

    def _now(self) -> float:
        return self.world.sim.now if self.world is not None else 0.0

    def _check_aborted(self, ctx, comm, what: str) -> None:
        if comm.ctx_id in self.world.aborted_ctxs:
            self._emit(
                "SAN005",
                f"{what} issued on aborted communicator {comm.name}",
                rank=ctx.gid, ctx=comm.ctx_id, t=self._now(),
            )

    def on_isend(self, ctx, comm, dest: int, tag: int, payload, req) -> None:
        """Hooked from :meth:`RankCtx.isend` just before injection."""
        self._check_aborted(ctx, comm, "isend")
        self._register(
            "send", ctx.gid, comm.ctx_id, tag, comm.peer_gid(dest),
            payload, req.done,
        )

    def on_irecv(self, ctx, comm, source: int, tag: int, req) -> None:
        """Hooked from :meth:`RankCtx.irecv` after posting."""
        self._check_aborted(ctx, comm, "irecv")
        req.reader = self
        peer = comm.peer_gid(source) if source >= 0 else None
        self._register("recv", ctx.gid, comm.ctx_id, tag, peer, None, req.done)

    def on_win_put(self, ctx, win, target_rank: int, payload, done) -> None:
        """Hooked from :meth:`RankCtx.win_put` once the flow is launched.

        Every put lies in a lock epoch, so the strict rule applies: the
        fingerprint is held until the epoch is flushed
        (:meth:`on_win_flush`)."""
        comm = win.comm
        self._check_aborted(ctx, comm, "win_put")
        dst_gid = win.peer_gid(ctx.gid, target_rank)
        fp = fingerprint_payload(payload)
        if fp is None:
            return
        key = (win.win_id, ctx.gid, dst_gid)
        self._epoch_puts.setdefault(key, []).append(
            _OpenOp("put", ctx.gid, comm.ctx_id, None, dst_gid,
                    payload, fp, self._now())
        )

    # ------------------------------------------------- passive-target epochs
    def on_win_lock(self, ctx, win, target_rank: int) -> None:
        """Hooked from :meth:`RankCtx.win_ilock` at lock-issue time."""
        comm = win.comm
        self._check_aborted(ctx, comm, "win_lock")
        dst_gid = win.peer_gid(ctx.gid, target_rank)
        self._epoch_open[(win.win_id, ctx.gid, dst_gid)] = (
            comm.ctx_id, self._now(),
        )

    def on_win_flush(self, ctx, win, target_rank: int) -> None:
        """Hooked after a flush wait: the epoch's put buffers become legal
        to reuse exactly now — verify none was touched while held
        (epoch-aware SAN001)."""
        win_id = win.win_id
        now = self._now()
        for op in self._epoch_puts.pop(
            (win_id, ctx.gid, win.peer_gid(ctx.gid, target_rank)), ()
        ):
            if fingerprint_payload(op.payload) != op.fp:
                self._emit(
                    "SAN001",
                    f"put buffer to peer gid={op.peer} modified inside "
                    f"a lock epoch before it was flushed "
                    f"(posted at t={op.t0:.6f})",
                    rank=op.gid, ctx=op.ctx, t=now,
                    detail={"peer": op.peer, "kind": "put",
                            "win": win_id, "epoch": True},
                )

    def on_win_unlock(self, ctx, win, target_rank: int) -> None:
        """Hooked from :meth:`RankCtx.win_unlock` after the closing flush."""
        dst_gid = win.peer_gid(ctx.gid, target_rank)
        self._epoch_open.pop((win.win_id, ctx.gid, dst_gid), None)
        self._epoch_puts.pop((win.win_id, ctx.gid, dst_gid), None)

    def on_data_read(self, req) -> None:
        """Hooked from the ``RecvRequest.data`` property (SAN002)."""
        if self._targets is not None and req.done.pending:
            self._emit(
                "SAN002",
                "req.data of a pending receive read before wait/test "
                "completion (undefined contents under real MPI)",
                ctx=req.comm.ctx_id, tag=req.tag, t=self._now(),
                detail={"source": req.source},
            )

    # --------------------------------------------------------- wait tracking
    def on_block(self, ctx, command, reqs=None) -> None:
        """A rank (or one of its threads) entered a blocking MPI call."""
        desc = type(command).__name__
        event = getattr(command, "event", None)
        if event is not None:
            desc = f"{desc}({event.name})"
        self._blocked[ctx.gid] = (desc, tuple(reqs) if reqs else ())

    def on_unblock(self, ctx, command, t0: float) -> None:
        self._blocked.pop(ctx.gid, None)

    def _describe_req(self, req) -> tuple[str, Optional[int]]:
        """(human description, blocked-on peer gid) of one pending request."""
        kind = getattr(req, "kind", "request")
        if kind == "recv":
            comm = req.comm
            if req.source >= 0:
                peer = comm.peer_gid(req.source)
                return (
                    f"recv(src={req.source}, tag={req.tag}, "
                    f"ctx={comm.ctx_id})", peer,
                )
            return (f"recv(src=ANY, tag={req.tag}, ctx={comm.ctx_id})", None)
        if kind == "send":
            return (f"send(dst_gid={req.dst_gid}, tag={req.tag})", req.dst_gid)
        if kind == "multi":
            for child in req.children:
                if not child.completed and not child.failed:
                    return self._describe_req(child)
            return ("multi-request", None)
        return (kind, None)

    def wait_for_graph(self) -> list[str]:
        """Rank -> blocked-on explanation lines for every blocked rank,
        plus a cycle summary when the blocked ranks wait on each other."""
        lines: list[str] = []
        edges: dict[int, list[int]] = {}
        for gid in sorted(self._blocked):
            desc, reqs = self._blocked[gid]
            pend = [r for r in reqs if r.done.pending]
            if not pend:
                lines.append(f"gid {gid}: blocked in {desc}")
                continue
            parts = []
            for req in pend:
                text, peer = self._describe_req(req)
                parts.append(text)
                if peer is not None:
                    edges.setdefault(gid, []).append(peer)
            lines.append(f"gid {gid}: blocked in {desc} on " + "; ".join(parts))
        cycle = self._find_cycle(edges)
        if cycle:
            lines.append(
                "wait cycle: " + " -> ".join(f"gid {g}" for g in cycle)
            )
        return lines

    @staticmethod
    def _find_cycle(edges: dict[int, list[int]]) -> list[int]:
        """First dependency cycle among blocked ranks (deterministic DFS)."""
        visited: set[int] = set()
        for start in sorted(edges):
            if start in visited:
                continue
            stack = [(start, iter(sorted(edges.get(start, ()))))]
            on_path = [start]
            on_path_set = {start}
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if nxt in on_path_set:
                        return on_path[on_path.index(nxt):] + [nxt]
                    if nxt in visited or nxt not in edges:
                        continue
                    stack.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    on_path.append(nxt)
                    on_path_set.add(nxt)
                    advanced = True
                    break
                if not advanced:
                    visited.add(node)
                    stack.pop()
                    on_path.pop()
                    on_path_set.discard(node)
        return []

    def _deadlock_details(self) -> list[str]:
        """Simulator diagnostics hook: called when the heap drains with
        blocked processes.  Emits one SAN008 finding per blocked rank and
        returns the wait-for-graph lines for the DeadlockError message."""
        lines = self.wait_for_graph()
        for gid in sorted(self._blocked):
            desc, reqs = self._blocked[gid]
            pend = [r for r in reqs if r.done.pending]
            if pend:
                text, peer = self._describe_req(pend[0])
                ctx = getattr(getattr(pend[0], "comm", None), "ctx_id", None)
                tag = getattr(pend[0], "tag", None)
            else:
                text, peer, ctx, tag = desc, None, None, None
            self._emit(
                "SAN008",
                f"deadlocked in {desc}: waiting on {text}",
                rank=gid, ctx=ctx, tag=tag, t=self._now(),
                detail={"peer": peer} if peer is not None else {},
            )
        return lines

    # ------------------------------------------------------------- finalize
    def on_finalize(self, endpoint) -> None:
        """Hooked from :meth:`Endpoint.close` before its own leftover-traffic
        check, so findings carry provenance even when close() then raises."""
        gid = endpoint.gid
        if gid in self._finalized:
            return
        self._finalized.add(gid)
        world = self.world
        dead = world.dead_gids
        aborted = world.aborted_ctxs
        now = self._now()
        # SAN003: requests this rank opened and never completed.
        for token in sorted(self._open):
            op = self._open[token]
            if op.gid != gid:
                continue
            if op.ctx in aborted or (op.peer is not None and op.peer in dead):
                continue  # excused: failure layer owns these
            del self._open[token]
            peer = f" peer gid={op.peer}" if op.peer is not None else ""
            self._emit(
                "SAN003",
                f"{op.kind} request leaked: still pending at finalize"
                f"{peer} (posted at t={op.t0:.6f})",
                rank=gid, ctx=op.ctx, tag=op.tag, t=now,
                detail={"kind": op.kind, "peer": op.peer},
            )
        # SAN009: passive-target epochs this rank opened and never unlocked.
        for key in sorted(self._epoch_open):
            win_id, origin, target = key
            if origin != gid:
                continue
            ctx_id, t0 = self._epoch_open[key]
            if ctx_id in aborted or target in dead:
                continue  # excused: failure layer owns these
            del self._epoch_open[key]
            self._epoch_puts.pop(key, None)
            self._emit(
                "SAN009",
                f"lock epoch to target gid={target} on window {win_id} "
                f"never unlocked (locked at t={t0:.6f})",
                rank=gid, ctx=ctx_id, t=now,
                detail={"win": win_id, "target": target},
            )
        # SAN004: traffic that physically arrived here but never matched.
        def excused(msg) -> bool:
            return msg.src_gid in dead or msg.ctx_id in aborted

        held = [
            m for chan in endpoint._reorder.values() for (_k, m) in chan.values()
        ]
        for queue, what in (
            (endpoint.unexpected, "eager message"),
            (endpoint.pending_rts, "rendezvous announcement"),
            (held, "out-of-order arrival"),
        ):
            for msg in queue:
                if excused(msg):
                    continue
                self._emit(
                    "SAN004",
                    f"unmatched {what} from gid={msg.src_gid} "
                    f"({msg.nbytes}B) never consumed by a receive",
                    rank=gid, ctx=msg.ctx_id, tag=msg.tag, t=now,
                    detail={"src_gid": msg.src_gid, "nbytes": msg.nbytes},
                )

    # ------------------------------------------------------------ alltoallv
    def on_alltoallv(self, ctx, comm, tag_base: int, send_map, recv_from) -> None:
        """Hooked from the two vector-alltoall entry points; cross-checks
        the declared pairings once every member of the call declared."""
        key = (comm.ctx_id, tag_base)
        group = self._a2av.setdefault(key, {})
        group[ctx.gid] = (
            comm,
            comm.rank_of_gid(ctx.gid),
            frozenset(send_map),
            frozenset(recv_from),
        )
        expected = comm.size + (comm.remote_size if comm.is_inter else 0)
        if len(group) == expected:
            del self._a2av[key]
            self._check_alltoallv(comm.ctx_id, group)

    def _check_alltoallv(self, ctx_id: int, group: dict[int, tuple]) -> None:
        """Every declared send must be a declared receive of its peer, and
        vice versa: all send-side mismatches first, then receive-side."""
        now = self._now()
        for mine, theirs, direction in ((2, 3, "send"), (3, 2, "recv")):
            for gid in sorted(group):
                comm, rank = group[gid][:2]
                for peer in sorted(group[gid][mine]):
                    if not comm.is_inter and peer == rank:
                        continue  # self-exchange is local
                    peer_gid = comm.peer_gid(peer)
                    peer_decl = group.get(peer_gid)
                    if peer_decl is None:
                        continue  # dead/aborted peer: failure layer's business
                    if rank in peer_decl[theirs]:
                        continue
                    if direction == "send":
                        what = (f"sends to peer {peer} (gid={peer_gid}) but "
                                f"that member does not list rank {rank} in "
                                f"recv_from")
                    else:
                        what = (f"expects data from peer {peer} "
                                f"(gid={peer_gid}) but that member never "
                                f"sends to rank {rank}")
                    self._emit(
                        "SAN006",
                        f"alltoallv mismatch: rank {rank} (gid={gid}) {what}",
                        rank=gid, ctx=ctx_id, t=now,
                        detail={"peer_gid": peer_gid, "direction": direction},
                    )

    def _check_incomplete_alltoallv(self) -> None:
        """Detach-time pass: collective calls some members never entered."""
        world = self.world
        now = self._now()
        for (ctx_id, tag_base) in sorted(self._a2av):
            group = self._a2av[(ctx_id, tag_base)]
            any_decl = next(iter(group.values()))
            comm = any_decl[0]
            if ctx_id in world.aborted_ctxs:
                continue
            missing = sorted(
                g for g in comm.members
                if g not in group and g not in world.dead_gids
            )
            if not missing:
                continue
            self._emit(
                "SAN006",
                f"alltoallv (tag base {tag_base}) on {comm.name} entered by "
                f"{len(group)} member(s) but not by gids {missing}",
                ctx=ctx_id, tag=tag_base, t=now,
                detail={"missing": missing},
            )

    # --------------------------------------------------------------- memcpy
    @staticmethod
    def _source_fp(session, lo: int, hi: int) -> Optional[int]:
        return fingerprint_payload(
            session.src_dataset.extract(lo, hi, list(session.names))
        )

    def on_memcpy_begin(self, session, lo: int, hi: int) -> None:
        """Fingerprint the local source range before the self-copy window."""
        self._copies[session] = (self._source_fp(session, lo, hi), self._now())

    def on_memcpy_end(self, session, lo: int, hi: int) -> None:
        fp, t0 = self._copies.pop(session)
        if fp is not None and self._source_fp(session, lo, hi) != fp:
            self._emit(
                "SAN007",
                f"source rows [{lo},{hi}) of a redistribution self-copy "
                f"were modified during the copy window "
                f"(started at t={t0:.6f})",
                rank=session.ctx.gid, t=self._now(),
                detail={"lo": lo, "hi": hi, "names": list(session.names)},
            )
