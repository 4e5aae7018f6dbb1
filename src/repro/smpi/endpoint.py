"""Per-process message endpoint: matching + the MPI progress-engine rule.

This module encodes the mechanism behind the paper's synchronous vs
asynchronous behaviour differences:

* **eager** messages (size <= fabric eager threshold) flow immediately and
  complete the send locally (buffered), landing in the receiver's unexpected
  queue if no receive is posted yet;
* **rendezvous** messages announce themselves with an RTS control message.
  The payload only starts moving once (a) the receiver has a matching posted
  receive *and* its progress engine is active — i.e. the receiving process
  (or one of its auxiliary threads) is inside an MPI call — and then (b) the
  returning CTS finds the *sender's* progress engine active.

Consequence, exactly as in MPICH: a source that redistributes with
non-blocking calls (strategy **A**) only makes rendezvous progress during
its per-iteration ``MPI_Testall`` windows, while a source using an auxiliary
thread (strategy **T**) progresses continuously because the thread sits in a
blocking (polling) wait — at the cost of one extra CPU demand on the node.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Optional

from .datatypes import ANY_SOURCE
from .errors import CommFailedError
from .requests import RecvRequest, SendRequest
from .status import Status

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cpu import Node
    from .communicator import Communicator
    from .world import MpiWorld

__all__ = ["Message", "Endpoint"]


class Message:
    """One in-flight point-to-point message."""

    _ids = itertools.count()

    __slots__ = (
        "msg_id", "seq", "ctx_id", "src_gid", "dst_gid", "src_rank", "tag",
        "payload", "nbytes", "protocol", "send_req", "recv_req",
    )

    def __init__(
        self,
        seq: int,
        ctx_id: int,
        src_gid: int,
        dst_gid: int,
        src_rank: int,
        tag: int,
        payload: Any,
        nbytes: int,
        send_req: SendRequest,
    ):
        self.msg_id = next(Message._ids)
        #: per-(src,dst) channel sequence number — non-overtaking matching.
        self.seq = seq
        self.ctx_id = ctx_id
        self.src_gid = src_gid
        self.dst_gid = dst_gid
        #: sender's rank as seen by the receiver (Status.source).
        self.src_rank = src_rank
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.protocol = ""  # "eager" | "rndv", set at injection
        self.send_req = send_req
        self.recv_req: Optional[RecvRequest] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Message #{self.msg_id} {self.src_gid}->{self.dst_gid} "
            f"tag={self.tag} {self.nbytes}B {self.protocol}>"
        )


class Endpoint:  # repro: noqa[REP005] - one per rank (not per message); queues dominate its footprint
    """Matching engine + progress engine of one simulated MPI process.

    Shared by the process's main flow of control and any auxiliary threads
    (they are the same MPI rank).  ``progress`` is a refcount of how many of
    them are currently inside an MPI call.
    """

    def __init__(self, world: "MpiWorld", gid: int, node: "Node"):
        self.world = world
        self.gid = gid
        self.node = node
        #: receives posted and not yet matched, in post order.
        self.posted: list[RecvRequest] = []
        #: eager messages that arrived before a matching receive was posted.
        self.unexpected: list[Message] = []
        #: rendezvous messages announced (RTS arrived) but not yet streaming.
        self.pending_rts: list[Message] = []
        #: (sender side) messages whose CTS arrived while we were outside MPI.
        self.pending_cts: list[Message] = []
        #: passive-target RMA landings deferred until this rank enters MPI
        #: (large payloads on non-RDMA fabrics; see ``RankCtx.win_put``).
        self.pending_rma: list = []
        self.progress = 0
        #: set when the process finalized; stray traffic is then an error.
        self.closed = False
        #: per-channel FIFO enforcement: next expected seq per sender gid.
        #: Real MPI connections deliver envelopes in injection order even
        #: when a later small message physically drains before an earlier
        #: large one; without this, tag-matching could cross sessions.
        self._next_seq: dict[int, int] = {}
        #: out-of-order arrivals held back until their channel catches up.
        self._reorder: dict[int, dict[int, tuple[str, Message]]] = {}

    # ------------------------------------------------------------- progress
    def enter_progress(self) -> None:
        """Enter MPI and drive every handshake that was waiting for it."""
        self.progress += 1
        # Sender side: CTSs that arrived while we computed.
        while self.pending_cts:
            msg = self.pending_cts.pop(0)
            self.world._start_payload(msg)
        # Passive-target RMA: landings waiting for us to enter MPI.
        while self.pending_rma:
            self.pending_rma.pop(0)()
        # Receiver side: RTSs that can now be matched against posted recvs.
        for msg in list(self.pending_rts):
            req = self._find_posted(msg)
            if req is not None:
                self._claim(msg, req)

    def exit_progress(self) -> None:
        if self.progress <= 0:
            raise RuntimeError(f"gid {self.gid}: unbalanced exit_progress")
        self.progress -= 1

    # -------------------------------------------------------------- matching
    def _find_posted(self, msg: Message) -> Optional[RecvRequest]:
        for req in self.posted:
            if req.matches(msg.ctx_id, msg.src_rank, msg.tag):
                return req
        return None

    def _find_arrived(self, req: RecvRequest, pool: list[Message]) -> Optional[Message]:
        """Lowest-sequence arrived message matching ``req`` (non-overtaking)."""
        best: Optional[Message] = None
        for msg in pool:
            if req.matches(msg.ctx_id, msg.src_rank, msg.tag):
                if best is None or (msg.src_gid, msg.seq) < (best.src_gid, best.seq):
                    if req.source == ANY_SOURCE:
                        # wildcard: arrival order, approximated by list order
                        return msg
                    best = msg
        return best

    def _claim(self, msg: Message, req: RecvRequest) -> None:
        """Pair an announced rendezvous message with a posted receive and
        fire the CTS back to the sender."""
        self.pending_rts.remove(msg)
        self.posted.remove(req)
        msg.recv_req = req
        self.world._send_cts(msg)

    # ------------------------------------------------------------ transport
    def post_recv(self, req: RecvRequest) -> None:
        """Register a receive (caller must hold the progress engine)."""
        if self.closed:
            raise RuntimeError(f"gid {self.gid}: receive posted after finalize")
        msg = self._find_arrived(req, self.unexpected)
        if msg is not None:
            self.unexpected.remove(msg)
            self._complete_recv(msg, req)
            return
        msg = self._find_arrived(req, self.pending_rts)
        if msg is not None:
            self.pending_rts.remove(msg)
            msg.recv_req = req
            self.world._send_cts(msg)
            return
        self.posted.append(req)

    def deliver_eager(self, msg: Message) -> None:
        """Full payload of an eager message arrived (physically)."""
        if self.closed:
            if msg.src_gid in self.world.dead_gids or msg.ctx_id in self.world.aborted_ctxs:
                self.world.retire_msg(msg)
                return  # straggler from an aborted session / dead sender
            raise RuntimeError(f"gid {self.gid}: eager message after finalize: {msg!r}")
        self._arrive("eager", msg)

    def rts_arrived(self, msg: Message) -> None:
        """A rendezvous announcement arrived (physically)."""
        if self.closed:
            if msg.src_gid in self.world.dead_gids or msg.ctx_id in self.world.aborted_ctxs:
                self.world.retire_msg(msg)
                return  # straggler from an aborted session / dead sender
            raise RuntimeError(f"gid {self.gid}: RTS after finalize: {msg!r}")
        self._arrive("rts", msg)

    def _arrive(self, kind: str, msg: Message) -> None:
        """Per-channel FIFO gate: dispatch in seq order, buffering gaps."""
        expected = self._next_seq.get(msg.src_gid, 0)
        if msg.seq != expected:
            self._reorder.setdefault(msg.src_gid, {})[msg.seq] = (kind, msg)
            return
        self._dispatch(kind, msg)
        nxt = expected + 1
        held = self._reorder.get(msg.src_gid)
        while held and nxt in held:
            k, m = held.pop(nxt)
            self._dispatch(k, m)
            nxt += 1
        self._next_seq[msg.src_gid] = nxt

    def _dispatch(self, kind: str, msg: Message) -> None:
        if msg.ctx_id in self.world.aborted_ctxs:
            # Straggler from an abandoned session: drop it *here*, after
            # the FIFO gate accounted its sequence number — removing it any
            # earlier would wedge the shared (src, dst) channel for every
            # other communicator.
            self.world.retire_msg(msg)
            return
        if kind == "eager":
            req = self._find_posted(msg)
            if req is not None:
                self.posted.remove(req)
                self._complete_recv(msg, req)
            else:
                self.unexpected.append(msg)
        else:  # rendezvous announcement becomes matchable
            self.pending_rts.append(msg)
            if self.progress:
                req = self._find_posted(msg)
                if req is not None:
                    self._claim(msg, req)

    def cts_arrived(self, msg: Message) -> None:
        """(Sender side) the receiver is ready for our payload."""
        if self.progress:
            self.world._start_payload(msg)
        else:
            self.pending_cts.append(msg)

    def payload_arrived(self, msg: Message) -> None:
        """Rendezvous payload fully streamed: complete both requests."""
        assert msg.recv_req is not None, f"{msg!r}: payload without claimed recv"
        msg.send_req._complete(None)
        self._complete_recv(msg, msg.recv_req)

    def _complete_recv(self, msg: Message, req: RecvRequest) -> None:
        self.world.retire_msg(msg)
        req._complete(
            data=msg.payload,
            status=Status(source=msg.src_rank, tag=msg.tag, nbytes=msg.nbytes),
        )

    # -------------------------------------------------------------- failures
    def on_peer_dead(self, dead: set, reason: str) -> None:
        """React to peer rank deaths (called by the world, survivors only).

        Receives that can provably never match complete in error; handshakes
        and announcements involving a dead rank are dropped.  Eager payloads
        that already physically arrived (``unexpected``) are kept — their
        data was committed before the sender died and a later matching
        receive may still consume it.
        """
        if self.closed:
            return
        world = self.world
        # Unclaimed rendezvous announcements from dead senders vanish.
        for msg in [m for m in self.pending_rts if m.src_gid in dead]:
            self.pending_rts.remove(msg)
            world.retire_msg(msg)
        # Payloads we were about to stream to dead receivers fail the send.
        for msg in [m for m in self.pending_cts if m.dst_gid in dead]:
            self.pending_cts.remove(msg)
            world.retire_msg(msg)
            msg.send_req._fail(
                CommFailedError(
                    f"{reason}: receiver rank gid={msg.dst_gid} died",
                    dead_gids=[msg.dst_gid],
                )
            )
        # Held out-of-order arrivals from dead senders are dropped (their
        # channel can never fill the gap).
        for src in [s for s in self._reorder if s in dead]:
            for _kind, msg in self._reorder.pop(src).values():
                world.retire_msg(msg)
        # Posted receives that can never match fail.  A receive naming a dead
        # source survives only if a matching eager message already landed in
        # the unexpected queue (checked by the caller's next post, not here —
        # posted means it did NOT match anything yet, so a dead source is
        # conclusive for already-arrived traffic; traffic still in flight
        # from the dead sender races the abort and is dropped at dispatch).
        keep: list[RecvRequest] = []
        for req in self.posted:
            if req.source == ANY_SOURCE:
                peers = (
                    req.comm.remote_group if req.comm.is_inter else req.comm.group
                )
                dead_peers = sorted(g for g in peers if g in dead)
                if dead_peers and len(dead_peers) == len(peers):
                    req._fail(
                        CommFailedError(
                            f"{reason}: every possible sender died",
                            dead_gids=dead_peers,
                        )
                    )
                    continue
            else:
                gid = req.comm.peer_gid(req.source)
                if gid in dead and self._find_arrived(req, self.unexpected) is None:
                    req._fail(
                        CommFailedError(
                            f"{reason}: sender rank gid={gid} died",
                            dead_gids=[gid],
                        )
                    )
                    continue
            keep.append(req)
        self.posted = keep

    def on_comm_aborted(self, ctx_id: int, reason: str) -> None:
        """React to a communicator being abandoned mid-session.

        Every operation pinned to the aborted context completes *in error*
        so a member blocked inside one of its collectives falls out into
        the caller's recovery path instead of waiting forever for a peer
        that already left the session."""
        if self.closed:
            return
        world = self.world
        err_of = lambda: CommFailedError(reason)  # noqa: E731 - fresh per req
        for msg in [m for m in self.pending_rts if m.ctx_id == ctx_id]:
            self.pending_rts.remove(msg)
            world.retire_msg(msg)
            msg.send_req._fail(err_of())
        for msg in [m for m in self.pending_cts if m.ctx_id == ctx_id]:
            self.pending_cts.remove(msg)
            world.retire_msg(msg)
            msg.send_req._fail(err_of())
        # Held out-of-order arrivals stay: their sequence numbers must still
        # flow through the FIFO gate (``_dispatch`` drops them afterwards).
        keep: list[RecvRequest] = []
        for req in self.posted:
            if req.comm.ctx_id == ctx_id:
                req._fail(err_of())
            else:
                keep.append(req)
        self.posted = keep

    # ---------------------------------------------------------------- close
    def close(self) -> None:
        """Finalize: no further traffic may target this endpoint.

        Leftover traffic is an error — **unless** the world saw rank deaths
        and the leftovers are attributable to the failure: messages from dead
        senders, failed receives, or traffic on a communicator a recovery
        policy explicitly abandoned (:meth:`MpiWorld.abort_comm`)."""
        self.closed = True
        san = self.world.sanitizer
        if san is not None:
            # Findings first, so leaks/unmatched traffic carry full
            # provenance even when the hard check below then raises.
            san.on_finalize(self)
        dead = self.world.dead_gids
        aborted = self.world.aborted_ctxs

        def excusable_msg(m: Message) -> bool:
            return m.src_gid in dead or m.ctx_id in aborted

        def excusable_req(r: RecvRequest) -> bool:
            if r.failed or r.comm.ctx_id in aborted:
                return True
            groups = set(r.comm.group) | set(r.comm.remote_group or ())
            return bool(groups & dead)

        posted = [r for r in self.posted if not excusable_req(r)]
        unexpected = [m for m in self.unexpected if not excusable_msg(m)]
        rts = [m for m in self.pending_rts if not excusable_msg(m)]
        held = [
            m
            for chan in self._reorder.values()
            for (_k, m) in chan.values()
            if not excusable_msg(m)
        ]
        if posted or unexpected or rts or held:
            raise RuntimeError(
                f"gid {self.gid} finalized with pending traffic: "
                f"{len(posted)} posted recvs, "
                f"{len(unexpected)} unexpected msgs, "
                f"{len(rts)} unclaimed RTS"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Endpoint gid={self.gid} posted={len(self.posted)} "
            f"unexpected={len(self.unexpected)} progress={self.progress}>"
        )
