"""Per-rank MPI API (the object user code receives).

Every operation is a generator subroutine: user code runs inside the
simulation and calls them as ``result = yield from mpi.recv(...)``.

Timing semantics implemented here:

* sends charge the fabric's per-message CPU overhead on the caller's node,
  so message-heavy phases slow down under oversubscription;
* blocking waits register the caller as a CPU *poller* (MPICH waits spin),
  which is the paper's oversubscription mechanism during reconfigurations;
* every wait/test holds the endpoint's progress engine, which is what lets
  rendezvous handshakes advance — a process that merely computes makes no
  rendezvous progress, exactly like MPICH without an async progress thread.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence

from ..cluster.cpu import Compute, PollerToken
from ..simulate.core import SimProcess
from ..simulate.events import EventState, SimEvent
from ..simulate.primitives import AllOf, AnyOf, Timeout, WaitEvent
from . import collectives as _coll
from .communicator import Communicator
from .datatypes import ANY_SOURCE, ANY_TAG, copy_payload, payload_nbytes
from .endpoint import Endpoint, Message
from .errors import CommFailedError
from .requests import RecvRequest, Request, SendRequest
from .rma import RmaOps

__all__ = ["RankCtx", "ThreadHandle"]

_PENDING = EventState.PENDING
_TRIGGERED = EventState.TRIGGERED


class AsyncOpHandle:
    """Handle of a non-blocking world operation (async spawn/merge).

    The companion spawn paper [16] provides asynchronous variants of the
    process-management stage; sources keep iterating and check
    :attr:`completed` at their checkpoints (no CPU is burned waiting —
    the launcher daemons do the work).  A source with no iterations left
    has nothing to overlap with: it blocks in :meth:`RankCtx.wait_async`,
    polling like the blocking call would have.
    """

    def __init__(self, event: SimEvent):
        self.event = event

    @property
    def completed(self) -> bool:
        return self.event.triggered

    @property
    def failed(self) -> bool:
        return self.event.failed

    @property
    def result(self) -> Any:
        return self.event.value


class ThreadHandle:
    """Handle of an auxiliary communication thread (paper strategy **T**).

    ``done`` mirrors the shared boolean ``endThread`` of Algorithm 4: the
    main flow checks :attr:`finished` at each checkpoint without blocking.
    """

    def __init__(self, proc: SimProcess):
        self.proc = proc

    @property
    def done(self) -> SimEvent:
        return self.proc.done_event

    @property
    def finished(self) -> bool:
        return not self.proc.alive

    @property
    def result(self) -> Any:
        return self.proc.result


class RankCtx(RmaOps):
    """The simulated-MPI handle of one rank (or one of its threads).

    Point-to-point, collectives, world operations (spawn, merge, dup,
    create) and threads live here; the one-sided half comes from
    :class:`~repro.smpi.rma.RmaOps`."""

    def __init__(
        self,
        world,
        gid: int,
        slot: int,
        comm_world: Communicator,
        parent: Optional[Communicator] = None,
        endpoint: Optional[Endpoint] = None,
        is_thread: bool = False,
    ):
        self.world = world
        self.sim = world.sim
        self.machine = world.machine
        self.gid = gid
        self.slot = slot
        self.comm_world = comm_world
        #: inter-communicator to the spawning group (children only).
        self.parent = parent
        self.node = world.machine.node_for_slot(slot)
        self._ep = endpoint if endpoint is not None else world.endpoints[gid]
        self.is_thread = is_thread
        self.proc: Optional[SimProcess] = None
        #: the poller registration of this flow of control's blocking calls
        #: (one process per context, so at most one is active at a time).
        self._poller = PollerToken(label=f"gid{gid}")
        #: per-communicator collective sequence numbers (tag allocation).
        self._coll_seq: dict[int, int] = {}
        #: per-(kind, comm) world-op sequence numbers (spawn/merge keys).
        self._op_seq: dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------- identity
    @property
    def rank(self) -> int:
        return self.comm_world.rank_of_gid(self.gid)

    @property
    def size(self) -> int:
        return self.comm_world.size

    def rank_in(self, comm: Communicator) -> int:
        return comm.rank_of_gid(self.gid)

    def _comm(self, comm: Optional[Communicator]) -> Communicator:
        return comm if comm is not None else self.comm_world

    # ------------------------------------------------------------ time/work
    def compute(self, seconds: float):
        """Burn ``seconds`` of single-core CPU work on this rank's node."""
        yield Compute(seconds)

    def sleep(self, seconds: float):
        """Idle (no CPU demand) for ``seconds``."""
        yield Timeout(seconds)

    @property
    def now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------ P2P
    def isend(
        self,
        payload: Any,
        dest: int,
        tag: int = 0,
        comm: Optional[Communicator] = None,
        nbytes: Optional[int] = None,
        label: str = "",
    ) -> Generator[Any, Any, SendRequest]:
        """Non-blocking send to peer ``dest`` of ``comm``.

        The payload is snapshotted immediately (MPI buffer semantics) and
        the caller is charged the fabric's per-message CPU overhead.
        """
        req, msg, overhead = self._prepare_send(payload, dest, tag, comm, nbytes)
        if overhead > 0:
            yield Compute(overhead)
        self.world.inject(msg, label=label)
        return req

    def _prepare_send(self, payload, dest, tag, comm, nbytes):
        """The part of a send before its CPU overhead is charged: request,
        snapshotted message and that overhead.  Blocking calls use it
        directly, so each runs one generator instead of three."""
        comm = comm if comm is not None else self.comm_world
        gid = self.gid
        dst_gid = comm.peer_gid(dest)
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        req = SendRequest(self.sim, dst_gid, tag, size)
        world = self.world
        if world.observers:
            # Before injection: eager sends complete *at* inject, so a
            # sanitizer's mutation window closes immediately (as it should).
            for o in world.observers:
                o.on_isend(self, comm, dest, tag, payload, req)
        # On an intra-comm, peers see my local rank; on an inter-comm, they
        # see my rank within *their* remote group, which is my local rank.
        msg = Message(
            next(world._msg_ids), world.next_chan_seq(gid, dst_gid), comm.ctx_id, gid, dst_gid,
            comm.rank_of_gid(gid), tag, copy_payload(payload), size, req,
        )
        return req, msg, world.channel_spec(gid, dst_gid).cpu_overhead

    def irecv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
    ) -> Generator[Any, Any, RecvRequest]:
        """Non-blocking receive; the payload lands in ``req.data``."""
        return self._post_recv(source, tag, comm)
        yield  # pragma: no cover - keeps this a generator for API symmetry

    def _post_recv(self, source, tag, comm) -> RecvRequest:
        """:meth:`irecv`'s body as a plain call (it never blocks)."""
        comm = comm if comm is not None else self.comm_world
        req = RecvRequest(self.sim, comm, source, tag)
        ep = self._ep
        ep.enter_progress()
        try:
            ep.post_recv(req)
        finally:
            ep.exit_progress()
        world = self.world
        if world.observers:
            for o in world.observers:
                o.on_irecv(self, comm, source, tag, req)
        # A receive that found nothing already arrived and names a dead
        # source, or sits on a communicator recovery abandoned (its peers
        # left the session), can never match: complete it in error now
        # (after post_recv, so a buffered eager payload still wins the race).
        if req.done._state is _PENDING:
            err = None
            if comm.ctx_id in world.aborted_ctxs:
                err = CommFailedError(f"receive on aborted {comm.name}")
            elif source != ANY_SOURCE and comm.peer_gid(source) in world.dead_gids:
                err = CommFailedError(
                    f"receive from dead rank {source} of {comm.name}",
                    dead_gids=[comm.peer_gid(source)],
                )
            if err is not None:
                if req in ep.posted:
                    ep.posted.remove(req)
                req._fail(err)
        return req

    def send(self, payload, dest, tag=0, comm=None, nbytes=None, label=""):
        """Blocking send (isend + wait)."""
        req, msg, overhead = self._prepare_send(payload, dest, tag, comm, nbytes)
        if overhead > 0:
            yield Compute(overhead)
        self.world.inject(msg, label=label)
        yield from self._polling_block(WaitEvent(req.done), (req,))
        return req

    def recv(self, source=ANY_SOURCE, tag=ANY_TAG, comm=None):
        """Blocking receive; returns the payload (status on the request)."""
        req = self._post_recv(source, tag, comm)
        yield from self._polling_block(WaitEvent(req.done), (req,))
        return req.data

    def sendrecv(
        self,
        payload,
        dest: int,
        source: int,
        tag: int = 0,
        comm=None,
        nbytes=None,
        recv_tag: Optional[int] = None,
        label: str = "",
    ):
        """Simultaneous blocking send+recv (deadlock-free pairwise step)."""
        sreq, msg, overhead = self._prepare_send(payload, dest, tag, comm, nbytes)
        if overhead > 0:
            yield Compute(overhead)
        self.world.inject(msg, label=label)
        rreq = self._post_recv(source, tag if recv_tag is None else recv_tag, comm)
        if sreq.done._state is _TRIGGERED:
            # The eager send already completed: waiting on the receive alone
            # resumes at the same instant and fails the same way.
            yield from self._polling_block(WaitEvent(rreq.done), (rreq,))
        else:
            yield from self._polling_block(
                AllOf([sreq.done, rreq.done]), [sreq, rreq]
            )
        return rreq.data

    # ---------------------------------------------------------------- waits
    def _polling_block(self, command, reqs=None):
        """Block on a kernel command while polling (CPU) and holding the
        progress engine — the shape of every blocking MPI call.

        ``reqs`` (optional) names the requests being waited on so an
        attached sanitizer can draw wait-for-graph edges on deadlock."""
        self._ep.enter_progress()
        tok = self._poller
        self.node.add_poller(tok)
        t0 = self.sim.now
        world = self.world
        if world.observers:
            for o in world.observers:
                o.on_block(self, command, reqs)
        try:
            result = yield command
        finally:
            self.node.remove_poller(tok)
            self._ep.exit_progress()
            if world.observers:
                for o in world.observers:
                    o.on_unblock(self, command, t0)
        return result

    def wait(self, req: Request):
        """Blocking wait on one request (polls; progress engine held)."""
        yield from self._polling_block(WaitEvent(req.done), (req,))
        return req

    def waitall(self, reqs: Sequence[Request]):
        """Blocking wait until all requests complete (``MPI_Waitall``)."""
        reqs = list(reqs)
        if not reqs:
            return reqs
        yield from self._polling_block(AllOf([r.done for r in reqs]), reqs)
        return reqs

    def waitany(self, reqs: Sequence[Request]):
        """Blocking wait for the first completion; returns ``(index, req)``.

        The P2P redistribution of Algorithm 1 drives its state machine with
        this call plus the request's :class:`~repro.smpi.status.Status`.
        """
        reqs = list(reqs)
        if not reqs:
            raise ValueError("waitany needs at least one request")
        idx, _ = yield from self._polling_block(
            AnyOf([r.done for r in reqs]), reqs
        )
        return idx, reqs[idx]

    def wait_async(self, handle: AsyncOpHandle):
        """Blocking twin of :attr:`AsyncOpHandle.completed`: poll, as
        :meth:`comm_spawn` does, until the operation ends; returns its
        result or raises its stored failure."""
        result = yield from self._polling_block(WaitEvent(handle.event))
        return result

    def progress_tick(self, cost: Optional[float] = None):
        """One bounded progress-engine window (the heart of ``MPI_Test``).

        Holds the progress engine for ``cost`` seconds of CPU work, letting
        pending rendezvous handshakes advance, then returns.
        """
        if cost is None:
            cost = self.machine.fabric.cpu_overhead
        world = self.world
        if world.observers:
            for o in world.observers:
                o.on_progress_tick(self)
        self._ep.enter_progress()
        try:
            if cost > 0:
                yield Compute(cost)
        finally:
            self._ep.exit_progress()

    def test(self, req: Request):
        """Non-blocking completion check of one request.

        A request that completed *in error* (peer died) raises
        :class:`~repro.smpi.errors.CommFailedError` — the non-blocking
        strategies (A/T checkpoints) learn about failures here."""
        yield from self.progress_tick()
        if req.failed:
            raise req.error
        return req.completed

    def testall(self, reqs: Sequence[Request]):
        """Non-blocking completion check of all requests (``MPI_Testall``)."""
        yield from self.progress_tick()
        for r in reqs:
            if r.failed:
                raise r.error
        return all(r.completed for r in reqs)

    # ------------------------------------------------------------ collectives
    #: tags reserved per collective call; must exceed the phase count of any
    #: collective (pairwise alltoallv uses one tag per peer).
    COLL_TAG_WIDTH = 1 << 14

    def next_coll_tag(self, comm: Communicator) -> int:
        """Fresh negative tag block for one collective call on ``comm``.

        Collective order per communicator is an MPI requirement, so every
        member allocates the same block.  :data:`COLL_TAG_WIDTH` tags are
        reserved (phases use ``base - phase``).
        """
        seq = self._coll_seq.get(comm.ctx_id, 0)
        self._coll_seq[comm.ctx_id] = seq + 1
        return -(seq * self.COLL_TAG_WIDTH) - 2

    def barrier(self, comm=None):
        yield from _coll.barrier(self, self._comm(comm))

    def bcast(self, value, root: int = 0, comm=None):
        result = yield from _coll.bcast(self, value, root, self._comm(comm))
        return result

    def allreduce(self, value, op: Callable[[Any, Any], Any] = None, comm=None):
        op = _coll.op_sum if op is None else op
        result = yield from _coll.allreduce(self, value, op, self._comm(comm))
        return result

    def allgatherv(self, block, comm=None):
        result = yield from _coll.allgatherv(self, block, self._comm(comm))
        return result

    def alltoall(self, sendlist, comm=None):
        result = yield from _coll.alltoall(self, sendlist, self._comm(comm))
        return result

    def alltoallv(self, send_map, recv_from, comm=None, nbytes_map=None, label=""):
        """Blocking vector all-to-all — MPICH's serialized pairwise-exchange
        schedule (the reason Baseline-COL-S underperforms, §4.4.2)."""
        result = yield from _coll.alltoallv_pairwise(
            self, send_map, recv_from, self._comm(comm), nbytes_map, label
        )
        return result

    def ialltoallv(self, send_map, recv_from, comm=None, nbytes_map=None, label=""):
        """Non-blocking vector all-to-all: posts everything, returns
        ``(MultiRequest, results_dict)``; the dict fills in as data lands."""
        result = yield from _coll.ialltoallv(
            self, send_map, recv_from, self._comm(comm), nbytes_map, label
        )
        return result

    def ialltoall(self, sendlist, comm=None):
        result = yield from _coll.ialltoall(self, sendlist, self._comm(comm))
        return result

    # -------------------------------------------------------------- world ops
    def _rendezvous(
        self,
        kind: str,
        comm: Communicator,
        complete: Callable[[Any], tuple[Any, Callable[[], Any]]],
        join: Optional[Callable[[Any], None]] = None,
    ) -> SimEvent:
        """Arrive at the world-level collective ``kind`` over every member
        of ``comm`` (both groups of an inter-communicator); returns the
        event all of them wait on.

        ``join(op)`` runs at each arrival and may record the caller's share
        in ``op.result``.  The last arrival calls ``complete(op)`` for
        ``(after, make)``: once the delay ``after`` has passed, ``make()``'s
        value ends the op for everyone (an exception value fails it).  A
        participant that dies first fails the op instead
        (:meth:`MpiWorld.mark_ranks_dead`) and ``make`` never runs.
        """
        world = self.world
        seq = self._op_seq.get((kind, comm.ctx_id), 0)
        self._op_seq[(kind, comm.ctx_id)] = seq + 1
        key = f"{kind}:{comm.ctx_id}:{seq}"
        members = comm.members
        op = world.pending_op(key, expected=len(members), participants=members)
        if join is not None:
            join(op)
        if op.arrive():
            after, make = complete(op)
            ev = op.event

            def fire() -> None:
                if not ev.pending:
                    return  # op aborted (a participant died) meanwhile
                result = make()
                world.finish_op(key)
                if isinstance(result, BaseException):
                    ev.fail(result)
                else:
                    ev.trigger(result)

            self.sim.schedule(after, fire)
        return op.event

    def _comm_spawn_begin(
        self,
        func: Callable[..., Any],
        slots: Sequence[int],
        args: tuple,
        comm: Communicator,
        name_prefix: str,
    ) -> SimEvent:
        """Register this rank's arrival at a collective spawn; the last
        arrival schedules the launch after the spawn-model cost and the
        returned event fires with the parent-side inter-communicator."""
        slots = list(slots)
        world = self.world

        def launch():
            err = world.spawn_failure(slots)
            if err is not None:
                return err
            inter_ctx_id = next(world._ctx_ids)
            res = world.launch(
                func,
                slots,
                args=args,
                name_prefix=name_prefix,
                parent_intercomm_info=(inter_ctx_id, tuple(comm.group)),
            )
            return Communicator(
                inter_ctx_id,
                comm.group,
                remote_group=res.comm.group,
                name=f"spawn{inter_ctx_id}.parent",
            )

        def complete(_op):
            cost = world.spawn_model.cost(len(slots), world.nodes_of_slots(slots))
            return cost, launch

        return self._rendezvous("spawn", comm, complete)

    def comm_spawn(
        self,
        func: Callable[..., Any],
        slots: Sequence[int],
        args: tuple = (),
        comm: Optional[Communicator] = None,
        name_prefix: str = "spawned",
    ):
        """Collective ``MPI_Comm_spawn``: every member of ``comm`` calls it;
        returns the parent-side inter-communicator to the new group.

        ``slots`` fixes the placement of the children (the malleability layer
        chooses them according to the Baseline/Merge policy).  Cost follows
        :class:`~repro.smpi.spawn.SpawnModel` and is paid by all callers,
        who poll while blocked, as MPICH processes do.
        """
        ev = self._comm_spawn_begin(
            func, slots, args, self._comm(comm), name_prefix
        )
        inter = yield from self._polling_block(WaitEvent(ev))
        return inter

    def comm_spawn_async(
        self,
        func: Callable[..., Any],
        slots: Sequence[int],
        args: tuple = (),
        comm: Optional[Communicator] = None,
        name_prefix: str = "spawned",
    ):
        """Asynchronous spawn (the [16] async process-management variants):
        returns an :class:`AsyncOpHandle` immediately; the caller keeps
        iterating and checks ``handle.completed`` at its checkpoints."""
        ev = self._comm_spawn_begin(
            func, slots, args, self._comm(comm), name_prefix
        )
        return AsyncOpHandle(ev)
        yield  # pragma: no cover - generator for API symmetry

    def _merge_begin(self, inter: Communicator, high: bool) -> SimEvent:
        if not inter.is_inter:
            raise ValueError("merge_intercomm needs an inter-communicator")

        def join(op) -> None:
            # Record flags against the canonical (first-caller) groups.
            group_a, _ = op.result.setdefault("groups", (inter.group, inter.remote_group))
            flags = op.result.setdefault("high", {})
            if flags.setdefault("a" if self.gid in group_a else "b", high) != high:
                raise ValueError("inconsistent high flags within one merge side")

        def complete(op):
            (group_a, group_b), flags = op.result["groups"], op.result["high"]
            if set(flags.values()) != {True, False}:
                raise ValueError(
                    "Intercomm_merge: both sides passed the same high flag"
                )
            low, high_ = (group_a, group_b) if flags["a"] is False else (group_b, group_a)

            def merge():
                ctx_id = next(self.world._ctx_ids)
                return Communicator(ctx_id, low + high_, name=f"merged{ctx_id}")

            return self.world.spawn_model.merge_cost, merge

        return self._rendezvous("merge", inter, complete, join)

    def merge_intercomm(self, inter: Communicator, high: bool):
        """Collective ``MPI_Intercomm_merge`` over both groups of ``inter``.

        Each side passes its ``high`` flag; the low side takes ranks first.
        Merge reconfigurations call this so sources keep ranks 0..NS-1.
        """
        ev = self._merge_begin(inter, high)
        merged = yield from self._polling_block(WaitEvent(ev))
        return merged

    def merge_intercomm_async(self, inter: Communicator, high: bool):
        """Non-blocking merge arrival; check ``handle.completed`` later.
        The other side (spawned processes) typically merges blockingly."""
        ev = self._merge_begin(inter, high)
        return AsyncOpHandle(ev)
        yield  # pragma: no cover - generator for API symmetry

    def comm_dup(self, comm: Optional[Communicator] = None):
        """Collective ``MPI_Comm_dup``: a same-group communicator with a
        fresh context.  Malleability redistributes over a duplicate so its
        traffic can never cross-match the application's (paper §3.2)."""
        comm = self._comm(comm)
        dup = yield from self.comm_create(comm, range(comm.size))
        assert dup is not None  # every member is in the duplicate
        return dup

    def comm_create(self, comm: Communicator, ranks: Sequence[int]):
        """Collective sub-communicator creation (``MPI_Comm_create`` shape).

        All members of ``comm`` call it with the same ``ranks``; members of
        the subset receive the new communicator, others get ``None``.  The
        Merge shrink path uses this so the surviving NT ranks get a
        right-sized communicator while ranks NT..NS-1 exit.
        """
        ranks = list(ranks)
        if not ranks:
            raise ValueError("comm_create needs a non-empty rank list")

        def complete(_op):
            gids = tuple(comm.group[r] for r in ranks)

            def create():
                ctx_id = next(self.world._ctx_ids)
                return Communicator(ctx_id, gids, name=f"sub{ctx_id}")

            return self.world.spawn_model.merge_cost, create

        sub = yield from self._polling_block(
            WaitEvent(self._rendezvous("create", comm, complete))
        )
        return sub if sub.contains_gid(self.gid) else None

    def disconnect(self, comm: Communicator):
        """``MPI_Comm_disconnect``: small synchronisation cost."""
        yield Timeout(self.world.spawn_model.disconnect_cost)

    # ---------------------------------------------------------------- threads
    def spawn_thread(self, fn: Callable[..., Any], *args, name: str = ""):
        """Create an auxiliary thread running ``fn(tctx, *args)``.

        The thread shares this rank's MPI endpoint (same rank, same matching
        queues) but is an independent schedulable entity on the same node —
        its blocking MPI calls poll and therefore consume a CPU share, which
        is the oversubscription cost the paper attributes to strategy T.
        """
        yield Compute(self.world.spawn_model.thread_cost)
        tctx = RankCtx(
            self.world,
            gid=self.gid,
            slot=self.slot,
            comm_world=self.comm_world,
            parent=self.parent,
            endpoint=self._ep,
            is_thread=True,
        )
        # Threads share collective/op sequence state with their rank: a
        # collective issued by the thread must allocate the same tags the
        # other ranks expect.
        tctx._coll_seq = self._coll_seq
        tctx._op_seq = self._op_seq
        proc = self.sim.spawn(
            fn(tctx, *args),
            name=name or f"thread.g{self.gid}",
        )
        proc.context["node"] = self.node
        proc.context["rank_gid"] = self.gid
        tctx.proc = proc
        return ThreadHandle(proc)

    def join_thread(self, handle: ThreadHandle):
        """Block (without polling — pthread_join sleeps) until the thread ends."""
        yield WaitEvent(handle.done)
        return handle.result

    # --------------------------------------------------------------- finalize
    def finalize(self) -> None:
        """Tear down this rank's endpoint; call just before returning."""
        self._ep.close()
