"""The MPI world: process registry, transport, spawn, merge.

:class:`MpiWorld` owns every simulated MPI process (endpoint), implements
the message transport on top of the cluster's flow network, and provides
the collective world-level operations that need global knowledge —
``Comm_spawn`` and ``Intercomm_merge``.

User code never touches this directly; it receives a
:class:`~repro.smpi.context.RankCtx` and yields from its methods.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from ..cluster.fabrics import FabricSpec
from ..cluster.machine import Machine
from ..simulate.core import SimProcess, Simulator
from ..simulate.events import SimEvent
from .communicator import Communicator
from .endpoint import Endpoint, Message
from .errors import CommFailedError, SpawnFailedError
from .spawn import SpawnModel

__all__ = ["MpiWorld", "LaunchResult", "run_spmd"]


@dataclass
class LaunchResult:
    """Handles of one launched process group."""

    comm: Communicator
    procs: list[SimProcess]
    contexts: list  # list[RankCtx]


class _PendingOp:
    """A world-level collective op (spawn, merge, communicator or window
    creation) that all participants must reach before any can leave."""

    def __init__(self, sim: Simulator, expected: int, name: str):
        self.expected = expected
        self.arrived = 0
        self.event: SimEvent = sim.event(name=name)
        #: what the arrivals contributed, keyed as the op chooses.
        self.result: dict = {}
        #: gids expected to arrive — lets :meth:`MpiWorld.mark_ranks_dead`
        #: fail the op when a participant dies before reaching it.
        self.participants: set[int] = set()

    def arrive(self) -> bool:
        """Returns True for the last arrival (who performs the op)."""
        self.arrived += 1
        if self.arrived > self.expected:
            raise RuntimeError(f"{self.event.name}: more arrivals than participants")
        return self.arrived == self.expected


class MpiWorld:
    """Registry + transport for one simulated MPI universe."""

    def __init__(
        self,
        machine: Machine,
        spawn_model: Optional[SpawnModel] = None,
    ):
        self.machine = machine
        self.sim: Simulator = machine.sim
        self.spawn_model = spawn_model or SpawnModel()
        self.endpoints: dict[int, Endpoint] = {}
        self._gids = itertools.count()
        self._ctx_ids = itertools.count(1)
        #: per-world RMA window and message ids (metric labels and flow
        #: labels carry them, so they must not leak process history).
        self._win_ids = itertools.count()
        self._msg_ids = itertools.count()
        self._chan_seq: dict[tuple[int, int], int] = {}
        self._ops: dict[str, _PendingOp] = {}
        #: gid -> slot, kept so reconfiguration layers can reason about
        #: placement (e.g. which ranks share nodes).
        self.slot_of: dict[int, int] = {}
        #: traffic accounting by label prefix, for experiment reports.
        self.bytes_by_label: dict[str, float] = {}
        #: subscribed :class:`repro.obs.instrument.Observer` objects (metrics
        #: probe, sanitizer): the smpi, redistribution, malleability and
        #: fault event sites call their hooks (none while detached).
        self.observers = ()
        #: gids of ranks known dead (node crash, kill, terminate_ranks).
        self.dead_gids: set[int] = set()
        #: every message injected and not yet delivered/retired, keyed by
        #: msg_id; scanned by :meth:`mark_ranks_dead` to fail in-flight
        #: traffic touching a dead rank.
        self._inflight: dict[int, Message] = {}
        #: attempt indices (0-based, in ``comm_spawn`` issue order) whose
        #: launch the fault schedule forces to fail.
        self.fail_spawns: set[int] = set()
        self._spawn_attempts: int = 0
        #: the run's :class:`repro.faults.FaultInjector`, else ``None``.  A
        #: behaviour switch, not an observer: it changes the agreement
        #: protocol, and the redistribution session start arms it.
        self.fault_injector = None
        #: ctx_ids of communicators abandoned by a recovery policy; their
        #: leftover traffic is excused at endpoint close.
        self.aborted_ctxs: set[int] = set()
        #: every window created in this world (rank deaths fail their ops).
        self.windows: list = []

    # ------------------------------------------------------------------ launch
    def launch(
        self,
        func: Callable[..., Any],
        slots: Sequence[int],
        args: tuple = (),
        name_prefix: str = "rank",
        parent_intercomm_info: Optional[tuple[int, Sequence[int]]] = None,
    ) -> LaunchResult:
        """Create a process group running ``func(ctx, *args)`` on ``slots``.

        ``parent_intercomm_info`` — ``(inter_ctx_id, parent_gids)`` — is used
        by ``comm_spawn`` to hand the children their side of the parent
        inter-communicator.
        """
        from .context import RankCtx

        slots = list(slots)
        if not slots:
            raise ValueError("launch needs at least one slot")
        gids = [next(self._gids) for _ in slots]
        ctx_id = next(self._ctx_ids)
        comm = Communicator(ctx_id, gids, name=f"{name_prefix}-world{ctx_id}")
        parent = None
        if parent_intercomm_info is not None:
            inter_ctx_id, parent_gids = parent_intercomm_info
            parent = Communicator(
                inter_ctx_id,
                gids,
                remote_group=tuple(parent_gids),
                name=f"spawn{inter_ctx_id}.child",
            )
        contexts = []
        procs = []
        for rank, (gid, slot) in enumerate(zip(gids, slots)):
            node = self.machine.node_for_slot(slot)
            ep = Endpoint(self, gid, node)
            self.endpoints[gid] = ep
            self.slot_of[gid] = slot
            ctx = RankCtx(self, gid=gid, slot=slot, comm_world=comm, parent=parent)
            contexts.append(ctx)
        for rank, ctx in enumerate(contexts):
            gen = func(ctx, *args)
            proc = self.sim.spawn(gen, name=f"{name_prefix}{rank}.g{gids[rank]}")
            proc.context["node"] = ctx.node
            proc.context["rank_gid"] = gids[rank]
            ctx.proc = proc
            procs.append(proc)
            self._watch_rank(proc, gids[rank])
        return LaunchResult(comm=comm, procs=procs, contexts=contexts)

    def _watch_rank(self, proc: SimProcess, gid: int) -> None:
        """Propagate an external kill of a rank's main process into the
        failure layer: peers see :class:`CommFailedError` instead of
        deadlocking on traffic that can never complete.  Normal completion
        (``done``/``failed``) is *not* a communication failure — finalize
        semantics already cover it."""

        def on_done(_ev):
            if proc.state == SimProcess._KILLED:
                self.mark_ranks_dead([gid], reason=f"rank gid={gid} was killed")

        proc.done_event.add_callback(on_done)

    # --------------------------------------------------------------- transport
    def next_chan_seq(self, src_gid: int, dst_gid: int) -> int:
        key = (src_gid, dst_gid)
        seq = self._chan_seq.get(key, 0)
        self._chan_seq[key] = seq + 1
        return seq

    def channel_spec(self, src_gid: int, dst_gid: int) -> FabricSpec:
        """Which fabric's parameters govern a (src,dst) message."""
        src_node = self.endpoints[src_gid].node
        dst_node = self.endpoints[dst_gid].node
        if src_node.node_id == dst_node.node_id:
            return self.machine.memory_channel
        return self.machine.fabric

    def inject(self, msg: Message, label: str = "") -> None:
        """Start a message: choose eager vs rendezvous and kick it off."""
        if msg.dst_gid in self.dead_gids:
            msg.send_req._fail(
                CommFailedError(
                    f"send to dead rank gid={msg.dst_gid}", dead_gids=[msg.dst_gid]
                )
            )
            return
        endpoints = self.endpoints
        src_node = endpoints[msg.src_gid].node
        dst_node = endpoints[msg.dst_gid].node
        machine = self.machine
        if src_node.node_id == dst_node.node_id:
            spec = machine.memory_channel
        else:
            spec = machine.fabric
        if label:
            self.bytes_by_label[label] = self.bytes_by_label.get(label, 0.0) + msg.nbytes
        eager = msg.nbytes <= spec.eager_threshold
        if self.observers:
            for o in self.observers:
                o.on_message(msg, eager)
        if eager:
            # Eager fast lane: buffered semantics complete the send locally
            # right now, so the in-flight table — which only exists to fail
            # *pending* requests when a peer dies or a communicator aborts —
            # has nothing left to fail.  Skipping registration saves two dict
            # operations per message and shrinks the failure-layer scans;
            # staleness on arrival is decided by ``dead_gids`` alone (the
            # same verdict the table scan used to reach).
            msg.protocol = "eager"
            msg.send_req._complete(None)
            ev = machine.transfer(
                src_node, dst_node, msg.nbytes, label=("eager:", msg.msg_id)
            )
            ev.add_callback(lambda _ev: self._eager_arrived(msg, spec))
        else:
            msg.protocol = "rndv"
            self._inflight[msg.msg_id] = msg
            ev = machine.transfer(
                src_node, dst_node, 0, label=("rts:", msg.msg_id)
            )
            ev.add_callback(lambda _ev: self._rts_arrived(msg))

    def _eager_arrived(self, msg: Message, spec: FabricSpec) -> None:
        if msg.dst_gid in self.dead_gids:
            return  # receiver died; buffered data evaporates with it
        dst_ep = self.endpoints[msg.dst_gid]
        self._after_copy(msg, spec, lambda: dst_ep.deliver_eager(msg))

    def _rts_arrived(self, msg: Message) -> None:
        if msg.msg_id not in self._inflight:
            return  # retired while in flight (peer died)
        if msg.dst_gid in self.dead_gids:
            self._inflight.pop(msg.msg_id, None)
            msg.send_req._fail(
                CommFailedError(
                    f"receiver rank gid={msg.dst_gid} died before rendezvous",
                    dead_gids=[msg.dst_gid],
                )
            )
            return
        self.endpoints[msg.dst_gid].rts_arrived(msg)

    def _after_copy(self, msg: Message, spec: FabricSpec, deliver) -> None:
        """Charge the receiver's CPU for the payload touch-copy, then
        deliver.  On CPU-bound transports (Ethernet/TCP) an oversubscribed
        receiving node therefore also slows incoming traffic; RDMA fabrics
        set a copy rate high enough to make this negligible."""
        if spec.copy_rate <= 0 or msg.nbytes <= 0:
            deliver()
            return
        dst_node = self.endpoints[msg.dst_gid].node
        dst_node.submit(msg.nbytes / spec.copy_rate, deliver,
                        label=("rxcopy:", msg.msg_id))

    def _send_cts(self, msg: Message) -> None:
        src_ep = self.endpoints[msg.src_gid]
        dst_ep = self.endpoints[msg.dst_gid]
        ev = self.machine.transfer(
            dst_ep.node, src_ep.node, 0, label=("cts:", msg.msg_id)
        )
        ev.add_callback(lambda _ev: self._cts_arrived(msg))

    def _cts_arrived(self, msg: Message) -> None:
        if msg.msg_id not in self._inflight:
            return  # retired while in flight (peer died)
        if msg.src_gid in self.dead_gids:
            # The sender died before it could stream; the claimed receive can
            # never complete.
            self._inflight.pop(msg.msg_id, None)
            if msg.recv_req is not None:
                msg.recv_req._fail(
                    CommFailedError(
                        f"sender rank gid={msg.src_gid} died before payload",
                        dead_gids=[msg.src_gid],
                    )
                )
            return
        self.endpoints[msg.src_gid].cts_arrived(msg)

    def _start_payload(self, msg: Message) -> None:
        src_ep = self.endpoints[msg.src_gid]
        dst_ep = self.endpoints[msg.dst_gid]
        spec = self.channel_spec(msg.src_gid, msg.dst_gid)
        ev = self.machine.transfer(
            src_ep.node, dst_ep.node, msg.nbytes, label=("data:", msg.msg_id)
        )
        ev.add_callback(lambda _ev: self._payload_arrived(msg, spec))

    def _payload_arrived(self, msg: Message, spec: FabricSpec) -> None:
        if msg.msg_id not in self._inflight:
            return  # retired while in flight (peer died)
        if msg.dst_gid in self.dead_gids:
            self._inflight.pop(msg.msg_id, None)
            msg.send_req._fail(
                CommFailedError(
                    f"receiver rank gid={msg.dst_gid} died mid-payload",
                    dead_gids=[msg.dst_gid],
                )
            )
            return
        # A sender dying *after* the payload fully streamed still counts as a
        # committed delivery — the bytes are on the wire and in the buffer.
        dst_ep = self.endpoints[msg.dst_gid]
        self._after_copy(msg, spec, lambda: dst_ep.payload_arrived(msg))

    # ------------------------------------------------------------- world ops
    def pending_op(
        self, key: str, expected: int, participants: Optional[Iterable[int]] = None
    ) -> _PendingOp:
        """Fetch-or-create the rendezvous record of a world-level collective.

        ``participants`` (gids) lets the failure layer abort the op when a
        participant dies before arriving, instead of the survivors waiting
        forever at the rendezvous.
        """
        op = self._ops.get(key)
        if op is None:
            op = _PendingOp(self.sim, expected, name=key)
            self._ops[key] = op
        elif op.expected != expected:
            raise RuntimeError(
                f"collective mismatch on {key}: {op.expected} vs {expected} participants"
            )
        if participants is not None:
            op.participants.update(participants)
            # A participant may have died *before* the first survivor reached
            # this rendezvous (the op record did not exist yet when
            # mark_ranks_dead swept pending ops) — fail it right here so the
            # survivors raise instead of waiting forever.  The record stays
            # registered: later arrivals must observe the same failed event,
            # not re-create a fresh rendezvous nobody can complete.
            implicated = sorted(g for g in op.participants if g in self.dead_gids)
            if implicated and op.event.pending:
                op.event.fail(
                    CommFailedError(
                        f"collective {key} aborted — participant died "
                        f"before the rendezvous",
                        dead_gids=implicated,
                    )
                )
        return op

    def finish_op(self, key: str) -> None:
        self._ops.pop(key, None)

    # ---------------------------------------------------------- failure layer
    def mark_ranks_dead(self, gids: Iterable[int], reason: str = "rank died") -> None:
        """Record rank deaths and propagate them to every survivor.

        Outstanding traffic and rendezvous touching a dead rank completes *in
        error* (``CommFailedError``) so blocked peers are woken rather than
        deadlocked:

        * in-flight messages **to** a dead rank fail their send request;
        * claimed rendezvous **from** a dead rank fail the matched receive;
        * eager payloads already committed at injection still deliver
          (buffered semantics — the data left the sender before it died);
        * survivor endpoints fail posted receives that can never match and
          drop announcements/handshakes involving the dead rank;
        * pending world-level collectives (spawn/merge) with a dead
          participant fail for everyone still waiting at the rendezvous;
        * puts/gets of an open epoch to a dead target fail, so the origin's
          flush returns (the target-side copy died with the node).
        """
        new = sorted(g for g in dict.fromkeys(gids) if g not in self.dead_gids)
        if not new:
            return
        self.dead_gids.update(new)
        dead = self.dead_gids
        # 1. in-flight point-to-point traffic
        for msg_id, msg in list(self._inflight.items()):
            src_dead = msg.src_gid in dead
            dst_dead = msg.dst_gid in dead
            if not (src_dead or dst_dead):
                continue
            if dst_dead:
                del self._inflight[msg_id]
                msg.send_req._fail(
                    CommFailedError(
                        f"{reason}: message to dead rank gid={msg.dst_gid}",
                        dead_gids=[msg.dst_gid],
                    )
                )
            elif msg.protocol != "eager":
                # Rendezvous from a dead sender can never stream.
                del self._inflight[msg_id]
                if msg.recv_req is not None:
                    msg.recv_req._fail(
                        CommFailedError(
                            f"{reason}: sender rank gid={msg.src_gid} died",
                            dead_gids=[msg.src_gid],
                        )
                    )
            # eager from a dead sender: keep — the payload was committed
            # (buffered) at injection and still delivers.
        # 2. survivor endpoints
        for gid, ep in self.endpoints.items():
            if gid not in dead:
                ep.on_peer_dead(dead, reason)
        # 3. pending world-level collectives
        for key, op in list(self._ops.items()):
            implicated = sorted(op.participants & dead)
            if implicated and op.event.pending:
                del self._ops[key]
                op.event.fail(
                    CommFailedError(
                        f"{reason}: collective {key} aborted — participant died",
                        dead_gids=implicated,
                    )
                )
        # 4. one-sided operations of open epochs against a dead target
        for win in self.windows:
            win.fail_ops_to(dead, reason)

    def terminate_ranks(self, gids: Iterable[int], reason: str = "terminated") -> None:
        """Kill the main processes of ``gids`` *synchronously* and mark them
        dead.  Used by recovery policies to revoke a half-spawned or
        abandoned group (the simulation analogue of ``MPIX_Comm_revoke`` plus
        ``MPI_Abort`` on the doomed side)."""
        gids = list(gids)
        for gid in gids:
            ep = self.endpoints.get(gid)
            if ep is None:
                continue
            for proc in list(self.sim._processes):
                if proc.alive and proc.context.get("rank_gid") == gid:
                    self.sim.kill_now(proc, reason=reason)
        self.mark_ranks_dead(gids, reason=reason)

    def abort_comm(self, comm: Communicator) -> None:
        """Abandon ``comm`` mid-session (a recovery policy gave up on it).

        Leftover traffic on the context is excused at endpoint close, and —
        crucially — every *outstanding* operation pinned to it completes in
        error right now: a member still blocked inside one of the aborted
        communicator's collectives would otherwise wait forever for a peer
        that already fell out of the session.  Idempotent; every rank of a
        recovering group may call this."""
        ctx = comm.ctx_id
        if ctx in self.aborted_ctxs:
            return
        self.aborted_ctxs.add(ctx)
        reason = f"communicator {comm.name} aborted by recovery"
        # In-flight messages keep flowing — their sequence numbers must pass
        # the receivers' FIFO gates (the dispatch layer drops them) — but
        # their requests complete in error immediately.
        for msg_id in sorted(
            m_id for m_id, m in self._inflight.items() if m.ctx_id == ctx
        ):
            msg = self._inflight[msg_id]
            msg.send_req._fail(CommFailedError(reason))
            if msg.recv_req is not None:
                msg.recv_req._fail(CommFailedError(reason))
        for gid in sorted(comm.members):
            if gid in self.dead_gids:
                continue
            ep = self.endpoints.get(gid)
            if ep is not None:
                ep.on_comm_aborted(ctx, reason)

    def retire_msg(self, msg: Message) -> None:
        """A message reached its final receive; drop it from the in-flight
        table (called by the endpoint on delivery)."""
        self._inflight.pop(msg.msg_id, None)

    def spawn_failure(self, slots: Sequence[int]) -> Optional[SpawnFailedError]:
        """Decide whether this ``comm_spawn`` launch attempt fails.

        Consumes one attempt index (issue order — deterministic) against the
        fault schedule's ``fail_spawns`` set, and rejects placements landing
        on failed nodes regardless of the schedule.
        """
        attempt = self._spawn_attempts
        self._spawn_attempts += 1
        if attempt in self.fail_spawns:
            return SpawnFailedError(
                f"spawn attempt #{attempt} failed (injected spawn fault)"
            )
        bad = sorted(
            {
                self.machine.node_for_slot(s).node_id
                for s in slots
                if getattr(self.machine.node_for_slot(s), "failed", False)
            }
        )
        if bad:
            return SpawnFailedError(
                f"spawn attempt #{attempt} targets failed node(s) {bad}"
            )
        return None

    # ---------------------------------------------------------------- helpers
    def nodes_of_slots(self, slots: Iterable[int]) -> int:
        return len({self.machine.node_for_slot(s).node_id for s in slots})


def run_spmd(
    func: Callable[..., Any],
    n: int,
    machine: Optional[Machine] = None,
    *,
    n_nodes: int = 2,
    cores_per_node: int = 2,
    fabric: Optional[FabricSpec] = None,
    spawn_model: Optional[SpawnModel] = None,
    args: tuple = (),
    seed: int = 0,
) -> tuple[list[Any], Simulator]:
    """Convenience: run ``func`` as an ``n``-rank SPMD job to completion.

    Returns ``(per-rank results, simulator)``; ``sim.now`` is the makespan.
    Used pervasively by tests and examples.
    """
    from ..cluster.fabrics import ETHERNET_10G

    if machine is None:
        sim = Simulator()
        machine = Machine(
            sim, n_nodes, cores_per_node, fabric or ETHERNET_10G, seed=seed
        )
    world = MpiWorld(machine, spawn_model=spawn_model)
    res = world.launch(func, slots=range(n), args=args)
    machine.sim.run()
    return [p.result for p in res.procs], machine.sim
