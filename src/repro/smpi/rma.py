"""One-sided communication (MPI-3 RMA subset): passive-target shared epochs.

The third transport beside point-to-point and collectives, cut to what the
RMA redistribution issues: a collective ``win_create``, one shared lock
epoch per ``(origin, target)`` pair (``win_ilock`` … ``win_unlock``), puts
and gets inside it, ``win_flush`` of one target's epoch, and the
completed-op notification counters redistribution uses to detect
completeness without two-sided matching.  :class:`RmaOps` is the one-sided
half of the per-rank API (:class:`~repro.smpi.context.RankCtx` inherits
it).

Every lock is shared (``MPI_LOCK_SHARED``), so a request is granted the
moment it reaches its target: no request ever queues and the target keeps
no lock word.  A put, get or flush outside an open epoch to its target is
a usage error and raises :class:`ValueError`.

Each rank exposes one object, or ``None`` to expose nothing.  An exposure
answers three calls: ``apply_put(payload)`` lands a put,
``read(offset, count)`` serves a get, and ``read_nbytes(offset, count)``
prices that get on the wire.

Progress follows the same rendezvous-progress rule as two-sided traffic:
payloads **larger than the fabric's eager threshold** on a non-RDMA fabric
only land while the target rank is *inside an MPI call* (its progress
engine is active), exactly like MPICH's software-agent RMA over CH3.
RDMA-capable fabrics (``FabricSpec.rdma``) complete in hardware and never
defer.

The simulation is forgiving about origin buffers (puts snapshot their
payload at issue time, gets when the target serves them); the *strict*
MPI rule — the origin buffer is off-limits until the epoch is flushed —
is enforced by the sanitizer's epoch-aware SAN001 fingerprinting instead
(:mod:`repro.sanitize.runtime`).
"""

from __future__ import annotations

from typing import Any, Optional

from ..cluster.cpu import Compute
from ..simulate.events import SimEvent
from ..simulate.primitives import AllOf, WaitEvent
from .communicator import Communicator
from .datatypes import copy_payload, payload_nbytes
from .errors import CommFailedError

__all__ = ["Window", "RmaOps"]


class Window:
    """A window over one communicator: one exposure object per rank.

    Created collectively via ``mpi.win_create(exposure)``; the same Window
    instance is shared by every member (read-mostly).
    """

    def __init__(self, world, comm: Communicator, exposures: dict[int, Any]):
        # Drawn from the *world's* counter, not a class-global one: win_id
        # feeds metric labels (rma.epoch_seconds / lock_wait_seconds), so a
        # process-global count would leak how many windows earlier runs in
        # the same process created — breaking metrics byte-identity between
        # sequential sweeps and fleet workers.
        self.win_id = next(world._win_ids)
        self.world = world
        self.comm = comm
        #: gid -> exposure object (None for ranks exposing nothing).  Keyed
        #: by gid so inter-communicator windows (Baseline redistribution)
        #: cannot collide the two sides' rank numberings.
        self.exposures = exposures
        #: completed one-sided ops *observed at* each member gid: puts that
        #: landed there plus gets served from its exposure (the notify
        #: counters behind :meth:`notification_event`).
        self.puts_received: dict[int, int] = {g: 0 for g in comm.members}
        self._watchers: list[tuple[int, int, SimEvent]] = []
        #: (origin_gid, target_gid) of lock requests still waiting for
        #: their grant.
        self._lock_requests: set[tuple[int, int]] = set()
        #: (origin_gid, target_gid) -> open epoch: (grant time, ops issued
        #: in it — the flush set).
        self._epochs: dict[tuple[int, int], tuple[float, list[SimEvent]]] = {}
        world.windows.append(self)

    # -------------------------------------------------------------- plumbing
    def peer_gid(self, origin_gid: int, rank: int) -> int:
        """gid of the member ``origin_gid`` calls ``rank``.

        The shared handle keeps whichever side's communicator arrived last;
        on an inter-communicator window the other side's ranks name the
        handle's *local* group, so resolve from the caller's side."""
        comm = self.comm
        if comm.is_inter and not comm.contains_gid(origin_gid):
            if not 0 <= rank < comm.size:
                raise IndexError(
                    f"{comm.name}: peer rank {rank} out of range "
                    f"0..{comm.size - 1}"
                )
            return comm.group[rank]
        return comm.peer_gid(rank)

    def _notify_put(self, target_gid: int) -> None:
        self.puts_received[target_gid] += 1
        fired = []
        for i, (gid, threshold, ev) in enumerate(self._watchers):
            if gid == target_gid and self.puts_received[gid] >= threshold:
                fired.append(i)
                ev.trigger(self.puts_received[gid])
        for i in reversed(fired):
            self._watchers.pop(i)

    def notification_event(self, gid: int, threshold: int) -> SimEvent:
        """Event that fires when member ``gid`` has observed >= threshold
        completed one-sided ops (puts landed there, gets served from it).

        The RMA-with-notification completeness pattern: a member waits for
        exactly as many ops as its redistribution plan predicts.
        """
        ev = self.world.sim.event(name=f"win{self.win_id}-notify-{gid}")
        if self.puts_received[gid] >= threshold:
            ev.trigger(self.puts_received[gid])
        else:
            self._watchers.append((gid, threshold, ev))
        return ev

    # ---------------------------------------------------------------- epochs
    def epoch_t0(self, origin_gid: int, target_gid: int) -> Optional[float]:
        """Simulated time the open ``origin -> target`` epoch was granted,
        or ``None`` when no epoch is open."""
        rec = self._epochs.get((origin_gid, target_gid))
        return rec[0] if rec is not None else None

    def epoch_pending(self, origin_gid: int, target_gid: int) -> list[SimEvent]:
        """In-flight ops of the open ``origin -> target`` epoch."""
        return [ev for ev in self._epochs[(origin_gid, target_gid)][1] if ev.pending]

    def _track(self, ev: SimEvent, origin_gid: int, target_gid: int) -> None:
        """Record an issued put/get: the flush of its epoch waits for it."""
        self._epochs[(origin_gid, target_gid)][1].append(ev)

    def fail_ops_to(self, dead: set[int], reason: str) -> None:
        """Complete in error every in-flight epoch op against a dead target
        (its landing may have been lost with the node)."""
        for (_origin, target), (_t0, ops) in sorted(self._epochs.items()):
            if target in dead:
                for ev in ops:
                    if ev.pending:
                        ev.fail(CommFailedError(
                            f"{reason}: one-sided op to dead rank gid={target}",
                            dead_gids=[target],
                        ))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Window {self.win_id} over {self.comm.name}>"


class RmaOps:
    """The one-sided half of the per-rank MPI API.

    :class:`~repro.smpi.context.RankCtx` inherits it; the methods use the
    rank's ``world``, ``sim``, ``machine``, ``gid`` and ``node``, its
    blocking wait ``_polling_block`` and its world rendezvous
    ``_rendezvous``.  Every put, get and lock names its target by rank in
    the window's communicator and returns its completion event, which fails
    with :class:`~repro.smpi.errors.CommFailedError` when the target is
    dead at issue or dies before the op completes there.
    """

    def win_create(self, exposure: Any, comm: Optional[Communicator] = None):
        """Collective window creation (``MPI_Win_create`` shape) over every
        member of ``comm``; each rank passes its exposure (see the module
        docstring).  Returns the shared :class:`Window`."""
        comm = self._comm(comm)
        world = self.world

        def join(op) -> None:
            op.result[self.gid] = exposure

        def complete(op):
            return world.spawn_model.merge_cost, lambda: Window(world, comm, op.result)

        win = yield from self._polling_block(
            WaitEvent(self._rendezvous("win", comm, complete, join))
        )
        return win

    # ---------------------------------------------------------- shared rules
    def _rma_count(self, kind: str) -> None:
        for o in self.world.observers:
            o.on_rma(kind)

    def _epoch_target(self, win: Window, target_rank: int, op: str) -> int:
        """gid of ``target_rank``; raises unless I hold an epoch to it."""
        dst_gid = win.peer_gid(self.gid, target_rank)
        if (self.gid, dst_gid) not in win._epochs:
            raise ValueError(f"{op}: no epoch open to rank {target_rank}")
        return dst_gid

    def _dead_end(self, ev: SimEvent, dst_gid: int, message: str, rank: int) -> bool:
        """Whether ``ev`` can no longer complete: it already ended, or its
        target ``dst_gid`` is dead and ``ev`` fails now with ``message``
        (formatted with the target's ``rank``)."""
        if not ev.pending:
            return True
        if dst_gid not in self.world.dead_gids:
            return False
        ev.fail(CommFailedError(message.format(rank), dead_gids=[dst_gid]))
        return True

    def _at_target(self, spec, size: int, dst_ep, step) -> None:
        """Run the target side of an op: now, or — a rendezvous-sized op on
        a non-RDMA fabric (software-agent RMA) — when the target next
        enters MPI."""
        if (not spec.rdma and size > spec.eager_threshold
                and not dst_ep.progress):
            dst_ep.pending_rma.append(step)
            for o in self.world.observers:
                o.on_rma_deferred()
        else:
            step()

    # ------------------------------------------------------------ put / get
    def win_put(self, win: Window, target_rank: int, payload: Any,
                nbytes: Optional[int] = None, label: str = ""):
        """One-sided put inside my epoch to ``target_rank``: ships
        ``payload`` to the target's exposure under the rendezvous-progress
        rule (:meth:`_at_target`).  Returns the completion event (the
        epoch's flush waits for it)."""
        dst_gid = self._epoch_target(win, target_rank, "win_put")
        world = self.world
        self._rma_count("put")
        done = self.sim.event(name=f"put@{win.win_id}->{target_rank}")
        if self._dead_end(done, dst_gid, "win_put to dead rank {}", target_rank):
            win._track(done, self.gid, dst_gid)
            return done
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        spec = world.channel_spec(self.gid, dst_gid)
        if spec.cpu_overhead > 0:
            yield Compute(spec.cpu_overhead)
        dst_ep = world.endpoints[dst_gid]
        dst_node = dst_ep.node
        if label:
            world.bytes_by_label[label] = world.bytes_by_label.get(label, 0.0) + size
        flow_done = self.machine.transfer(
            self.node, dst_node, size, label=f"rma-put:{label or size}"
        )
        snapshot = copy_payload(payload)
        exposure = win.exposures.get(dst_gid)

        def apply() -> None:
            if self._dead_end(done, dst_gid,
                              "win_put target rank {} died in flight", target_rank):
                return
            if exposure is not None:
                exposure.apply_put(snapshot)
            win._notify_put(dst_gid)
            done.trigger(None)

        def begin() -> None:
            # The target-side copy still costs target CPU on CPU-bound
            # fabrics (RDMA fabrics make it negligible via copy_rate).
            if spec.copy_rate > 0 and size > 0:
                dst_node.submit(size / spec.copy_rate, apply,
                                label=f"rma-copy:{label or size}")
            else:
                apply()

        for o in world.observers:
            o.on_win_put(self, win, target_rank, payload, done)
        flow_done.add_callback(
            lambda _ev: self._at_target(spec, size, dst_ep, begin)
        )
        win._track(done, self.gid, dst_gid)
        return done

    def win_iget(self, win: Window, target_rank: int, offset: int, count: int,
                 label: str = ""):
        """Non-blocking one-sided get inside my epoch to ``target_rank``:
        request latency out, data flow back.

        Returns the completion event; it triggers with the data read from
        the target's exposure at response time.  The response obeys the
        rendezvous-progress rule with the *data holder* as the side that
        must be inside MPI — the target-driven mirror of :meth:`win_put`."""
        dst_gid = self._epoch_target(win, target_rank, "win_iget")
        world = self.world
        dst_ep = world.endpoints[dst_gid]
        dst_node = dst_ep.node
        exposure = win.exposures.get(dst_gid)
        if exposure is None:
            raise ValueError(f"rank {target_rank} exposes nothing in {win!r}")
        self._rma_count("get")
        done = self.sim.event(name=f"get@{win.win_id}<-{target_rank}")
        if self._dead_end(done, dst_gid, "win_get from dead rank {}", target_rank):
            win._track(done, self.gid, dst_gid)
            return done
        spec = world.channel_spec(self.gid, dst_gid)
        if spec.cpu_overhead > 0:
            yield Compute(spec.cpu_overhead)
        size = exposure.read_nbytes(offset, count)

        def serve() -> None:
            if self._dead_end(done, dst_gid,
                              "win_get target rank {} died in flight", target_rank):
                return
            # Snapshot at serve time, as puts do at issue time: the
            # exposer is notified now and may write before the data lands.
            data = copy_payload(exposure.read(offset, count))
            if label:
                world.bytes_by_label[label] = world.bytes_by_label.get(label, 0.0) + size
            # One op observed at the exposer: target-driven sessions
            # use this to learn their data was fully served.
            win._notify_put(dst_gid)
            back = self.machine.transfer(
                dst_node, self.node, size, label=f"rma-get:{label or size}"
            )

            def landed(_e) -> None:
                if done.pending:
                    done.trigger(data)

            back.add_callback(landed)

        req_flow = self.machine.transfer(self.node, dst_node, 0, label="rma-get-req")
        req_flow.add_callback(
            lambda _ev: self._at_target(spec, size, dst_ep, serve)
        )
        win._track(done, self.gid, dst_gid)
        return done

    # ------------------------------------------------- passive-target epochs
    def win_ilock(self, win: Window, target_rank: int):
        """Begin acquiring a shared passive-target lock (``MPI_Win_lock``
        with ``MPI_LOCK_SHARED``).

        Returns the grant event; the epoch is open once it triggers.  The
        request travels to the target (one control-message latency), is
        granted on arrival, and the grant travels back — no target-side MPI
        call is needed to grant.  A second request to the same target while
        one is open or still waiting for its grant raises
        :class:`ValueError`."""
        dst_gid = win.peer_gid(self.gid, target_rank)
        world = self.world
        key = (self.gid, dst_gid)
        if key in win._epochs or key in win._lock_requests:
            raise ValueError(
                f"win_lock: an epoch to rank {target_rank} is already open "
                f"or requested"
            )
        self._rma_count("lock")
        for o in world.observers:
            o.on_win_lock(self, win, target_rank)
        granted = self.sim.event(name=f"lock@{win.win_id}->{target_rank}")
        if self._dead_end(granted, dst_gid, "win_lock to dead rank {}", target_rank):
            return granted
        win._lock_requests.add(key)
        spec = world.channel_spec(self.gid, dst_gid)
        if spec.cpu_overhead > 0:
            yield Compute(spec.cpu_overhead)
        origin_node = self.node
        dst_node = world.endpoints[dst_gid].node
        t0 = self.sim.now

        def opened(_e) -> None:
            win._lock_requests.discard(key)
            if self._dead_end(granted, dst_gid,
                              "win_lock target rank {} died", target_rank):
                return
            win._epochs[key] = (self.sim.now, [])
            for o in world.observers:
                o.on_win_lock_granted(win, t0)
            granted.trigger(None)

        def arrived(_e) -> None:
            self.machine.transfer(
                dst_node, origin_node, 0, label="rma-lock-grant"
            ).add_callback(opened)

        self.machine.transfer(
            origin_node, dst_node, 0, label="rma-lock"
        ).add_callback(arrived)
        return granted

    def win_flush(self, win: Window, target_rank: int):
        """Wait until my epoch's operations to ``target_rank`` completed
        **at the target** (``MPI_Win_flush``).  The epoch stays open."""
        dst_gid = self._epoch_target(win, target_rank, "win_flush")
        self._rma_count("flush")
        pending = win.epoch_pending(self.gid, dst_gid)
        if pending:
            yield from self._polling_block(AllOf(pending))
        # The origin buffers of this epoch's puts become reusable exactly
        # now (a sanitizer checks them: epoch-aware SAN001).
        for o in self.world.observers:
            o.on_win_flush(self, win, target_rank)

    def win_unlock(self, win: Window, target_rank: int):
        """Close the passive-target epoch (``MPI_Win_unlock``): flush every
        operation of the epoch, then send the release to the target."""
        dst_gid = self._epoch_target(win, target_rank, "win_unlock")
        yield from self.win_flush(win, target_rank)
        world = self.world
        self._rma_count("unlock")
        for o in world.observers:
            o.on_win_unlock(self, win, target_rank)
        win._epochs.pop((self.gid, dst_gid), None)
        spec = world.channel_spec(self.gid, dst_gid)
        if spec.cpu_overhead > 0:
            yield Compute(spec.cpu_overhead)
        if dst_gid in world.dead_gids:
            return
        # The release is modelled wire traffic; a shared lock has no lock
        # word for it to update at the target.
        self.machine.transfer(
            self.node, world.endpoints[dst_gid].node, 0, label="rma-unlock"
        )
