"""One-sided communication (MPI-3 RMA subset) with passive-target epochs.

A full third transport beside point-to-point and collectives: a
:class:`Window` carries per-target **lock queues** (``MPI_Win_lock``
shared/exclusive semantics), per-``(origin, target)`` epoch bookkeeping
for ``MPI_Win_flush``, and the completed-op notification counters
redistribution uses to detect completeness without two-sided matching.
:class:`RmaOps` is the one-sided half of the per-rank API
(:class:`~repro.smpi.context.RankCtx` inherits it): ``win_create``,
``win_put``, ``win_iget``/``win_get``, ``win_ilock``/``win_lock``,
``win_flush``, ``win_unlock`` and ``win_fence``.

Each rank exposes one object, or ``None`` to expose nothing.  An exposure
answers three calls: ``apply_put(payload)`` lands a put,
``read(offset, count)`` serves a get, and ``read_nbytes(offset, count)``
prices that get on the wire.  :class:`ArrayExposure` is the numpy one.

Progress semantics (the part that shapes the 18-config sweep):

* **active target** (put/get outside any lock epoch, synchronised by
  ``win_fence``) keeps the original model — the payload lands without any
  target-side MPI call;
* **passive target** (inside a ``win_lock`` epoch) follows the same
  rendezvous-progress rule as two-sided traffic: payloads **larger than
  the fabric's eager threshold** on a non-RDMA fabric only land while the
  target rank is *inside an MPI call* (its progress engine is active),
  exactly like MPICH's software-agent RMA over CH3.  RDMA-capable fabrics
  (``FabricSpec.rdma``) complete in hardware and never defer.

The simulation is forgiving about origin buffers (puts snapshot their
payload at issue time, gets when the target serves them); the *strict*
MPI rule — the origin buffer is off-limits until the epoch is flushed —
is enforced by the sanitizer's epoch-aware SAN001 fingerprinting instead
(:mod:`repro.sanitize.runtime`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..cluster.cpu import Compute
from ..simulate.events import SimEvent
from ..simulate.primitives import AllOf, WaitEvent
from .communicator import Communicator
from .datatypes import copy_payload, payload_nbytes
from .errors import CommFailedError

__all__ = ["Window", "ArrayExposure", "RmaOps", "LOCK_SHARED", "LOCK_EXCLUSIVE"]

#: lock mode constants (``MPI_LOCK_SHARED`` / ``MPI_LOCK_EXCLUSIVE``).
LOCK_SHARED = "shared"
LOCK_EXCLUSIVE = "exclusive"


class ArrayExposure:
    """Adapter exposing a numpy array through a window.

    Puts carry ``(offset, values)`` tuples; gets read slices (views: the
    transport snapshots them when the get is served).
    """

    def __init__(self, array):
        self.array = array

    def apply_put(self, payload) -> None:
        offset, values = payload
        self.array[offset : offset + len(values)] = values

    def read(self, offset: int, count: int):
        return self.array[offset : offset + count]

    def read_nbytes(self, offset: int, count: int) -> int:
        return count * self.array.itemsize


class _TargetLock:
    """The lock word of one window member: holders + FIFO waiter queue.

    Grants are deterministic: requests are queued in (simulated) arrival
    order; a release grants the head of the queue, and consecutive shared
    requests behind a granted shared head are granted with it.
    """

    __slots__ = ("mode", "holders", "queue")

    def __init__(self) -> None:
        #: None (unlocked) | LOCK_SHARED | LOCK_EXCLUSIVE.
        self.mode: Optional[str] = None
        #: origin gids currently holding the lock (insertion-ordered).
        self.holders: list[int] = []
        #: waiting (origin_gid, exclusive, grant_callback) in arrival order.
        self.queue: list[tuple[int, bool, Callable[[], None]]] = []

    def request(self, origin: int, exclusive: bool, grant: Callable[[], None]) -> bool:
        """One lock request arrived at the target; grant now (True) or
        enqueue (False)."""
        wanted = LOCK_EXCLUSIVE if exclusive else LOCK_SHARED
        if self.mode is None or (
            not self.queue and wanted == LOCK_SHARED and self.mode == LOCK_SHARED
        ):
            self.mode = wanted
            self.holders.append(origin)
            grant()
            return True
        self.queue.append((origin, exclusive, grant))
        return False

    def release(self, origin: int) -> None:
        """The unlock of ``origin`` arrived; hand the lock to the queue."""
        self.holders.remove(origin)
        if self.holders:
            return  # other shared holders keep the lock
        self.mode = None
        if not self.queue:
            return
        origin2, exclusive, grant = self.queue.pop(0)
        self.mode = LOCK_EXCLUSIVE if exclusive else LOCK_SHARED
        self.holders.append(origin2)
        grant()
        if self.mode == LOCK_SHARED:
            # Grant every consecutive shared waiter with the head.
            while self.queue and not self.queue[0][1]:
                origin3, _, grant3 = self.queue.pop(0)
                self.holders.append(origin3)
                grant3()


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
        #: in-flight one-sided operations (cleared by fences).
        self._pending: list[SimEvent] = []
        #: completed one-sided ops *observed at* each member gid: puts that
        #: landed there plus gets served from its exposure (the notify
        #: counters behind :meth:`notification_event`).
        self.puts_received: dict[int, int] = {g: 0 for g in comm.members}
        self._watchers: list[tuple[int, int, SimEvent]] = []
        #: per-target-gid passive-target lock word (lazily created).
        self._locks: dict[int, _TargetLock] = {}
        #: (origin_gid, target_gid) -> grant event of a lock request still
        #: waiting for its grant.
        self._lock_requests: dict[tuple[int, int], SimEvent] = {}
        #: (origin_gid, target_gid) -> open-epoch record: (lock mode, t0).
        self._epochs: dict[tuple[int, int], tuple[str, float]] = {}
        #: (origin_gid, target_gid) -> ops issued in the open epoch: the
        #: flush set.
        self._epoch_ops: dict[tuple[int, int], list[SimEvent]] = {}
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

    def _track(
        self, ev: SimEvent, origin_gid: int, target_gid: int, in_epoch: bool
    ) -> None:
        """Record an issued put/get: fences wait for it, and so does the
        flush of the ``origin -> target`` epoch it was issued in."""
        self._pending.append(ev)
        if in_epoch:
            self._epoch_ops[(origin_gid, target_gid)].append(ev)

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

    def pending_ops(self) -> list[SimEvent]:
        return [ev for ev in self._pending if ev.pending]

    def drain_completed(self) -> None:
        self._pending = [ev for ev in self._pending if ev.pending]

    # ----------------------------------------------------- passive-target API
    def lock_state(self, target_gid: int) -> _TargetLock:
        """The (lazily created) lock word of one window member."""
        lock = self._locks.get(target_gid)
        if lock is None:
            lock = self._locks[target_gid] = _TargetLock()
        return lock

    def epoch_mode(self, origin_gid: int, target_gid: int) -> Optional[str]:
        """Lock mode of the open ``origin -> target`` epoch, or ``None``."""
        rec = self._epochs.get((origin_gid, target_gid))
        return rec[0] if rec is not None else None

    def epoch_t0(self, origin_gid: int, target_gid: int) -> Optional[float]:
        """Simulated time the open epoch was granted, or ``None``."""
        rec = self._epochs.get((origin_gid, target_gid))
        return rec[1] if rec is not None else None

    def open_epochs(self, origin_gid: int) -> list[int]:
        """Target gids this origin currently holds an epoch to (sorted)."""
        return sorted(t for (o, t) in self._epochs if o == origin_gid)

    def _epoch_opened(
        self, origin_gid: int, target_gid: int, mode: str, t0: float
    ) -> None:
        self._epochs[(origin_gid, target_gid)] = (mode, t0)
        self._epoch_ops.setdefault((origin_gid, target_gid), [])

    def _epoch_closed(self, origin_gid: int, target_gid: int) -> None:
        self._epochs.pop((origin_gid, target_gid), None)
        self._epoch_ops.pop((origin_gid, target_gid), None)

    def epoch_pending(
        self, origin_gid: int, target_gid: Optional[int] = None
    ) -> list[SimEvent]:
        """In-flight epoch ops of one origin (optionally to one target)."""
        out = []
        for (o, t), ops in sorted(self._epoch_ops.items()):
            if o != origin_gid:
                continue
            if target_gid is not None and t != target_gid:
                continue
            out.extend(ev for ev in ops if ev.pending)
        return out

    def fail_ops_to(self, dead: set[int], reason: str) -> None:
        """Complete in error every in-flight epoch op against a dead target
        (its landing may have been lost with the node), and every lock
        request queued at a dead target's lock word (no release will ever
        reach it)."""
        for (_origin, target), ops in sorted(self._epoch_ops.items()):
            if target in dead:
                for ev in ops:
                    if ev.pending:
                        ev.fail(CommFailedError(
                            f"{reason}: one-sided op to dead rank gid={target}",
                            dead_gids=[target],
                        ))
        for target, lock in sorted(self._locks.items()):
            if target not in dead:
                continue
            for origin, _exclusive, _grant in lock.queue:
                ev = self._lock_requests.pop((origin, target))
                if ev.pending:
                    ev.fail(CommFailedError(
                        f"{reason}: lock request queued at dead rank "
                        f"gid={target}",
                        dead_gids=[target],
                    ))
            lock.queue.clear()

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

    def win_fence(self, win: Window):
        """Collective fence: every member waits until all one-sided
        operations of the epoch have completed everywhere."""
        ev = self._rendezvous(
            "fence", win.comm, lambda op: (win.pending_ops(), win.drain_completed)
        )
        yield from self._polling_block(WaitEvent(ev))

    # ---------------------------------------------------------- shared rules
    def _rma_count(self, kind: str) -> None:
        for o in self.world.observers:
            o.on_rma(kind)

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

    def _at_target(self, spec, in_epoch: bool, size: int, dst_ep, step) -> None:
        """Run the target side of an op: now, or — a rendezvous-sized op of
        a passive epoch on a non-RDMA fabric (software-agent RMA) — when
        the target next enters MPI."""
        if (in_epoch and not spec.rdma and size > spec.eager_threshold
                and not dst_ep.progress):
            dst_ep.pending_rma.append(step)
            for o in self.world.observers:
                o.on_rma_deferred()
        else:
            step()

    # ------------------------------------------------------------ put / get
    def win_put(self, win: Window, target_rank: int, payload: Any,
                nbytes: Optional[int] = None, label: str = ""):
        """One-sided put: ships ``payload`` to the target's exposure.

        Outside a lock epoch (active-target use, synchronised by fences)
        the put lands with no target-side MPI call; inside one the
        rendezvous-progress rule applies (:meth:`_at_target`).  Returns the
        completion event (tracked by the window for fences and flushes)."""
        dst_gid = win.peer_gid(self.gid, target_rank)
        world = self.world
        in_epoch = win.epoch_mode(self.gid, dst_gid) is not None
        self._rma_count("put")
        done = self.sim.event(name=f"put@{win.win_id}->{target_rank}")
        if self._dead_end(done, dst_gid, "win_put to dead rank {}", target_rank):
            win._track(done, self.gid, dst_gid, in_epoch)
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
            lambda _ev: self._at_target(spec, in_epoch, size, dst_ep, begin)
        )
        win._track(done, self.gid, dst_gid, in_epoch)
        return done

    def win_iget(self, win: Window, target_rank: int, offset: int, count: int,
                 label: str = ""):
        """Non-blocking one-sided get: request latency out, data flow back.

        Returns the completion event; it triggers with the data read from
        the target's exposure at response time.  Inside a passive-target
        epoch the response obeys the rendezvous-progress rule with the
        *data holder* as the side that must be inside MPI — the
        target-driven mirror of :meth:`win_put`."""
        dst_gid = win.peer_gid(self.gid, target_rank)
        world = self.world
        dst_ep = world.endpoints[dst_gid]
        dst_node = dst_ep.node
        exposure = win.exposures.get(dst_gid)
        if exposure is None:
            raise ValueError(f"rank {target_rank} exposes nothing in {win!r}")
        in_epoch = win.epoch_mode(self.gid, dst_gid) is not None
        self._rma_count("get")
        done = self.sim.event(name=f"get@{win.win_id}<-{target_rank}")
        if self._dead_end(done, dst_gid, "win_get from dead rank {}", target_rank):
            win._track(done, self.gid, dst_gid, in_epoch)
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
            lambda _ev: self._at_target(spec, in_epoch, size, dst_ep, serve)
        )
        win._track(done, self.gid, dst_gid, in_epoch)
        return done

    def win_get(self, win: Window, target_rank: int, offset: int, count: int,
                label: str = ""):
        """Blocking one-sided get (``win_iget`` + polling wait)."""
        done = yield from self.win_iget(win, target_rank, offset, count, label)
        data = yield from self._polling_block(WaitEvent(done))
        return data

    # ------------------------------------------------- passive-target epochs
    def win_ilock(self, win: Window, target_rank: int, exclusive: bool = False):
        """Begin acquiring a passive-target lock (``MPI_Win_lock`` shape).

        Returns the grant event; the epoch is open once it triggers.  The
        request travels to the target's lock word (one control-message
        latency), queues FIFO behind incompatible holders, and the grant
        travels back — no target-side MPI call is needed to grant.  A
        second request to the same target while one is open or still
        waiting for its grant raises :class:`ValueError`."""
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
        win._lock_requests[key] = granted
        spec = world.channel_spec(self.gid, dst_gid)
        if spec.cpu_overhead > 0:
            yield Compute(spec.cpu_overhead)
        mode = LOCK_EXCLUSIVE if exclusive else LOCK_SHARED
        origin_node = self.node
        dst_node = world.endpoints[dst_gid].node
        t0 = self.sim.now

        def opened(_e) -> None:
            win._lock_requests.pop(key, None)
            if self._dead_end(granted, dst_gid,
                              "win_lock target rank {} died", target_rank):
                return
            win._epoch_opened(self.gid, dst_gid, mode, self.sim.now)
            for o in world.observers:
                o.on_win_lock_granted(win, mode, t0)
            granted.trigger(None)

        def grant() -> None:
            self.machine.transfer(
                dst_node, origin_node, 0, label="rma-lock-grant"
            ).add_callback(opened)

        def arrived(_e) -> None:
            queued = not win.lock_state(dst_gid).request(self.gid, exclusive, grant)
            if queued and dst_gid in world.dead_gids:
                # The target died while the request was on the wire.
                win.fail_ops_to({dst_gid}, "win_lock")

        self.machine.transfer(
            origin_node, dst_node, 0, label="rma-lock"
        ).add_callback(arrived)
        return granted

    def win_lock(self, win: Window, target_rank: int, exclusive: bool = False):
        """Blocking passive-target lock: open an access epoch to one rank."""
        granted = yield from self.win_ilock(win, target_rank, exclusive)
        yield from self._polling_block(WaitEvent(granted))
        return granted

    def win_flush(self, win: Window, target_rank: Optional[int] = None):
        """Wait until my epoch's operations completed **at the target(s)**
        (``MPI_Win_flush`` / ``MPI_Win_flush_all``).  The epoch stays open."""
        dst_gid = None
        if target_rank is not None:
            dst_gid = win.peer_gid(self.gid, target_rank)
            if win.epoch_mode(self.gid, dst_gid) is None:
                raise ValueError(f"win_flush: no epoch open to rank {target_rank}")
        elif not win.open_epochs(self.gid):
            raise ValueError("win_flush: no epoch open on this window")
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
        operation of the epoch, then release the target's lock word."""
        dst_gid = win.peer_gid(self.gid, target_rank)
        if win.epoch_mode(self.gid, dst_gid) is None:
            raise ValueError(f"win_unlock: no epoch open to rank {target_rank}")
        yield from self.win_flush(win, target_rank)
        world = self.world
        self._rma_count("unlock")
        for o in world.observers:
            o.on_win_unlock(self, win, target_rank)
        win._epoch_closed(self.gid, dst_gid)
        spec = world.channel_spec(self.gid, dst_gid)
        if spec.cpu_overhead > 0:
            yield Compute(spec.cpu_overhead)
        if dst_gid in world.dead_gids:
            return
        gid = self.gid
        self.machine.transfer(
            self.node, world.endpoints[dst_gid].node, 0, label="rma-unlock"
        ).add_callback(lambda _e: win.lock_state(dst_gid).release(gid))
