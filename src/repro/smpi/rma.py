"""One-sided communication (MPI-3 RMA subset) with passive-target epochs.

Since PR 7 this is a full third transport, not just the notification
substrate: a :class:`Window` carries per-target **lock queues**
(``MPI_Win_lock`` shared/exclusive semantics), per-``(origin, target)``
epoch bookkeeping for ``MPI_Win_flush`` / ``MPI_Win_flush_local``, and the
completed-op notification counters redistribution uses to detect
completeness without two-sided matching.

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

from ..simulate.events import SimEvent
from .communicator import Communicator
from .errors import CommFailedError

__all__ = ["Window", "ArrayExposure", "LOCK_SHARED", "LOCK_EXCLUSIVE"]

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

    def request(self, origin: int, exclusive: bool, grant: Callable[[], None]) -> None:
        """One lock request arrived at the target; grant now or enqueue."""
        wanted = LOCK_EXCLUSIVE if exclusive else LOCK_SHARED
        if self.mode is None or (
            not self.queue and wanted == LOCK_SHARED and self.mode == LOCK_SHARED
        ):
            self.mode = wanted
            self.holders.append(origin)
            grant()
        else:
            self.queue.append((origin, exclusive, grant))

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
        members = tuple(comm.group) + tuple(comm.remote_group or ())
        #: completed one-sided ops *observed at* each member gid: puts that
        #: landed there plus gets served from its exposure (the notify
        #: counters behind :meth:`notification_event`).
        self.puts_received: dict[int, int] = {g: 0 for g in members}
        self._watchers: list[tuple[int, int, SimEvent]] = []
        #: per-target-gid passive-target lock word (lazily created).
        self._locks: dict[int, _TargetLock] = {}
        #: (origin_gid, target_gid) -> open-epoch record: (lock mode, t0).
        self._epochs: dict[tuple[int, int], tuple[str, float]] = {}
        #: (origin_gid, target_gid) -> in-flight ops of the open epoch,
        #: as (kind, event) with kind in {"put", "get"} — the flush set.
        self._epoch_ops: dict[tuple[int, int], list[tuple[str, SimEvent]]] = {}
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

    def _track(self, ev: SimEvent) -> None:
        self._pending.append(ev)

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

    def _track_epoch_op(
        self, origin_gid: int, target_gid: int, kind: str, ev: SimEvent
    ) -> None:
        self._epoch_ops[(origin_gid, target_gid)].append((kind, ev))

    def epoch_pending(
        self,
        origin_gid: int,
        target_gid: Optional[int] = None,
        local_only: bool = False,
    ) -> list[SimEvent]:
        """In-flight epoch ops of one origin (optionally to one target).

        ``local_only=True`` restricts to ops with a *local* completion
        requirement (gets; puts complete locally at issue time because the
        payload is snapshotted) — the ``MPI_Win_flush_local`` wait set.
        """
        out = []
        for (o, t), ops in sorted(self._epoch_ops.items()):
            if o != origin_gid:
                continue
            if target_gid is not None and t != target_gid:
                continue
            for kind, ev in ops:
                if local_only and kind != "get":
                    continue
                if ev.pending:
                    out.append(ev)
        return out

    def fail_ops_to(self, dead: set[int], reason: str) -> None:
        """Complete in error every in-flight epoch op against a dead target
        (its landing may have been lost with the node)."""
        for (_origin, target), ops in sorted(self._epoch_ops.items()):
            if target in dead:
                for _kind, ev in ops:
                    if ev.pending:
                        ev.fail(CommFailedError(
                            f"{reason}: one-sided op to dead rank gid={target}",
                            dead_gids=[target],
                        ))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Window {self.win_id} over {self.comm.name}>"
