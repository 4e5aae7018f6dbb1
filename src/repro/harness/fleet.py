"""Persistent worker fleet: one pipe per worker, master blocked in ``wait``.

A process pool per ``run_sweep`` call pays interpreter spawn, the
simulator's imports and the first machine build every time.  The fleet,
modeled on nengo_mpi's ``MpiSimulator`` master/worker design (PAPERS.md),
keeps the workers alive across sweeps and merges streamed results.

* **Workers outlive a sweep.**  A :class:`WorkerFleet` is spawned once
  per (base-config fingerprint, width) and registered in a module-global
  slot; consecutive ``run_sweep`` calls with the same base config reuse
  the same warm processes.  A different base config (or width) shuts the
  old fleet down and spawns a fresh one — stale simulation state can
  never leak between workloads.
* **One duplex pipe per worker.**  A sweep sends each worker *one* task
  message — ``(specs, the cells it owes, with_metrics, sanitize)`` — and
  every worker is handed its whole share before the master reads
  anything, so a worker is in ``recv()`` while the master writes and the
  two can never block on each other's full pipe.  One pickled tuple
  comes back per completed or failed cell, and the master sleeps in
  :func:`multiprocessing.connection.wait` over the pipes and process
  sentinels of the workers that still owe cells and yields results in
  completion order.  A slow consumer simply leaves workers blocked in
  ``send()`` on a full pipe.
* **Failures keep provenance.**  A cell raising inside a worker comes
  back as a pickled :class:`~repro.harness.executor.SweepCellError`
  naming the cell and grid index, and is raised.  A worker *dying*
  (SIGKILL, OOM) is end-of-file on its pipe — the master closed its own
  copy of the worker's end at spawn — and surfaces the same way, naming
  the first cell it still owed, after everything it had already sent
  was yielded.
* **A pipe only ever carries the sweep in progress.**  A sweep that ends
  early (cell error, dead worker, consumer stops iterating, Ctrl-C)
  kills the workers that still owe it cells, so no result can cross into
  a later sweep and a failed paper-scale sweep does not compute its
  orphaned cells in front of the next one.  :func:`get_fleet` respawns
  dead workers in place.

Lifecycle::

    fleet = get_fleet(base, workers)     # spawn once (or reuse, or heal)
    for i, result, doc, found in fleet.run_cells(specs, idx, m, s):
        ...                              # completion order, streamed
    shutdown_fleet()                     # sentinel message + join

Fleet telemetry (workers spawned, sweeps served, worker reuse, cells
streamed) lands in an :class:`repro.obs.MetricsRegistry` owned by the
fleet (:attr:`WorkerFleet.metrics`) — deliberately *separate* from the
per-sweep metrics documents, which must stay byte-identical between
sequential, fleet-parallel and cached executions.
"""

from __future__ import annotations

import atexit
import hashlib
from multiprocessing import Pipe, Process
from multiprocessing.connection import wait
from typing import Iterator, Optional, Sequence

from .executor import SweepCellError, make_chunks, run_cell
from .runner import _cell_key

__all__ = [
    "WorkerFleet",
    "fleet_fingerprint",
    "get_fleet",
    "active_fleet",
    "shutdown_fleet",
]


# ------------------------------------------------------------------- workers
def _fleet_worker(conn, base):
    """Worker main loop: serve one task message per sweep until ``None``.

    Each owed cell answers ``(index, (result, doc, found))``, or ``(index,
    SweepCellError)`` when it raised — the worker itself keeps serving,
    which is what lets a fleet survive a bad cell.
    """
    # Pre-warm once per *process*, not per sweep: the simulator's imports
    # and the lazy per-class simulation setup are the bulk of cold-pool cost.
    from ..cluster.fabrics import ETHERNET_10G
    from ..cluster.machine import Machine
    from ..simulate.core import Simulator

    Machine(Simulator(), 2, 2, ETHERNET_10G, seed=0)

    while (task := conn.recv()) is not None:
        specs, indices, with_metrics, sanitize = task
        for i in indices:
            try:
                answer = run_cell(specs[i], base, with_metrics, sanitize)
            except Exception as exc:  # noqa: BLE001 - provenance wrapper
                answer = SweepCellError(
                    _cell_key(specs[i]), i, f"{type(exc).__name__}: {exc}"
                )
            conn.send((i, answer))


class _Worker:
    """Master-side handle: process + the master's end of its pipe."""

    __slots__ = ("process", "conn", "sweeps_served")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.sweeps_served = 0


# --------------------------------------------------------------------- fleet
def fleet_fingerprint(base) -> str:
    """Content fingerprint of the shared base config a fleet was warmed
    with.  ``repr`` covers every workload knob (same property the cell
    cache token relies on); a changed base must re-init the fleet."""
    return hashlib.sha256(repr(base).encode()).hexdigest()[:16]


class WorkerFleet:
    """A set of persistent sweep workers bound to one base config.

    Use :func:`get_fleet` rather than building one directly — the module
    keeps the single live fleet registered so consecutive sweeps reuse
    it and interpreter exit tears it down.
    """

    def __init__(self, base, workers: int):
        from ..obs import MetricsRegistry

        self.base = base
        self.fingerprint = fleet_fingerprint(base)
        self.workers = workers
        #: host-side fleet telemetry; never merged into sweep metrics
        #: documents (those must stay byte-identical across executors).
        self.metrics = MetricsRegistry()
        self.sweeps_served = 0
        self._closed = False
        #: per worker, the cells of the open sweep it has not answered
        #: yet; empty between sweeps.
        self._owed: list[set[int]] = []
        self._workers = [self._spawn(k) for k in range(workers)]

    # ----------------------------------------------------------- lifecycle
    def _spawn(self, worker_id: int) -> _Worker:
        conn, child_end = Pipe()
        proc = Process(
            target=_fleet_worker,
            args=(child_end, self.base),
            daemon=True,
            name=f"repro-fleet-{worker_id}",
        )
        proc.start()
        # The worker now holds the only copy of its end (no later fork
        # can inherit one), so its death reads as EOF on ``conn``.
        child_end.close()
        self.metrics.counter("fleet.workers_spawned").inc()
        return _Worker(proc, conn)

    def _stop_owing(self) -> None:
        """End the open sweep: kill the workers that still owe it cells,
        so a pipe never carries a result into a later sweep."""
        for w, cells in zip(self._workers, self._owed):
            if cells:
                w.process.kill()
                w.process.join()
        self._owed = []

    def shutdown(self) -> None:
        """Tell every worker to stop, join them, close the pipes."""
        if self._closed:
            return
        self._closed = True
        self._stop_owing()
        for w in self._workers:
            try:
                w.conn.send(None)
            except OSError:  # worker already dead
                pass
        for w in self._workers:
            w.process.join(timeout=10.0)  # idle in recv(): leaves at once
            if w.process.is_alive():  # pragma: no cover - hang backstop
                w.process.kill()
                w.process.join()
            w.conn.close()

    def respawn_dead(self) -> None:
        """Replace dead workers in place (fleet survives a lost sweep)."""
        for k, w in enumerate(self._workers):
            if not w.process.is_alive():
                w.conn.close()
                self._workers[k] = self._spawn(k)

    # ------------------------------------------------------------ sweeping
    def run_cells(
        self,
        specs: Sequence,
        indices: Sequence[int],
        with_metrics: bool,
        sanitize: bool,
    ) -> Iterator[tuple]:
        """Stream ``(index, result, doc, found)`` for every pending cell.

        Chunks are strided (:func:`~repro.harness.executor.make_chunks`)
        and dealt round-robin, so the master knows exactly which cells
        each worker owes — that assignment is what turns a dead worker
        into a :class:`SweepCellError` with cell provenance instead of a
        hang.  Results are yielded in completion order.  One sweep at a
        time: exhaust or ``close()`` the iterator before the next call.
        """
        if self._closed:
            raise RuntimeError("fleet is shut down")
        if self._owed:
            raise RuntimeError(
                "the previous sweep's iterator is still open; close it first"
            )
        self.sweeps_served += 1
        reg = self.metrics
        reg.counter("fleet.sweeps_served").inc()
        share: list[list[int]] = [[] for _ in self._workers]
        for k, chunk in enumerate(make_chunks(indices, self.workers)):
            share[k % self.workers].extend(chunk)
        owed = self._owed = [set(cells) for cells in share]
        try:
            # Every worker gets its whole share before anything is read.
            for w, cells in zip(self._workers, share):
                if not cells:
                    continue
                if w.sweeps_served > 0:
                    reg.counter("fleet.worker_reuse").inc()
                w.sweeps_served += 1
                try:
                    w.conn.send((specs, cells, with_metrics, sanitize))
                except OSError:
                    pass  # dead worker: _drain reports it, with the cell it owes
            while any(owed):
                handles = {}
                for k, w in enumerate(self._workers):
                    if owed[k]:
                        handles[w.conn] = handles[w.process.sentinel] = k
                for k in sorted({handles[h] for h in wait(list(handles))}):
                    yield from self._drain(k, owed[k], specs)
        finally:
            self._stop_owing()

    def _drain(self, k: int, owed: set, specs: Sequence) -> Iterator[tuple]:
        """Yield what worker ``k`` has sent; raise if a cell failed, or if
        the worker is dead with cells still owed (read *after* draining,
        so everything it sent before dying is delivered first)."""
        w = self._workers[k]
        while owed and w.conn.poll():
            try:
                index, answer = w.conn.recv()
            except (EOFError, OSError):
                # End of file (or a message cut short by the kill): only
                # an exiting worker closes its end.
                w.process.join()
                break
            owed.discard(index)
            if isinstance(answer, SweepCellError):
                raise answer
            self.metrics.counter("fleet.cells_streamed").inc()
            yield (index, *answer)
        if owed and not w.process.is_alive():
            lost = min(owed)
            raise SweepCellError(
                _cell_key(specs[lost]),
                lost,
                f"worker {k} died (exit code {w.process.exitcode}) before "
                "the cell completed",
            )


# ------------------------------------------------------------ module registry
_FLEET: Optional[WorkerFleet] = None


def get_fleet(base, workers: int) -> WorkerFleet:
    """Return the live fleet for ``base``/``workers``, spawning if needed.

    The registry holds one fleet: asking for a different base config or
    width shuts the old fleet down first (workers hold the old base in
    memory; serving a new workload from them would be a correctness bug,
    not just staleness).  Dead workers in a matching fleet — killed by
    the OS or by a sweep that ended early — are respawned rather than
    rebuilding the whole fleet.
    """
    global _FLEET
    f = _FLEET
    if f is not None and not f._closed:
        if f.fingerprint == fleet_fingerprint(base) and f.workers == workers:
            f.respawn_dead()
            return f
        f.shutdown()
    _FLEET = WorkerFleet(base, workers)
    return _FLEET


def active_fleet() -> Optional[WorkerFleet]:
    """The currently registered fleet, or ``None``."""
    return _FLEET if _FLEET is not None and not _FLEET._closed else None


def shutdown_fleet() -> None:
    """Tear down the registered fleet (idempotent); used by tests, the
    CLI on exit, and the interpreter atexit hook."""
    global _FLEET
    if _FLEET is not None:
        _FLEET.shutdown()
        _FLEET = None


atexit.register(shutdown_fleet)
