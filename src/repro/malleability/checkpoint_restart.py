"""Checkpoint/restart reconfiguration — the on-disk baseline of §2.

"MPI process malleability made its first steps taking advantage of
checkpoint/restart techniques based on the principle of storing the state
of a job in a non-volatile memory device... Traditional C/R solutions show
a low performance because of the costly disk access when writing and
reading."

This module implements that historical approach on the in-memory
engine's own application loop, :meth:`GroupRunner.run`, so the two can be
compared head-to-head (see ``benchmarks/test_ablation_cr_vs_inmemory.py``).
Only the reconfiguration differs:

1. at the checkpoint, every source serialises its dataset block to the
   parallel file system and terminates;
2. the RMS re-queues the job (:meth:`GroupRunner._requeue`, the relaunch
   the in-memory fallback uses too): a configurable requeue delay plus a
   restart cost, then NT fresh processes;
3. every target reads the file segments overlapping its new block (the
   block plan's chunks) — a redistribution *through the disk* — and the
   loop resumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..cluster.storage import FileSegment, ParallelFileSystem
from ..redistribution.plan import RedistributionPlan
from ..redistribution.stores import CsrStore, Dataset
from ..simulate.primitives import WaitEvent
from .manager import GroupRunner, MalleableApp, RankOutcome, _Job, initial_dataset
from .rms import ReconfigRequest
from .stats import RunStats

__all__ = ["CheckpointRestartConfig", "run_cr_malleable"]


@dataclass(frozen=True)
class CheckpointRestartConfig:
    """Knobs of the C/R baseline."""

    #: RMS re-queue delay between job teardown and restart (seconds).
    requeue_delay: float = 0.5
    #: per-job restart overhead (launcher + MPI_Init of the new job).
    restart_cost: float = 0.25


def _checkpoint_name(generation: int) -> str:
    return f"checkpoint.gen{generation}"


def _serialize(dataset: Dataset) -> list[FileSegment]:
    """One segment per field covering this rank's whole block."""
    segments = []
    for name, store in dataset.stores.items():
        # Empty ranks (``n_rows < size`` after a shrink/grow) still write a
        # zero-byte marker segment so the restarted job sees every writer,
        # but must not touch the store: a zero-row ``CsrStore`` has no
        # matrix to size or extract.
        nbytes = store.range_nbytes(store.lo, store.hi) if store.n_rows else 0
        payload = None
        if store.n_rows:
            # Readers row-slice this whole-block payload, so a CSR block
            # writes its matrix (an extracted CsrPiece does not slice).
            payload = (store.matrix if isinstance(store, CsrStore)
                       else store.extract(store.lo, store.hi))
        segments.append(
            FileSegment(field_name=name, lo=store.lo, hi=store.hi,
                        nbytes=nbytes, payload=payload)
        )
    return segments


def run_cr_malleable(
    mpi,
    app: MalleableApp,
    requests: Sequence[ReconfigRequest],
    stats: RunStats,
    pfs: ParallelFileSystem,
    cr_config: CheckpointRestartConfig = CheckpointRestartConfig(),
):
    """Entry point for first-group ranks (the C/R twin of ``run_malleable``)."""
    runner = _DiskRunner(
        mpi, _Job(app, None, requests, stats), pfs, cr_config,
        mpi.comm_world, initial_dataset(mpi, app),
    )
    outcome = yield from runner.run()
    return outcome


class _DiskRunner(GroupRunner):
    """A rank of the C/R job: :meth:`GroupRunner.run` is its loop, and a
    reconfiguration goes through the disk instead of Stages 2-4 (so it has
    no :class:`ReconfigConfig`)."""

    def __init__(self, mpi, job, pfs, cr_config, *args):
        super().__init__(mpi, job, *args)
        self.pfs = pfs
        self.cr_config = cr_config

    def _begin_reconfig(self, req: ReconfigRequest):
        """Checkpoint hit: every source writes its block to the PFS
        (contending for the shared write channel), the group synchronises,
        rank 0 has the RMS requeue the job on NT fresh processes, and every
        source terminates."""
        mpi, generation = self.mpi, self.group_index
        self._req = req
        record = self._ensure_record()
        if record.spawn_started_at is None:
            record.spawn_started_at = record.redist_started_at = mpi.now
        name = f"{_checkpoint_name(generation)}.rank{self.rank}"
        yield WaitEvent(self.pfs.write(mpi.node, name, _serialize(self.dataset)))
        yield from mpi.barrier(self.comm)
        if self.rank == 0:
            self._requeue(
                self.cr_config, req.n_targets, _cr_target_entry,
                (self.job, self.pfs, self.cr_config, generation,
                 self.rms.consumed, self.comm.size, self.it),
            )
        mpi.finalize()
        return RankOutcome.RETIRED


def _cr_target_entry(mpi, job, pfs, cr_config, generation, consumed, ns, resume_at):
    """A rank of the restarted job: read my block from the checkpoint."""
    app = job.app
    record = job.stats.reconfigs[consumed - 1]
    if record.spawn_finished_at is None:
        record.spawn_finished_at = mpi.now
    plan = RedistributionPlan.block(app.n_rows, ns, mpi.size)
    lo, hi = plan.dst_range(mpi.rank)
    dataset = Dataset.create(app.n_rows, tuple(app.specs), lo, hi)
    reads = []
    for chunk in plan.recvs_for(mpi.rank):  # the source files overlapping my block
        name = f"{_checkpoint_name(generation)}.rank{chunk.src}"
        wanted = []
        for seg in pfs.segments_of(name):
            # Slice the writer's whole-block payload down to the overlap;
            # charge bytes pro-rata (exact for dense/virtual, a fair
            # approximation for CSR where nnz varies per row).
            payload = seg.payload
            if payload is not None:
                payload = payload[chunk.lo - seg.lo : chunk.hi - seg.lo]
            frac = chunk.n_rows / max(1, seg.hi - seg.lo)
            wanted.append(
                FileSegment(seg.field_name, chunk.lo, chunk.hi,
                            nbytes=int(seg.nbytes * frac), payload=payload)
            )
        reads.append(pfs.read(mpi.node, name, wanted))
    for ev in reads:
        segments = yield WaitEvent(ev)
        for seg in segments:
            dataset.stores[seg.field_name].insert(seg.lo, seg.hi, seg.payload)
    app.on_handoff(mpi, dataset)
    record.mark_data_complete(mpi.now)
    runner = _DiskRunner(
        mpi, job, pfs, cr_config, mpi.comm_world, dataset,
        resume_at, generation + 1, consumed,
    )
    outcome = yield from runner.run()
    return outcome
