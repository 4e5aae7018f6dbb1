"""The five end-to-end workloads of the repo benchmark.

Each workload builds its inputs from the seed in ``__init__`` (that is the
benchmark's set-up), then :meth:`Workload.round` runs one full repetition
of fixed work through the public API and returns what the driver needs:
the timed seconds, per-operation completion times, failed operations, a
digest of the simulated output and the driver-side spans.  All seconds here
are **host** seconds; simulated seconds only ever appear inside digests and
the ``malleability.sim_*`` sums.

Why these five, and which layer each loads or bypasses, is recorded in
``BENCHMARK.json`` and ``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import sys
import time
import traceback
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.rmsim_summary import schedule_summary, summary_json
from repro.apps import laplacian_3d
from repro.cluster import Machine
from repro.cluster.fabrics import fabric_by_name
from repro.harness import active_fleet, get_fleet, run_sweep, shutdown_fleet
from repro.malleability import ALL_CONFIGS, ReconfigConfig, ReconfigRequest
from repro.obs import MetricsProbe
from repro.redistribution import (
    Dataset,
    FieldSpec,
    RedistributionPlan,
    block_offsets,
)
from repro.rmsim import TraceConfig, TraceScheduler, generate_trace, policy_by_name
from repro.simulate import Simulator
from repro.smpi import MpiWorld, SpawnModel
from repro.synthetic.application import launch_synthetic
from repro.synthetic.presets import SCALES, cg_emulation_config

FABRICS = ("ethernet", "infiniband")
FLEET_WORKERS = 2


@dataclass
class Round:
    """One repetition of a workload's fixed work."""

    #: the timed region (host seconds).
    wall_s: float
    #: host seconds between consecutive operation completions, as the
    #: caller sees them (for sequential work: the operation's latency).
    op_s: list[float]
    #: operations that raised or whose output failed a check.
    failed: int
    #: sha256 over the round's simulated / computed output.
    digest: str
    #: driver-side spans, result sums and counts, by per-layer metric name.
    spans: dict[str, float]
    #: label of the slowest operation ("" when completions are unordered).
    slowest: str


class _NoTrace:
    """Stand-in for :class:`tracing.Trace` on the untraced rounds."""

    registry = None
    profiled = staticmethod(contextlib.nullcontext)


NO_TRACE = _NoTrace()


class Workload:
    """Base: fixed work per round, counted in operations."""

    name = ""
    #: operations per round — the unit failures are counted in.
    ops_per_round = 0
    #: numerator of ``ops_per_s`` (cells, jobs, or rows moved through hops).
    work_per_round = 0
    #: cores the workload keeps busy; with fewer visible its numbers are
    #: reported as unresolved.
    cores_needed = 1
    #: untimed rounds before the timed ones (checked like any other round).
    warm_up_rounds = 0

    def round(self, trace=NO_TRACE) -> Round:
        """Run one repetition; a :class:`tracing.Trace` makes it the traced
        one (profiler around the timed region, registry attached)."""
        raise NotImplementedError

    def verify(self, rounds: list[Round], thorough: bool) -> tuple[int, dict[str, float]]:
        """Untimed checks after measuring: ``(failed ops, extra spans)``.
        The traced repetition asks for the ``thorough`` version."""
        return 0, {}

    def close(self) -> None:
        """Stop whatever the workload started."""


def _sha(*chunks: str) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
    return h.hexdigest()


def _gaps(stamps: list[float]) -> list[float]:
    return [b - a for a, b in zip(stamps, stamps[1:])]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit equality of two float64 arrays (-0.0 != 0.0, NaN == NaN)."""
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def _log_failure(what: str) -> None:
    print(f"bench: {what} failed:", file=sys.stderr)
    traceback.print_exc()


# ------------------------------------------------------------------ grids
class Grid18(Workload):
    """The 18-configuration tiny grid through ``run_sweep``.

    ``run_sweep`` numbers repetitions from 0, so the seed cannot reach
    ``RunSpec.rep`` from outside.  It orders the grid instead (fabrics,
    pairs and configurations are each shuffled), which changes the CSV and
    what runs next to what, while every cell stays one the test-suite
    covers: scaling the compute work by a seeded factor was tried first and
    deadlocks ``ethernet 4->8 baseline-rma-a`` at factors (1.0087, 1.0683,
    1.0500) — a defect of the program, not something to measure around.
    """

    def __init__(self, seed: int, quick: bool, workers: Optional[int] = None):
        self.name = "grid18_tiny_fleet" if workers else "grid18_tiny_seq"
        self.workers = workers
        self.cores_needed = workers or 1
        rng = np.random.default_rng(seed)

        def shuffled(items):
            return [items[i] for i in rng.permutation(len(items))]

        self.fabrics = shuffled(FABRICS)
        self.pairs = shuffled(SCALES["tiny"].pairs())[: 1 if quick else None]
        self.keys = shuffled([c.key for c in ALL_CONFIGS])
        self.config = cg_emulation_config("tiny")
        self._csvs: list[str] = []  # one per round, for verify()
        self.ops_per_round = len(self.fabrics) * len(self.pairs) * len(self.keys)
        self.work_per_round = self.ops_per_round

    def _sweep(self, pairs, workers, stamps: list[float], registry):
        """Sweep ``pairs``, appending one stamp per completed cell."""
        return run_sweep(
            pairs, self.keys, self.fabrics, scale="tiny", repetitions=1,
            progress=lambda _msg: stamps.append(time.perf_counter()),
            synth_config=self.config, workers=workers, metrics=registry,
            cache=None,
        )

    def round(self, trace=NO_TRACE) -> Round:
        clock = time.perf_counter
        spans: dict[str, float] = {}
        if self.workers:
            shutdown_fleet()  # every round pays the spawn, like a cold user
        stamps = [clock()]
        try:
            with trace.profiled():
                if self.workers:
                    get_fleet(self.config, self.workers)
                    spans["harness.fleet.spawn_s"] = clock() - stamps[0]
                t0 = clock()
                cells = self._sweep(
                    self.pairs, self.workers, stamps, trace.registry
                )
                t1 = clock()
                csv = cells.to_csv()
                wall = clock() - stamps[0]
            spans["harness.run_sweep_s"] = t1 - t0
            spans["harness.to_csv_s"] = wall - (t1 - stamps[0])
            cells = cells.results
        except Exception:
            _log_failure(self.name)
            cells, csv, wall = [], "", clock() - stamps[0]
        self._csvs.append(csv)
        failed = self.ops_per_round - len(cells) + sum(
            r.total_iterations != self.config.iterations for r in cells
        )
        if self.workers and (fleet := active_fleet()) is not None:
            counters = fleet.metrics.to_dict()["counters"]
            for name in ("cells_streamed", "ring_stalls"):
                spans[f"harness.fleet.{name}"] = counters.get(
                    f"fleet.{name}", 0.0
                )
        spans.update(_reconfig_sums(
            (r.reconfig_time, r.app_time, r.overlapped_iterations)
            for r in cells
        ))
        gaps = _gaps(stamps)
        slowest = ""
        if cells and not self.workers:  # sequential: completion = grid order
            r = cells[gaps.index(max(gaps))]
            slowest = f"{r.fabric} {r.ns}->{r.nt} {r.config.key}"
        return Round(wall, gaps, failed, _sha(csv), spans, slowest)

    def verify(self, rounds, thorough):
        """The fleet's rows must be byte-identical to a sequential sweep's.

        An untraced repetition re-runs one (seeded) pair — a sixth of the
        grid — because a whole sequential sweep costs more than the fleet
        round it checks.  The traced repetition re-runs all of it and uses
        that sweep as the base of ``speedup_vs_seq``.  Row order is checked
        by the whole-benchmark mode, which compares this workload's digest
        with ``grid18_tiny_seq``'s.
        """
        if not self.workers:
            return 0, {}
        pairs = self.pairs if thorough else self.pairs[:1]
        t0 = time.perf_counter()
        rows = set(self._sweep(pairs, None, [], None).to_csv().splitlines())
        seq_wall = time.perf_counter() - t0
        wrong = sum(not rows <= set(csv.splitlines()) for csv in self._csvs)
        spans = {}
        if thorough:
            spans["harness.fleet.speedup_vs_seq"] = seq_wall / rounds[0].wall_s
        return self.ops_per_round * wrong, spans

    def close(self) -> None:
        if self.workers:
            shutdown_fleet()


def _reconfig_sums(cells) -> dict[str, float]:
    """Simulated-result sums over ``(reconfig_s, app_s, overlapped)`` cells."""
    cells = list(cells)
    return {
        "malleability.reconfigs": float(len(cells)),
        "malleability.sim_reconfig_s_sum": sum(c[0] for c in cells),
        "malleability.sim_app_s_sum": sum(c[1] for c in cells),
        "malleability.overlapped_iterations_sum": float(
            sum(c[2] for c in cells)
        ),
    }


# ------------------------------------------------------------ wide_reconfig
#: (fabric, NS, NT, config): expand beside shrink, P2P/COL/RMA x S/A/T.
WIDE_CELLS = (
    ("ethernet", 20, 80, "merge-p2p-s"),
    ("ethernet", 20, 80, "merge-col-s"),
    ("ethernet", 20, 80, "baseline-col-t"),
    ("ethernet", 80, 20, "baseline-p2p-a"),
    ("ethernet", 80, 20, "merge-col-a"),
    ("ethernet", 80, 20, "merge-rma-t"),
    ("infiniband", 20, 80, "merge-col-a"),
    ("infiniband", 20, 80, "baseline-p2p-a"),
    ("infiniband", 20, 80, "merge-rma-t"),
    ("infiniband", 80, 20, "baseline-col-t"),
    ("infiniband", 80, 20, "merge-p2p-s"),
    ("infiniband", 80, 20, "baseline-rma-s"),
)


class WideReconfig(Workload):
    """Twelve single-reconfiguration runs at the paper's process counts."""

    name = "wide_reconfig"
    ITERATIONS = 12
    RECONFIGURE_AT = 3

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        shrink = 4 if quick else 1  # quick: 5 <-> 20 ranks on the same machine
        self.cells = [
            (fabric, ns // shrink, nt // shrink, key)
            for fabric, ns, nt, key in WIDE_CELLS
        ]
        self.config = dataclasses.replace(
            cg_emulation_config("paper"), iterations=self.ITERATIONS
        )
        self.ops_per_round = self.work_per_round = len(self.cells)

    def _run_cell(self, fabric, ns, nt, key, registry):
        """One run on the paper machine, assembled like ``examples/``."""
        preset = SCALES["paper"]
        sim = Simulator()
        machine = Machine(
            sim, preset.n_nodes, preset.cores_per_node, fabric_by_name(fabric),
            seed=zlib.crc32(f"{self.seed}:{fabric}:{ns}:{nt}:{key}".encode()),
        )
        world = MpiWorld(machine, spawn_model=SpawnModel())
        probe = None
        if registry is not None:
            probe = MetricsProbe(registry).attach(machine, world)
        stats = launch_synthetic(
            world,
            self.config.with_reconfigurations(
                [ReconfigRequest(self.RECONFIGURE_AT, nt)]
            ),
            ReconfigConfig.parse(key),
            n_initial=ns,
        )
        sim.run()
        if probe is not None:
            probe.detach()
            probe.finalize(stats)
        if stats.total_iterations() != self.ITERATIONS:
            raise RuntimeError(
                f"ran {stats.total_iterations()} of {self.ITERATIONS} iterations"
            )
        rec = stats.last_reconfig
        return rec.reconfiguration_time, stats.app_time, rec.overlapped_iterations

    def round(self, trace=NO_TRACE) -> Round:
        stamps = [time.perf_counter()]
        outcomes = []
        failed = 0
        with trace.profiled():
            for cell in self.cells:
                try:
                    # on_handoff raises when a rank's data arrived incomplete.
                    outcomes.append(self._run_cell(*cell, trace.registry))
                except Exception:
                    _log_failure(f"{self.name} cell {cell}")
                    failed += 1
                stamps.append(time.perf_counter())
        gaps = _gaps(stamps)
        fabric, ns, nt, key = self.cells[gaps.index(max(gaps))]
        return Round(
            stamps[-1] - stamps[0], gaps, failed, _sha(repr(outcomes)),
            _reconfig_sums(outcomes), f"{fabric} {ns}->{nt} {key}",
        )


# -------------------------------------------------------------- rmsim_trace
class RmsimTrace(Workload):
    """The analytic trace lane: one seeded trace under two policies."""

    name = "rmsim_trace"
    POLICIES = ("easy", "malleable")
    CORES_PER_NODE = 16

    def __init__(self, seed: int, quick: bool):
        nodes, jobs = (50, 500) if quick else (500, 5000)
        self.slots = nodes * self.CORES_PER_NODE
        t0 = time.perf_counter()
        self.jobs = generate_trace(
            TraceConfig.sized(self.slots, jobs, seed)
        ).jobs
        self.generate_s = time.perf_counter() - t0
        self.ops_per_round = self.work_per_round = len(self.POLICIES) * jobs

    def round(self, trace=NO_TRACE) -> Round:
        spans = {
            "rmsim.generate_trace_s": self.generate_s,
            "rmsim.events": 0.0,
            "rmsim.grows": 0.0,
            "rmsim.shrinks": 0.0,
            "analysis.summary_s": 0.0,
        }
        summaries = []
        run_s = {}
        failed = 0
        start = time.perf_counter()
        for policy in self.POLICIES:
            t0 = time.perf_counter()
            try:
                with trace.profiled():
                    result = TraceScheduler(
                        self.slots, self.jobs,
                        policy=policy_by_name(policy),
                        cores_per_node=self.CORES_PER_NODE,
                    ).run()
                    t1 = time.perf_counter()
                    summaries.append(summary_json(schedule_summary(result)))
                    t2 = time.perf_counter()
            except Exception:
                _log_failure(f"{self.name} policy {policy}")
                failed += len(self.jobs)
                continue
            run_s[policy] = spans[f"rmsim.run_s.{policy}"] = t1 - t0
            spans["analysis.summary_s"] += t2 - t1
            spans["rmsim.events"] += result.n_events
            spans["rmsim.grows"] += result.n_grows
            spans["rmsim.shrinks"] += result.n_shrinks
            failed += len(self.jobs) - result.n_completed
        wall = time.perf_counter() - start
        if run_s:
            spans["rmsim.events_per_s"] = spans["rmsim.events"] / sum(run_s.values())
        return Round(
            wall, list(run_s.values()), failed, _sha(*summaries), spans,
            max(run_s, key=run_s.get, default=""),
        )


# ---------------------------------------------------------- redist_datapath
class RedistDatapath(Workload):
    """Real payloads through the plan/stores API, no simulator.

    A CSR matrix and the four CG vectors walk the chain of widths as block
    distributions; at every hop the same sources are also redistributed
    with the movement-minimising plan (whose sources are block-distributed
    by definition, so it branches off the block chain rather than chaining
    on its own output).  Every hop's result is compared bit for bit with
    the global originals, outside the timed region.
    """

    name = "redist_datapath"
    #: the first chain of a process runs ~4x slower than every later one —
    #: first-touch page faults of ~0.5 GB of fresh arrays, not the program.
    #: With three or four rounds in a repetition it would tilt the medians,
    #: so it runs untimed; its spans still show in the traced repetition.
    warm_up_rounds = 1
    CHAIN = (8, 32, 24, 7, 13, 160, 20, 80, 8)
    MODES = {
        "block": RedistributionPlan.block,
        "minmove": RedistributionPlan.movement_minimizing,
    }
    STEPS = ("plan_build", "compile", "extract", "nbytes", "insert", "assemble")

    def __init__(self, seed: int, quick: bool, corrupt_hop: Optional[int] = None):
        #: test hook: flip one payload bit in this block hop of every round.
        self.corrupt_hop = corrupt_hop
        rng = np.random.default_rng(seed)
        self.matrix = laplacian_3d(46 if quick else 100)
        self.matrix.data *= rng.uniform(0.5, 1.5, self.matrix.nnz)
        self.n_rows = self.matrix.shape[0]
        self.vectors = {
            name: rng.standard_normal(self.n_rows) for name in "bxrp"
        }
        self.specs = (
            FieldSpec("A", "csr", constant=True),
            *(
                FieldSpec(name, "dense", constant=name == "b")
                for name in self.vectors
            ),
        )
        self.names = [s.name for s in self.specs]
        self.initial = []
        offsets = block_offsets(self.n_rows, self.CHAIN[0])
        for lo, hi in zip(offsets, offsets[1:]):
            lo, hi = int(lo), int(hi)
            data = {name: v[lo:hi].copy() for name, v in self.vectors.items()}
            data["A"] = self.matrix[lo:hi]
            self.initial.append(
                Dataset.create(self.n_rows, self.specs, lo, hi, data)
            )
        hops = len(self.CHAIN) - 1
        self.ops_per_round = len(self.MODES) * hops
        self.work_per_round = self.ops_per_round * self.n_rows

    def _hop(self, sources, mode, n_targets, spans, corrupt):
        """Redistribute ``sources`` to ``n_targets`` ranks; the new datasets."""
        clock = time.perf_counter
        t0 = clock()
        plan = self.MODES[mode](self.n_rows, len(sources), n_targets)
        t1 = clock()
        sends = [plan.compiled_sends(s) for s in range(plan.n_sources)]
        recvs = [plan.compiled_recvs(d) for d in range(plan.n_targets)]
        t2 = clock()
        wire = {}
        for dataset, prog in zip(sources, sends):
            payloads = dataset.extract_batch(prog.los, prog.his, self.names)
            for tr, payload in zip(prog.transfers, payloads):
                wire[tr.src, tr.dst] = payload
        t3 = clock()
        nbytes = sum(
            sum(dataset.range_nbytes_batch(prog.los, prog.his, self.names))
            for dataset, prog in zip(sources, sends)
        )
        t4 = clock()
        if corrupt:
            next(iter(wire.values()))["x"].view(np.uint8)[0] ^= 1
        t5 = clock()
        targets = []
        for d, prog in enumerate(recvs):
            dataset = Dataset.create(
                self.n_rows, self.specs, *plan.dst_range(d)
            )
            for name in self.names:
                dataset.stores[name].insert_batch(
                    prog.los, prog.his,
                    [wire[tr.src, tr.dst][name] for tr in prog.transfers],
                )
            targets.append(dataset)
        t6 = clock()
        for dataset in targets:
            if dataset.hi > dataset.lo:
                dataset.stores["A"].matrix  # assemble the received pieces
        t7 = clock()
        for step, seconds in zip(
            self.STEPS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t6 - t5, t7 - t6)
        ):
            spans[f"redistribution.{step}_s.{mode}"] += seconds
        spans[f"redistribution.payload_bytes.{mode}"] += nbytes
        spans[f"redistribution.moved_rows.{mode}"] += plan.moved_rows()
        return targets, (t4 - t0) + (t7 - t5), (nbytes, plan.moved_rows())

    def _intact(self, datasets) -> bool:
        """Do the datasets, in rank order, hold the global originals exactly?"""
        a = self.matrix
        row = 0
        for dataset in datasets:
            lo, hi = dataset.lo, dataset.hi
            if lo != row:
                return False
            row = hi
            if hi == lo:
                continue
            for name, vector in self.vectors.items():
                if not _same_bits(dataset.stores[name].data, vector[lo:hi]):
                    return False
            m = dataset.stores["A"].matrix
            s, e = int(a.indptr[lo]), int(a.indptr[hi])
            if not (
                m.shape == (hi - lo, a.shape[1])
                and np.array_equal(m.indptr, a.indptr[lo : hi + 1] - s)
                and np.array_equal(m.indices, a.indices[s:e])
                and _same_bits(m.data, a.data[s:e])
            ):
                return False
        return row == self.n_rows

    def round(self, trace=NO_TRACE) -> Round:
        spans = {
            f"redistribution.{what}.{mode}": 0.0
            for mode in self.MODES
            for what in (
                *(f"{step}_s" for step in self.STEPS),
                "payload_bytes", "moved_rows",
            )
        }
        op_s = []
        computed = []  # (hop label, payload bytes, moved rows)
        tried = failed = 0
        current = self.initial
        for hop, n_targets in enumerate(self.CHAIN[1:]):
            block_targets = None
            for mode in self.MODES:
                label = f"{mode} {len(current)}->{n_targets}"
                tried += 1
                try:
                    with trace.profiled():
                        targets, seconds, sizes = self._hop(
                            current, mode, n_targets, spans,
                            corrupt=mode == "block" and hop == self.corrupt_hop,
                        )
                    failed += not self._intact(targets)
                except Exception:
                    _log_failure(f"{self.name} hop {label}")
                    failed += 1
                    continue
                if mode == "block":
                    block_targets = targets
                op_s.append(seconds)
                computed.append((label, *sizes))
            if block_targets is None:
                break  # nothing to continue the chain from
            current = block_targets
        failed += self.ops_per_round - tried  # hops a broken chain never reached
        slowest = computed[op_s.index(max(op_s))][0] if op_s else ""
        return Round(sum(op_s), op_s, failed, _sha(repr(computed)), spans, slowest)


WORKLOADS = {
    "grid18_tiny_seq": lambda seed, quick: Grid18(seed, quick),
    "grid18_tiny_fleet": lambda seed, quick: Grid18(seed, quick, FLEET_WORKERS),
    "wide_reconfig": WideReconfig,
    "rmsim_trace": RmsimTrace,
    "redist_datapath": RedistDatapath,
}
