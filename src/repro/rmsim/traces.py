"""Workload-trace generation for the datacenter-scale RMS simulation.

A *trace* is a reproducible list of :class:`~repro.rmsim.jobs.JobSpec`\\ s
shaped like a real HPC submission log:

* **arrivals** follow a non-homogeneous Poisson process — a base rate
  modulated by a sinusoidal diurnal load curve — with occasional *bursts*
  (one campaign submitting many jobs within a short window);
* **sizes** cluster on powers of two (log2-normal, clamped);
* **runtimes** are lognormal, discretised into iterations so the
  malleability engine has checkpoints to reconfigure at;
* **priorities** and the malleable/rigid split are weighted draws.

Everything is driven by one ``random.Random(seed)`` instance, so a
:class:`TraceConfig` maps to exactly one trace on every host and Python
build.  Traces round-trip through JSON **byte-identically**
(``WorkloadTrace.from_json(t.to_json()).to_json() == t.to_json()``) —
the property the ``rmsim-smoke`` CI job pins.

See ``docs/rmsim.md`` for the file format and the determinism contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import accumulate
from pathlib import Path
from random import Random
from typing import Union

from ..malleability.config import ReconfigConfig
from .jobs import JobSpec

__all__ = ["TraceConfig", "WorkloadTrace", "generate_trace", "TRACE_VERSION"]

#: bump when the JSON layout changes incompatibly.
TRACE_VERSION = 1


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the workload generator (all distributions seeded)."""

    seed: int = 0
    n_jobs: int = 1000
    #: mean arrival rate in jobs/simulated-second before diurnal modulation.
    arrival_rate: float = 1.0
    #: relative amplitude of the diurnal curve, in [0, 1).
    diurnal_amplitude: float = 0.5
    #: period of the diurnal curve, simulated seconds (a compressed "day").
    diurnal_period: float = 5400.0
    #: probability that an arrival opens a burst episode.
    burst_prob: float = 0.02
    #: mean number of extra jobs a burst submits (geometric-ish).
    burst_mean_size: float = 8.0
    #: window over which one burst's jobs land, seconds.
    burst_spread: float = 30.0
    #: job width limits and log2-normal shape (widths cluster on 2^k).
    min_procs: int = 1
    max_procs: int = 256
    size_mean_log2: float = 3.0
    size_sigma_log2: float = 1.5
    #: fraction of jobs that accept a size range (malleable).
    malleable_fraction: float = 0.6
    #: lognormal runtime (wall time at submitted width), seconds.
    runtime_mean_s: float = 300.0
    runtime_sigma: float = 0.8
    #: target wall time of one iteration at the submitted width, seconds.
    iteration_s: float = 5.0
    #: Amdahl serial fraction applied to every job.
    serial_fraction: float = 0.05
    #: priority levels and their draw weights.
    priorities: tuple[int, ...] = (0, 1, 2)
    priority_weights: tuple[float, ...] = (0.7, 0.2, 0.1)
    #: discrete redistribution payload sizes (discrete on purpose: the
    #: malleability-aware policy memoises reconfiguration predictions, and
    #: a continuous draw would defeat the cache).
    data_bytes_choices: tuple[float, ...] = (16e6, 64e6, 256e6)
    n_rows: int = 100_000
    #: reconfiguration configuration every malleable job runs with.
    config_key: str = "merge-p2p-s"

    def __post_init__(self) -> None:
        if self.n_jobs < 0:
            raise ValueError("n_jobs must be >= 0")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be > 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if not 1 <= self.min_procs <= self.max_procs:
            raise ValueError("need 1 <= min_procs <= max_procs")
        if not 0.0 <= self.malleable_fraction <= 1.0:
            raise ValueError("malleable_fraction must be in [0, 1]")
        if self.burst_mean_size <= 0:
            raise ValueError("burst_mean_size must be > 0")
        if self.burst_spread < 0:
            raise ValueError("burst_spread must be >= 0")
        if self.runtime_mean_s <= 0:
            raise ValueError("runtime_mean_s must be > 0")
        if self.iteration_s <= 0:
            raise ValueError("iteration_s must be > 0")
        if not 0.0 <= self.serial_fraction < 1.0:
            raise ValueError("serial_fraction must be in [0, 1)")
        if len(self.priorities) != len(self.priority_weights):
            raise ValueError("priorities and priority_weights must pair up")
        ReconfigConfig.parse(self.config_key)  # fail fast on bad keys

    # ------------------------------------------------------------- helpers
    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at simulated time ``t``."""
        phase = 2.0 * math.pi * t / self.diurnal_period
        return self.arrival_rate * (
            1.0 + self.diurnal_amplitude * math.sin(phase)
        )

    @classmethod
    def sized(
        cls,
        total_slots: int,
        n_jobs: int,
        seed: int = 0,
        load: float = 0.85,
        **overrides,
    ) -> "TraceConfig":
        """A config whose arrival rate targets ``load`` × machine capacity.

        The expected core-seconds of one job are estimated from a seeded
        pilot sample (deterministic), then the rate is set so the offered
        load — rate × E[core-seconds] / slots — hits the target.  The pilot
        is drawn once and re-timed per fixed-point round; when it has
        ``n_jobs`` jobs (256 <= n_jobs <= 16384), :func:`generate_trace`
        re-times the same draws for the final trace.
        """
        if total_slots < 1:
            raise ValueError("total_slots must be >= 1")
        if not 0.0 < load:
            raise ValueError("load must be > 0")
        base = cls(seed=seed, n_jobs=n_jobs, **overrides)
        # Offered load scales ~linearly with the base rate, but bursts and
        # the diurnal window shift the constant, so fixed-point iterate: at
        # each step measure the pilot trace's offered load and rescale.
        # Only arrival times depend on the rate, so the pilot is drawn once
        # and re-timed per round.  Three rounds land within a few percent.
        pilot_n = min(max(n_jobs, 256), 16384)
        pilot = replace(base, n_jobs=pilot_n)
        draws = _draw(replace(pilot, arrival_rate=1.0))
        f = base.serial_fraction
        # runtime(max_procs) * max_procs of each job, associated as JobSpec does.
        core = [
            it * (work * (f + (1.0 - f) / p)) * p
            for _, _, _, p, it, work, _, _ in draws
        ]
        rate = base.arrival_rate
        for _ in range(3):
            arrivals = _arrivals(replace(pilot, arrival_rate=rate), draws)
            # The float sum depends on the order: the trace's (arrival, name).
            order = sorted(range(pilot_n), key=arrivals.__getitem__)
            horizon = max(arrivals[order[-1]], 1e-9)
            core_s = sum(core[i] for i in order)
            offered = core_s / (horizon * total_slots)
            rate = rate * load / offered
        return replace(base, arrival_rate=rate)


@dataclass
class WorkloadTrace:
    """A generated (or loaded) workload, plus its provenance metadata."""

    jobs: tuple[JobSpec, ...]
    meta: dict

    def __len__(self) -> int:
        return len(self.jobs)

    # ------------------------------------------------------------- export
    def to_json(self) -> str:
        """Canonical JSON: sorted keys, 2-space indent, trailing newline.

        Canonical form + deterministic generation = byte-identical trace
        files for one seed, and a byte-identical round-trip through
        :meth:`from_json`.
        """
        doc = {
            "version": TRACE_VERSION,
            "meta": self.meta,
            "jobs": [self._job_doc(j) for j in self.jobs],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def _job_doc(j: JobSpec) -> dict:
        d = asdict(j)
        d["config"] = j.config.key
        return d

    @classmethod
    def from_json(cls, text: str) -> "WorkloadTrace":
        doc = json.loads(text)
        version = doc.get("version")
        if version != TRACE_VERSION:
            raise ValueError(
                f"unsupported trace version {version!r} "
                f"(this build reads version {TRACE_VERSION})"
            )
        fields = JobSpec.__dataclass_fields__
        jobs = []
        for d in doc["jobs"]:
            unknown = sorted(set(d) - set(fields))
            if unknown:
                raise ValueError(f"unknown job fields in trace: {unknown}")
            d = dict(d)
            d["config"] = ReconfigConfig.parse(d["config"])
            jobs.append(JobSpec(**d))
        return cls(jobs=tuple(jobs), meta=doc.get("meta", {}))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "WorkloadTrace":
        return cls.from_json(Path(path).read_text())


@lru_cache(maxsize=1)
def _draw(cfg: TraceConfig) -> tuple[tuple, ...]:
    """The rate-free draws of ``cfg``'s trace, one tuple per job in
    generation order: ``(burst, step, min_procs, max_procs, iterations,
    work, payload, priority)``.

    One ``Random(cfg.seed)`` pass in the generator's draw order.  A regular
    arrival records the unit-rate gap ``expovariate(1.0)`` as ``step``; a
    burst member records its offset from the burst's opening arrival.  Only
    :func:`_arrivals` reads the rate, so callers key this one-entry cache
    with ``arrival_rate`` normalised to 1.0.  ``payload`` and ``priority``
    are indexes into the config's tuples, because configs that compare
    equal may hold those values as different types (``16e6 == 16_000_000``).
    """
    rng = Random(cfg.seed)
    lo_k = math.log2(cfg.min_procs)
    hi_k = math.log2(cfg.max_procs)
    # lognormal with mean runtime_mean_s: mu = ln(mean) - sigma^2 / 2.
    mu = math.log(cfg.runtime_mean_s) - cfg.runtime_sigma**2 / 2.0
    f = cfg.serial_fraction
    payloads = range(len(cfg.data_bytes_choices))
    levels = range(len(cfg.priorities))
    # ``choices(weights=)`` accumulates on every call; the draws are the same.
    cum_weights = list(accumulate(cfg.priority_weights))
    draws = []
    burst_left = 0
    for _ in range(cfg.n_jobs):
        # ----------------------------------------------------- arrival step
        burst = burst_left > 0
        if burst:
            burst_left -= 1
            step = rng.uniform(0.0, cfg.burst_spread)
        else:
            step = rng.expovariate(1.0)
            if rng.random() < cfg.burst_prob:
                burst_left = 1 + int(rng.expovariate(1.0 / cfg.burst_mean_size))
        # ----------------------------------------------------------- width
        k = round(rng.gauss(cfg.size_mean_log2, cfg.size_sigma_log2))
        k = min(max(k, lo_k), hi_k)
        procs = int(2 ** int(k))
        procs = min(max(procs, cfg.min_procs), cfg.max_procs)
        if rng.random() < cfg.malleable_fraction:
            min_p = max(cfg.min_procs, procs // 4)
            max_p = min(cfg.max_procs, procs * 2)
        else:
            min_p = max_p = procs
        # --------------------------------------------------------- runtime
        runtime = rng.lognormvariate(mu, cfg.runtime_sigma)
        iterations = max(3, round(runtime / cfg.iteration_s))
        # per-iteration aggregate work such that one iteration at the
        # submitted width takes ~iteration_s of wall time.
        work = cfg.iteration_s / (f + (1.0 - f) / max_p)
        draws.append((
            burst, step, min_p, max_p, iterations, round(work, 6),
            rng.choice(payloads), rng.choices(levels, cum_weights=cum_weights)[0],
        ))
    return tuple(draws)


def _arrivals(cfg: TraceConfig, draws: tuple[tuple, ...]) -> list[float]:
    """Each drawn job's arrival time at ``cfg``'s rate, rounded as stored.
    ``step / rate`` is ``expovariate(rate)`` bit for bit: the unit-rate
    draw was divided by 1.0, which is exact."""
    rate_at = cfg.rate_at
    t = 0.0
    arrivals = []
    for burst, step, *_ in draws:
        if burst:
            arrivals.append(round(t + step, 6))
        else:
            t += step / rate_at(t)
            arrivals.append(round(t, 6))
    return arrivals


def generate_trace(cfg: TraceConfig) -> WorkloadTrace:
    """Generate the one trace ``cfg`` maps to (seeded, deterministic).

    The draws of the last config are reused when only ``arrival_rate``
    differs, as after :meth:`TraceConfig.sized` with a pilot of ``n_jobs``.
    """
    draws = _draw(replace(cfg, arrival_rate=1.0))
    config = ReconfigConfig.parse(cfg.config_key)
    width = max(5, len(str(max(0, cfg.n_jobs - 1))))
    jobs = [
        JobSpec(
            name=f"j{i:0{width}d}",
            arrival_time=arrival,
            iterations=iterations,
            work_per_iteration=work,
            min_procs=min_p,
            max_procs=max_p,
            data_bytes=cfg.data_bytes_choices[payload],
            config=config,
            n_rows=cfg.n_rows,
            priority=cfg.priorities[priority],
            serial_fraction=cfg.serial_fraction,
        )
        for i, (arrival, (_, _, min_p, max_p, iterations, work, payload, priority))
        in enumerate(zip(_arrivals(cfg, draws), draws))
    ]
    jobs.sort(key=lambda j: (j.arrival_time, j.name))
    meta = {
        "generator": "repro.rmsim.traces",
        "config": json.loads(json.dumps(asdict(cfg))),
    }
    return WorkloadTrace(jobs=tuple(jobs), meta=meta)
