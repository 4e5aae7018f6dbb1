"""Workload-trace generator: determinism, JSON round-trip, distributions."""

import dataclasses
import hashlib
import json
from random import Random

import pytest

from repro.rmsim import TraceConfig, WorkloadTrace, generate_trace
from repro.rmsim import traces
from repro.rmsim.traces import TRACE_VERSION


def small_cfg(**overrides):
    base = dict(seed=11, n_jobs=120, max_procs=64)
    base.update(overrides)
    return TraceConfig(**base)


# ------------------------------------------------------------- determinism
def test_same_seed_same_trace():
    a = generate_trace(small_cfg())
    b = generate_trace(small_cfg())
    assert a.to_json() == b.to_json()


def test_different_seed_different_trace():
    a = generate_trace(small_cfg())
    b = generate_trace(dataclasses.replace(small_cfg(), seed=12))
    assert a.to_json() != b.to_json()


def test_jobs_sorted_by_arrival_then_name():
    trace = generate_trace(small_cfg(burst_prob=0.2))
    keys = [(j.arrival_time, j.name) for j in trace.jobs]
    assert keys == sorted(keys)


# -------------------------------------------------------------- round-trip
def test_json_round_trip_is_byte_identical():
    trace = generate_trace(small_cfg())
    text = trace.to_json()
    again = WorkloadTrace.from_json(text)
    assert again.to_json() == text
    assert len(again) == len(trace)


def test_save_load_round_trip(tmp_path):
    trace = generate_trace(small_cfg())
    path = trace.save(tmp_path / "trace.json")
    loaded = WorkloadTrace.load(path)
    assert loaded.to_json() == trace.to_json()


def test_unknown_job_field_rejected():
    trace = generate_trace(small_cfg(n_jobs=3))
    doc = json.loads(trace.to_json())
    doc["jobs"][0]["surprise"] = 1
    with pytest.raises(ValueError, match="unknown job fields"):
        WorkloadTrace.from_json(json.dumps(doc))


def test_wrong_version_rejected():
    trace = generate_trace(small_cfg(n_jobs=3))
    doc = json.loads(trace.to_json())
    doc["version"] = TRACE_VERSION + 1
    with pytest.raises(ValueError, match="unsupported trace version"):
        WorkloadTrace.from_json(json.dumps(doc))


# ------------------------------------------------------------ distributions
def test_widths_respect_bounds_and_malleable_split():
    cfg = small_cfg(n_jobs=400, malleable_fraction=0.5)
    trace = generate_trace(cfg)
    malleable = 0
    for j in trace.jobs:
        assert cfg.min_procs <= j.min_procs <= j.max_procs <= cfg.max_procs
        malleable += j.min_procs < j.max_procs
    # Weighted draw: roughly half, with generous slack for a 400-sample run.
    assert 0.3 * len(trace) < malleable < 0.7 * len(trace)


def test_priorities_drawn_from_catalog():
    cfg = small_cfg(priorities=(0, 5), priority_weights=(0.5, 0.5))
    trace = generate_trace(cfg)
    seen = {j.priority for j in trace.jobs}
    assert seen <= {0, 5}
    assert len(seen) == 2  # both levels appear in 120 draws


def test_data_bytes_stay_on_discrete_choices():
    cfg = small_cfg()
    trace = generate_trace(cfg)
    allowed = set(cfg.data_bytes_choices)
    assert all(j.data_bytes in allowed for j in trace.jobs)


def test_diurnal_rate_modulation():
    cfg = small_cfg(diurnal_amplitude=0.5)
    quarter = cfg.diurnal_period / 4.0
    assert cfg.rate_at(quarter) == pytest.approx(cfg.arrival_rate * 1.5)
    assert cfg.rate_at(3 * quarter) == pytest.approx(cfg.arrival_rate * 0.5)
    assert cfg.rate_at(0.0) == pytest.approx(cfg.arrival_rate)


def test_burst_jobs_land_inside_spread_window():
    cfg = small_cfg(burst_prob=0.3, burst_spread=5.0, n_jobs=300)
    trace = generate_trace(cfg)
    # With heavy bursting, consecutive arrivals frequently land within
    # one spread window — the trace visibly clusters.
    gaps = [
        b.arrival_time - a.arrival_time
        for a, b in zip(trace.jobs, trace.jobs[1:])
    ]
    assert sum(1 for g in gaps if g < cfg.burst_spread) > len(gaps) // 2


# ---------------------------------------------------------------- validation
def test_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(arrival_rate=0.0)
    with pytest.raises(ValueError):
        TraceConfig(diurnal_amplitude=1.0)
    with pytest.raises(ValueError):
        TraceConfig(min_procs=8, max_procs=4)
    with pytest.raises(ValueError):
        TraceConfig(priorities=(0, 1), priority_weights=(1.0,))
    with pytest.raises(ValueError):
        TraceConfig(config_key="not-a-config")
    # Per-job knobs fail at the config, before the sized pilot prices them.
    with pytest.raises(ValueError, match="iteration_s"):
        TraceConfig.sized(1024, 50, iteration_s=-1.0)
    with pytest.raises(ValueError, match="serial_fraction"):
        TraceConfig.sized(1024, 50, serial_fraction=1.0)
    with pytest.raises(ValueError, match="runtime_mean_s"):
        TraceConfig.sized(1024, 50, runtime_mean_s=0.0)
    with pytest.raises(ValueError, match="burst_mean_size"):
        TraceConfig.sized(1024, 50, burst_mean_size=0.0)
    with pytest.raises(ValueError, match="burst_spread"):
        TraceConfig.sized(1024, 50, burst_spread=-1.0)


def test_sized_targets_offered_load():
    cfg = TraceConfig.sized(4096, 2000, seed=3, load=0.8)
    trace = generate_trace(cfg)
    horizon = trace.jobs[-1].arrival_time
    core_s = sum(j.runtime(j.max_procs) * j.max_procs for j in trace.jobs)
    offered = core_s / (horizon * 4096)
    # The fixed-point pilot lands near the target for datacenter-scale N.
    assert 0.5 * 0.8 < offered < 1.6 * 0.8


def test_sized_is_deterministic():
    a = TraceConfig.sized(1024, 500, seed=9)
    b = TraceConfig.sized(1024, 500, seed=9)
    assert a == b


# ------------------------------------------------------------- sized draws
#: (slots, n_jobs, seed, load) -> (repr of the fitted rate, sha256 of the
#: trace JSON).  The first pilot has 256 jobs, not n (the CI smoke trace);
#: the second has n.
SIZED_GOLDENS = {
    (1024, 200, 3, 0.85): (
        "0.0875526541699542",
        "0f8647ee8e696302ae4790ccbe3adc7a7a4edea40f567ba34f96fb6e3f5e0f33",
    ),
    (1024, 400, 0, 0.85): (
        "0.0986395895757451",
        "5695fd43451578a3858fbcb8dd16924a45f54929b2a139ea4710884249096b5a",
    ),
}


@pytest.mark.parametrize("key", SIZED_GOLDENS, ids=str)
def test_sized_trace_pinned(key):
    slots, n_jobs, seed, load = key
    cfg = TraceConfig.sized(slots, n_jobs, seed, load=load)
    text = generate_trace(cfg).to_json()
    assert (repr(cfg.arrival_rate), hashlib.sha256(text.encode()).hexdigest()) == (
        SIZED_GOLDENS[key]
    )


@pytest.mark.parametrize("n_jobs, drawn", [(400, 400), (200, 256 + 200)])
def test_sized_trace_draws_each_job_once(monkeypatch, n_jobs, drawn):
    """The pilot is drawn once and re-timed per fixed-point round, and the
    final trace reuses it when the pilot has ``n_jobs`` jobs."""
    calls = []

    class CountingRandom(Random):
        def gauss(self, *args):  # one call per job drawn
            calls.append(None)
            return super().gauss(*args)

    monkeypatch.setattr(traces, "Random", CountingRandom)
    traces._draw.cache_clear()
    generate_trace(TraceConfig.sized(1024, n_jobs, 0))
    traces._draw.cache_clear()
    assert len(calls) == drawn


def test_cached_draws_keep_each_configs_own_values():
    """Configs equal as values share one cached draw; each trace still
    carries its own config's payload values."""
    as_int = small_cfg(data_bytes_choices=(16_000_000, 64_000_000))
    as_float = small_cfg(data_bytes_choices=(16e6, 64e6))
    assert as_int == as_float
    assert {type(j.data_bytes) for j in generate_trace(as_int).jobs} == {int}
    assert {type(j.data_bytes) for j in generate_trace(as_float).jobs} == {float}
