"""The per-run metrics registry: counters, gauges, histograms, timers.

Design constraints (ISSUE 2):

* **Near-zero overhead when not attached.**  Layers never see a registry:
  they call observer hooks behind one empty-tuple test, and only an
  attached :class:`~repro.obs.instrument.MetricsProbe` writes here.
* **Deterministic serialization.**  ``to_dict()`` sorts every metric family
  by its canonical key, so two registries holding the same observations
  serialize to the same JSON bytes — the property the parallel sweep
  executor relies on when it merges per-cell registries back in canonical
  spec order.
* **Deterministic merge.**  ``merge()`` is associative over disjoint
  observations and commutative for every aggregate except gauge ``last``
  (which is defined to take the *merged-in* registry's value, so a canonical
  merge order yields a canonical result).
* **Bounded memory.**  Sample series (gauge timelines, timer spans) are
  capped at :data:`DEFAULT_SAMPLE_LIMIT` points; the number of dropped
  samples is recorded so exports are honest about truncation.

All times stored here are **simulated seconds** — never wall-clock — which
is what makes registry contents reproducible run to run.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "metric_key",
    "DEFAULT_SAMPLE_LIMIT",
]

#: cap on per-metric sample series (gauge timelines / timer spans).
DEFAULT_SAMPLE_LIMIT = 4096

LabelValue = Union[str, int]


def metric_key(name: str, labels: Mapping[str, LabelValue]) -> str:
    """Canonical string id of one metric instance.

    ``name{k=v,k2=v2}`` with label keys sorted — the key used both for
    lookup and for the (sorted, therefore deterministic) JSON export.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing total (messages, bytes, calls...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def to_dict(self) -> float:
        return self.value

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """Point-in-time value with last/min/peak aggregates and a capped
    ``(t, value)`` timeline (e.g. a node's oversubscription factor)."""

    __slots__ = ("last", "min", "peak", "n", "samples", "dropped", "_limit")

    def __init__(self, sample_limit: int = DEFAULT_SAMPLE_LIMIT) -> None:
        self.last: float = 0.0
        self.min: float = math.inf
        self.peak: float = -math.inf
        self.n: int = 0
        self.samples: list[tuple[float, float]] = []
        self.dropped: int = 0
        self._limit = sample_limit

    def set(self, value: float, t: Optional[float] = None) -> None:
        self.last = value
        self.n += 1
        if value < self.min:
            self.min = value
        if value > self.peak:
            self.peak = value
        if t is not None:
            if len(self.samples) < self._limit:
                self.samples.append((t, value))
            else:
                self.dropped += 1

    def to_dict(self) -> dict:
        return {
            "last": self.last,
            "min": self.min if self.n else None,
            "peak": self.peak if self.n else None,
            "n": self.n,
            "samples": [[t, v] for t, v in self.samples],
            "dropped": self.dropped,
        }

    def merge(self, other: "Gauge") -> None:
        if other.n:
            self.last = other.last
        self.n += other.n
        self.min = min(self.min, other.min)
        self.peak = max(self.peak, other.peak)
        room = self._limit - len(self.samples)
        take = other.samples[: max(0, room)]
        self.samples.extend(take)
        self.dropped += other.dropped + (len(other.samples) - len(take))


class Histogram:
    """Power-of-two bucketed distribution (message sizes, chunk sizes)."""

    __slots__ = ("n", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.n: int = 0
        self.sum: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        #: bucket upper bound (power of two; 0 for the zero bucket) -> count.
        self.buckets: dict[int, int] = {}

    @staticmethod
    def bucket_of(value: float) -> int:
        if value <= 0:
            return 0
        return 1 << max(0, math.ceil(math.log2(value)))

    def observe(self, value: float) -> None:
        self.n += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        b = self.bucket_of(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.n if self.n else 0.0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "sum": self.sum,
            "min": self.min if self.n else None,
            "max": self.max if self.n else None,
            "mean": self.mean,
            "buckets": {str(k): self.buckets[k] for k in sorted(self.buckets)},
        }

    def merge(self, other: "Histogram") -> None:
        self.n += other.n
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for b, c in other.buckets.items():
            self.buckets[b] = self.buckets.get(b, 0) + c


class Timer:
    """Accumulated durations plus a capped span list (``(t0, t1, label)``).

    Spans can be replayed onto a :class:`repro.trace.recorder.Tracer` as
    Perfetto marks (see :meth:`MetricsRegistry.feed_tracer`).
    """

    __slots__ = ("n", "total", "min", "max", "spans", "dropped", "_limit")

    def __init__(self, sample_limit: int = DEFAULT_SAMPLE_LIMIT) -> None:
        self.n: int = 0
        self.total: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        self.spans: list[tuple[float, float, str]] = []
        self.dropped: int = 0
        self._limit = sample_limit

    def record(self, t0: float, t1: float, label: str = "") -> None:
        dt = t1 - t0
        self.n += 1
        self.total += dt
        if dt < self.min:
            self.min = dt
        if dt > self.max:
            self.max = dt
        if len(self.spans) < self._limit:
            self.spans.append((t0, t1, label))
        else:
            self.dropped += 1

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "total": self.total,
            "min": self.min if self.n else None,
            "max": self.max if self.n else None,
            "mean": self.mean,
            "spans": [[t0, t1, label] for t0, t1, label in self.spans],
            "dropped": self.dropped,
        }

    def merge(self, other: "Timer") -> None:
        self.n += other.n
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        room = self._limit - len(self.spans)
        take = other.spans[: max(0, room)]
        self.spans.extend(take)
        self.dropped += other.dropped + (len(other.spans) - len(take))


class MetricsRegistry:
    """One run's worth of structured metrics, keyed by (name, labels).

    Layers obtain metric instances with :meth:`counter` / :meth:`gauge` /
    :meth:`histogram` / :meth:`timer` (get-or-create, so emission sites stay
    one-liners).  ``records`` holds named lists of structured dicts for data
    that is richer than a scalar family — e.g. per-stage
    :class:`~repro.malleability.stats.ReconfigBreakdown` rows.
    """

    SCHEMA_VERSION = 1

    def __init__(self, sample_limit: int = DEFAULT_SAMPLE_LIMIT) -> None:
        self.sample_limit = sample_limit
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.timers: dict[str, Timer] = {}
        #: named lists of structured, JSON-serialisable records.
        self.records: dict[str, list[dict]] = {}
        #: free-form run metadata (spec identity, scale...); merged last-wins
        #: per key.
        self.meta: dict[str, object] = {}

    # ------------------------------------------------------------- accessors
    def counter(self, name: str, **labels: LabelValue) -> Counter:
        key = metric_key(name, labels)
        c = self.counters.get(key)
        if c is None:
            c = self.counters[key] = Counter()
        return c

    def gauge(self, name: str, **labels: LabelValue) -> Gauge:
        key = metric_key(name, labels)
        g = self.gauges.get(key)
        if g is None:
            g = self.gauges[key] = Gauge(self.sample_limit)
        return g

    def histogram(self, name: str, **labels: LabelValue) -> Histogram:
        key = metric_key(name, labels)
        h = self.histograms.get(key)
        if h is None:
            h = self.histograms[key] = Histogram()
        return h

    def timer(self, name: str, **labels: LabelValue) -> Timer:
        key = metric_key(name, labels)
        t = self.timers.get(key)
        if t is None:
            t = self.timers[key] = Timer(self.sample_limit)
        return t

    def record(self, kind: str, row: dict) -> None:
        self.records.setdefault(kind, []).append(row)

    def __len__(self) -> int:
        return (
            len(self.counters) + len(self.gauges)
            + len(self.histograms) + len(self.timers)
        )

    # ----------------------------------------------------------------- export
    def to_dict(self) -> dict:
        """Deterministic (sorted-key) plain-dict export; see obs.schema."""
        return {
            "schema_version": self.SCHEMA_VERSION,
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
            "counters": {k: self.counters[k].to_dict() for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k].to_dict() for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_dict() for k in sorted(self.histograms)
            },
            "timers": {k: self.timers[k].to_dict() for k in sorted(self.timers)},
            "records": {k: list(self.records[k]) for k in sorted(self.records)},
        }

    @classmethod
    def from_dict(cls, doc: Mapping, sample_limit: int = DEFAULT_SAMPLE_LIMIT) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output (workers ship their
        registries across process boundaries this way)."""
        reg = cls(sample_limit)
        reg.meta.update(doc.get("meta", {}))
        for key, value in doc.get("counters", {}).items():
            reg.counters[key] = c = Counter()
            c.value = value
        for key, d in doc.get("gauges", {}).items():
            reg.gauges[key] = g = Gauge(sample_limit)
            g.last = d["last"]
            g.n = d["n"]
            g.min = d["min"] if d["min"] is not None else math.inf
            g.peak = d["peak"] if d["peak"] is not None else -math.inf
            g.samples = [(t, v) for t, v in d.get("samples", [])]
            g.dropped = d.get("dropped", 0)
        for key, d in doc.get("histograms", {}).items():
            reg.histograms[key] = h = Histogram()
            h.n = d["n"]
            h.sum = d["sum"]
            h.min = d["min"] if d["min"] is not None else math.inf
            h.max = d["max"] if d["max"] is not None else -math.inf
            h.buckets = {int(k): v for k, v in d.get("buckets", {}).items()}
        for key, d in doc.get("timers", {}).items():
            reg.timers[key] = t = Timer(sample_limit)
            t.n = d["n"]
            t.total = d["total"]
            t.min = d["min"] if d["min"] is not None else math.inf
            t.max = d["max"] if d["max"] is not None else -math.inf
            t.spans = [(t0, t1, label) for t0, t1, label in d.get("spans", [])]
            t.dropped = d.get("dropped", 0)
        for kind, rows in doc.get("records", {}).items():
            reg.records[kind] = [dict(r) for r in rows]
        return reg

    # ------------------------------------------------------------------ merge
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (in place; returns self).

        Deterministic given a deterministic merge order: the sweep executor
        always merges per-cell registries in canonical spec order, so the
        parallel and sequential sweeps produce identical aggregates.
        """
        for key, c in other.counters.items():
            mine = self.counters.get(key)
            if mine is None:
                self.counters[key] = mine = Counter()
            mine.merge(c)
        for key, g in other.gauges.items():
            mine = self.gauges.get(key)
            if mine is None:
                self.gauges[key] = mine = Gauge(self.sample_limit)
            mine.merge(g)
        for key, h in other.histograms.items():
            mine = self.histograms.get(key)
            if mine is None:
                self.histograms[key] = mine = Histogram()
            mine.merge(h)
        for key, t in other.timers.items():
            mine = self.timers.get(key)
            if mine is None:
                self.timers[key] = mine = Timer(self.sample_limit)
            mine.merge(t)
        for kind, rows in other.records.items():
            self.records.setdefault(kind, []).extend(dict(r) for r in rows)
        self.meta.update(other.meta)
        return self

    # ----------------------------------------------------------------- tracer
    def feed_tracer(self, tracer, kinds: Iterable[str] = ("timers",)) -> int:
        """Replay recorded timer spans as tracer marks (Perfetto lanes).

        Returns the number of marks emitted.  The tracer's own flow/CPU
        events are untouched; this adds the obs layer's *semantic* spans
        (redistribution phases, reconfiguration stages) on top.
        """
        emitted = 0
        if "timers" in kinds:
            for key in sorted(self.timers):
                for t0, t1, label in self.timers[key].spans:
                    tracer.mark(f"obs:{key}", label or key, t0, t1)
                    emitted += 1
        return emitted
