"""Run-wide observability: structured metrics across every layer.

A :class:`MetricsProbe` is one :class:`~repro.obs.instrument.Observer`:
while attached it sits in the ``observers`` tuples of the machine's
network and nodes and of the MPI world, like the Tracer and the
Sanitizer; with nothing attached the stack pays one empty-tuple test per
event.

Typical use::

    from repro.obs import MetricsProbe, write_metrics_json

    probe = MetricsProbe().attach(machine, world)
    stats = launch_synthetic(...)
    sim.run()
    probe.detach()
    write_metrics_json(probe.finalize(stats), "metrics.json")
"""

from .export import build_metrics_doc, read_metrics_json, write_metrics_json
from .instrument import MetricsProbe
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    metric_key,
)
from .schema import METRICS_SCHEMA, schema_fingerprint, validate_metrics

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "MetricsProbe",
    "metric_key",
    "METRICS_SCHEMA",
    "validate_metrics",
    "schema_fingerprint",
    "build_metrics_doc",
    "write_metrics_json",
    "read_metrics_json",
]
