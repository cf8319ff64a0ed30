"""Unified telemetry: metrics registry, tracing spans, Prometheus exposition.

The observability layer the ROADMAP's serving north-star needs: one
instrument vocabulary shared by the ingest pipeline, the multi-process
cluster and the network front end, at near-zero cost when disabled.

* :mod:`repro.obs.registry` — ``Counter``/``Gauge``/``Histogram`` families
  with labels, fixed log-scale latency buckets and **mergeable** snapshots
  (worker ⊕ worker ⊕ parent composes associatively);
* :mod:`repro.obs.trace` — the ``with span("ingest.placement", shard=i)``
  API plus the process-global enable/disable switch (one ``is None`` check
  on the hot path, which the GSS backends' ingest-stage timers share);
* :mod:`repro.obs.export` — Prometheus text rendering (served by
  ``GET /metrics`` under ``Accept: text/plain``), a minimal parser for CI
  assertions, and the ``python -m repro obs`` pretty-printer.

Quick start::

    from repro import obs

    registry = obs.enable()                  # or obs.scoped() in tests
    with obs.span("ingest.placement", shard=2):
        ...
    print(obs.render_prometheus(registry.snapshot()))
"""

from repro.obs.export import (
    describe_snapshot,
    parse_prometheus,
    render_prometheus,
    validate_prometheus,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    histogram_quantile,
    merge_snapshots,
    subtract_snapshots,
)
from repro.obs.trace import (
    SPAN_FAMILY,
    Span,
    active,
    disable,
    enable,
    scoped,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "SPAN_FAMILY",
    "Span",
    "active",
    "describe_snapshot",
    "disable",
    "enable",
    "histogram_quantile",
    "merge_snapshots",
    "parse_prometheus",
    "render_prometheus",
    "scoped",
    "span",
    "subtract_snapshots",
    "validate_prometheus",
]
