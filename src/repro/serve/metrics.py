"""The instruments behind the server's ``/metrics`` endpoint.

:class:`ServerMetrics` owns a private :class:`~repro.obs.MetricsRegistry`
(never the process-global trace registry — embedding a server in a test or a
notebook must not leak series into unrelated telemetry) and exposes its
counters/gauges as attributes with the same names the old ad-hoc integer
fields had, so the server's call sites read naturally (``metrics.queries
.inc()``) and :func:`render_metrics` keeps every historical JSON key.

On top of the counters the registry buys the server true latency
distributions: :meth:`ServerMetrics.observe_request` records each served
operation into ``repro_serve_request_seconds{op=...}``, the histogram the
load generator diffs before/after a run to report *server-side* p50/p99 next
to its client-side percentiles.

Collection deliberately touches only client-side bookkeeping (never the
worker pipes): :func:`collect_obs_snapshot` merges the server's private
registry with the summary's cached cluster view
(:meth:`~repro.cluster.ShardedSummary.obs_snapshot`), so ``/metrics``
answers promptly even while the summary executor is saturated with ingest
work — exactly when an operator most wants to look at it.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Optional

from repro.obs.registry import Histogram, MetricsRegistry, merge_snapshots

__all__ = [
    "REQUEST_LATENCY_FAMILY",
    "ServerMetrics",
    "collect_obs_snapshot",
    "http_response",
    "http_text_response",
    "render_metrics",
]

#: Per-operation served-request latency (labels: ``op`` = ``ingest``,
#: ``edge_query``, ``flush``, ...), measured frame-decode → reply-ready on
#: the server side.
REQUEST_LATENCY_FAMILY = "repro_serve_request_seconds"
_REQUEST_HELP = "Server-side latency of served operations (label: op)."


class ServerMetrics:
    """Registry-backed instrument block owned by one :class:`SummaryServer`.

    Every attribute is a live instrument (``.inc()`` / ``.value``), all
    recorded into ``self.registry`` — a private registry so two servers (or
    a server and the ambient trace registry) never share series.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.started = time.monotonic()
        r = self.registry
        self.connections_total = r.counter(
            "repro_serve_connections_total", "TCP connections accepted."
        )
        self.connections_open = r.gauge(
            "repro_serve_connections_open", "TCP connections currently open."
        )
        self.frames_received = r.counter(
            "repro_serve_frames_received_total", "Protocol frames received."
        )
        self.ingest_frames = r.counter(
            "repro_serve_ingest_frames_total", "Ingest frames received."
        )
        self.ingest_items = r.counter(
            "repro_serve_ingest_items_total", "Stream items applied for clients."
        )
        self.busy_replies = r.counter(
            "repro_serve_busy_replies_total",
            "Ingest frames rejected by admission control (credit/inflight).",
        )
        self.queries = r.counter(
            "repro_serve_queries_total", "Query calls served."
        )
        self.flushes = r.counter(
            "repro_serve_flushes_total", "Explicit flush barriers served."
        )
        self.checkpoints = r.counter(
            "repro_serve_checkpoints_total", "Checkpoints written."
        )
        self.errors = r.counter(
            "repro_serve_errors_total", "Errors replied to clients."
        )
        #: Batches admitted but not yet applied by the summary executor.
        self.inflight = r.gauge(
            "repro_serve_inflight_batches",
            "Batches admitted but not yet applied by the summary executor.",
        )
        #: Largest ``inflight`` observed (admission-queue high water).
        self.inflight_high_water = r.gauge(
            "repro_serve_inflight_high_water",
            "High-water mark of admitted-but-unapplied batches.",
        )
        # Per-op latency histograms, cached so the reply path never
        # re-resolves family + label set per request.
        self._op_latency: Dict[str, Histogram] = {}

    def admit(self) -> None:
        self.inflight.inc()
        self.inflight_high_water.set_max(self.inflight.value)

    def settle(self) -> None:
        self.inflight.dec()

    def observe_request(self, op: str, seconds: float) -> None:
        """Record one served operation into the per-op latency histogram."""
        histogram = self._op_latency.get(op)
        if histogram is None:
            histogram = self.registry.histogram(
                REQUEST_LATENCY_FAMILY, _REQUEST_HELP, op=op
            )
            self._op_latency[op] = histogram
        histogram.observe(seconds)


def collect_obs_snapshot(metrics: ServerMetrics, summary) -> Dict:
    """Merged telemetry: the server's registry ⊕ the summary's cluster view.

    The summary contribution (parent routing instruments plus cached worker
    snapshots) appears only when the summary exposes ``obs_snapshot()`` and
    has telemetry enabled; a plain in-process sketch contributes nothing and
    the result is just the server's own instruments.
    """
    parts = [metrics.registry.snapshot()]
    obs_snapshot = getattr(summary, "obs_snapshot", None)
    if callable(obs_snapshot):
        parts.append(obs_snapshot())
    return merge_snapshots(*parts)


def render_metrics(
    metrics: ServerMetrics,
    summary,
    *,
    credits: int,
    max_inflight: int,
    transport: Optional[str] = None,
) -> Dict:
    """One JSON-safe snapshot of the server and its summary.

    ``summary`` may be any :class:`~repro.api.GraphSummary`; the shard
    section appears only when it exposes ``shard_ingest_stats()`` (the
    sharded deployments).  ``update_count`` counts items *routed*, which can
    momentarily exceed items applied — the difference is what ``inflight``
    measures.  Every key predates the registry port and keeps its name and
    type; the full instrument detail lives under the ``obs`` key the server
    adds next to this document.
    """
    document: Dict = {
        "server": "repro-serve",
        "uptime_seconds": time.monotonic() - metrics.started,
        "connections_open": int(metrics.connections_open.value),
        "connections_total": int(metrics.connections_total.value),
        "frames_received": int(metrics.frames_received.value),
        "ingest_frames": int(metrics.ingest_frames.value),
        "ingest_items": int(metrics.ingest_items.value),
        "busy_replies": int(metrics.busy_replies.value),
        "queries": int(metrics.queries.value),
        "flushes": int(metrics.flushes.value),
        "checkpoints": int(metrics.checkpoints.value),
        "errors": int(metrics.errors.value),
        "inflight_batches": int(metrics.inflight.value),
        "inflight_high_water": int(metrics.inflight_high_water.value),
        "credits_per_connection": credits,
        "max_inflight_batches": max_inflight,
    }
    if transport is not None:
        document["transport"] = transport
    update_count = getattr(summary, "update_count", None)
    if update_count is not None:
        document["update_count"] = update_count
    shard_stats = getattr(summary, "shard_ingest_stats", None)
    if callable(shard_stats):
        stats = shard_stats()
        document["shards"] = {
            "items_routed": list(stats.items_routed),
            "queue_depth_high_water": stats.queue_depth_high_water,
            "routing_imbalance": stats.routing_imbalance,
        }
    return document


def http_response(document: Dict, status: str = "200 OK") -> bytes:
    """A minimal ``HTTP/1.0`` response carrying ``document`` as JSON."""
    body = json.dumps(document, indent=2).encode("utf-8") + b"\n"
    return _http_head(status, "application/json", len(body)) + body


def http_text_response(
    text: str,
    status: str = "200 OK",
    content_type: str = "text/plain; version=0.0.4; charset=utf-8",
) -> bytes:
    """A minimal ``HTTP/1.0`` response carrying plain text.

    The default content type is the Prometheus exposition format 0.0.4 —
    what a scraper expects back from ``GET /metrics`` with
    ``Accept: text/plain``.
    """
    body = text.encode("utf-8")
    return _http_head(status, content_type, len(body)) + body


def _http_head(status: str, content_type: str, length: int) -> bytes:
    return (
        f"HTTP/1.0 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {length}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")
