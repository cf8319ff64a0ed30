"""The ingestion facade: dataset/stream → summary, chunked, with metrics.

Every experiment runner (and most applications) repeats the same loop: load a
dataset analog, size a sketch for it, feed the stream through the batched
``update_many`` path in chunks, and keep an eye on throughput.
:class:`StreamSession` packages that loop once:

* accepts a ready-made summary, a :class:`~repro.api.registry.SketchSpec`
  or a registered sketch name;
* feeds :class:`~repro.streaming.stream.GraphStream` instances, iterables of
  :class:`~repro.streaming.edge.StreamEdge`, bare ``(source, destination,
  weight)`` triples, or a registered dataset by name;
* auto-sizes a spec without explicit sizing from the stream's statistics
  (``expected_edges`` = the stream's distinct edge count);
* cuts every feed into chunks and hands each one to the summary's
  ``update_many`` (or a scalar loop): a chunk of exact ``(source,
  destination, weight)`` tuples goes through untouched, marked as checked
  (:class:`~repro.streaming.batch.CheckedTriples`, so the summary's cut
  does not check the item shape again), any other is normalized once,
  here.  The summary hashes its own batches — a GSS
  through its backend's batched path, a sharded deployment once at its
  routing boundary — so the session never hashes a node; timestamps are
  kept for windowed summaries and dropped for the rest;
* reports items/batches/seconds/throughput, optionally through a progress
  hook.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, List, Optional, Union

from repro.api.protocol import GraphSummary
from repro.api.registry import SketchSpec, SpecSizingError, build
from repro.obs import trace as _obs
from repro.streaming.batch import CheckedTriples

__all__ = ["IngestReport", "StreamSession"]


def _normalized(chunk: List, windowed: bool) -> List:
    """``chunk`` with edge-like items (with ``source`` / ``destination`` /
    ``weight`` attributes) as triples, or for a windowed summary as
    4-tuples ending in the timestamp (``None`` when absent).  Bare
    sequences are cut to three elements, or passed untouched to a windowed
    summary, which reads an optional fourth."""
    if windowed:
        return [
            (item.source, item.destination, item.weight, getattr(item, "timestamp", None))
            if hasattr(item, "source")
            else item
            for item in chunk
        ]
    return [
        (item.source, item.destination, item.weight)
        if hasattr(item, "source")
        else item[:3]
        for item in chunk
    ]


@dataclass
class IngestReport:
    """Metrics of one (or the running total of all) ``feed`` calls.

    ``shard_items`` and ``queue_depth_high_water`` are populated only when
    the summary is a sharded deployment exposing ``shard_ingest_stats()``
    (:class:`~repro.cluster.ShardedSummary`, in-process or worker
    processes): items routed to each shard *by
    this feed*, and the largest number of batches in flight to any single
    worker observed so far (always 0 for synchronous in-process sharding).
    """

    items: int = 0
    batches: int = 0
    seconds: float = 0.0
    #: Items this feed routed to each shard (``None`` for unsharded summaries).
    shard_items: Optional[List[int]] = None
    #: High-water mark of per-worker batch queue depth (``None`` unsharded).
    queue_depth_high_water: Optional[int] = None

    @property
    def items_per_second(self) -> float:
        """Observed ingestion throughput (0 when nothing was timed)."""
        return self.items / self.seconds if self.seconds > 0 else 0.0

    @property
    def routing_imbalance(self) -> Optional[float]:
        """Max-over-mean of ``shard_items`` (``None`` for unsharded feeds)."""
        if self.shard_items is None:
            return None
        mean = sum(self.shard_items) / len(self.shard_items) if self.shard_items else 0.0
        if mean == 0:
            return 1.0
        return max(self.shard_items) / mean


class StreamSession:
    """Ingestion facade around one summary structure.

    Parameters
    ----------
    summary:
        A summary instance, a :class:`SketchSpec`, or a registered sketch
        name.  A spec (or name) without explicit sizing is built lazily on
        the first ``feed`` of a :class:`GraphStream`, sized for the stream's
        distinct edge count.
    batch_size:
        Chunk size for the batched ``update_many`` path.
    on_progress:
        Optional hook called with an :class:`IngestReport` after every chunk
        and once more when a ``feed`` completes.

    Examples
    --------
    >>> from repro.api import StreamSession
    >>> session = StreamSession("gss")
    >>> report = session.feed_dataset("email-EuAll", scale=0.05)
    >>> summary = session.summary
    >>> summary.edge_query("n1", "n2") is not None or True
    True
    """

    def __init__(
        self,
        summary: Union[GraphSummary, SketchSpec, str],
        *,
        batch_size: int = 1024,
        on_progress: Optional[Callable[[IngestReport], None]] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.batch_size = batch_size
        self.on_progress = on_progress
        self._pending_spec: Optional[SketchSpec] = None
        self._summary: Optional[GraphSummary] = None
        if isinstance(summary, str):
            summary = SketchSpec(summary)
        if isinstance(summary, SketchSpec):
            try:
                # Specs sized any way the registry accepts (explicit size
                # params included) build immediately; only the dedicated
                # needs-sizing rejection defers to the first feed — every
                # other spec error (unknown sketch, bad parameters, missing
                # required ones) fails fast at the call site.
                self._summary = build(summary)
            except SpecSizingError:
                self._pending_spec = summary  # sized on first feed
        else:
            self._summary = summary
        self._total = IngestReport()

    # -- summary access ------------------------------------------------------

    @property
    def summary(self) -> GraphSummary:
        """The summary being fed; raises until a lazily-sized spec is built."""
        if self._summary is None:
            raise RuntimeError(
                "the summary has not been built yet: feed a GraphStream (or "
                "dataset) so the spec can be sized, or give the spec explicit "
                "sizing"
            )
        return self._summary

    @property
    def stats(self) -> IngestReport:
        """Cumulative metrics across every ``feed`` call."""
        return self._total

    def _materialize(self, stream) -> GraphSummary:
        """Build a lazily-sized spec from the stream's statistics."""
        if self._summary is None:
            spec = self._pending_spec
            statistics = stream.statistics()
            self._summary = build(
                spec, expected_edges=max(1, statistics.distinct_edges)
            )
            self._pending_spec = None
        return self._summary

    # -- feeding -------------------------------------------------------------

    def feed_dataset(
        self, name: str, *, scale: float = 1.0, seed: Optional[int] = None
    ) -> IngestReport:
        """Load a registered dataset analog and feed it."""
        from repro.datasets.registry import load_dataset

        return self.feed(load_dataset(name, scale=scale, seed=seed))

    def feed(self, source: Union[Iterable, str]) -> IngestReport:
        """Feed a stream into the summary; returns this call's metrics.

        ``source`` may be a :class:`GraphStream`, any iterable of
        ``StreamEdge``-like objects (anything with ``source`` /
        ``destination`` / ``weight`` attributes), an iterable of
        ``(source, destination, weight)`` triples, or a dataset name.
        """
        if isinstance(source, str):
            return self.feed_dataset(source)
        if self._summary is None:
            if not hasattr(source, "statistics"):
                raise RuntimeError(
                    "a spec without sizing can only be auto-sized from a "
                    "GraphStream (or dataset name); give the spec "
                    "memory_bytes/expected_edges to feed raw iterables"
                )
            self._materialize(source)
        summary = self._summary
        # Windowed summaries route items by timestamp, so StreamEdge inputs
        # keep their fourth element; everything else gets plain triples.
        capabilities = getattr(summary, "capabilities", None)
        windowed = bool(capabilities and capabilities().windowed)
        update_many = getattr(summary, "update_many", None)
        # Sharded deployments report per-shard routing; snapshot the counters
        # so this feed's delta can be attributed to it.
        shard_stats = getattr(summary, "shard_ingest_stats", None)
        routed_before = list(shard_stats().items_routed) if shard_stats else None

        report = IngestReport()
        started = time.perf_counter()

        def flush(chunk: List) -> None:
            # Exact triples pass untouched (the checks are C loops), and
            # say so.  Scalar summaries get a star-unpacked loop, so a
            # windowed summary's timestamp — the optional fourth element —
            # reaches update().
            with _obs.span("session.feed.batch"):
                if (
                    windowed
                    or set(map(type, chunk)) != {tuple}
                    or set(map(len, chunk)) != {3}
                ):
                    chunk = _normalized(chunk, windowed)
                else:
                    chunk = CheckedTriples(chunk)
                if update_many is not None:
                    update_many(chunk)
                else:
                    for item in chunk:
                        summary.update(*item)
            report.items += len(chunk)
            report.batches += 1
            report.seconds = time.perf_counter() - started
            self._notify(report)

        items = iter(source)
        while True:
            chunk = list(islice(items, self.batch_size))
            if not chunk:
                break
            flush(chunk)
        # Pipelined summaries (the multi-process cluster) apply batches
        # asynchronously; barrier before stopping the clock so the reported
        # throughput covers the work, not just the routing.
        barrier = getattr(summary, "flush", None)
        if callable(barrier):
            barrier()
        report.seconds = time.perf_counter() - started
        registry = _obs.active()
        if registry is not None:
            # Whole-feed span, recorded from the already-measured report
            # duration (includes the pipelined flush barrier above).
            registry.histogram(
                _obs.SPAN_FAMILY, span="session.feed"
            ).observe(report.seconds)
            registry.counter(
                "repro_session_items_total",
                "Stream items fed through StreamSession.feed.",
            ).inc(report.items)
        if shard_stats is not None:
            after = shard_stats()
            report.shard_items = [
                now - before
                for now, before in zip(after.items_routed, routed_before)
            ]
            report.queue_depth_high_water = after.queue_depth_high_water
        self._total.items += report.items
        self._total.batches += report.batches
        self._total.seconds += report.seconds
        if report.shard_items is not None:
            if self._total.shard_items is None:
                self._total.shard_items = list(report.shard_items)
            else:
                self._total.shard_items = [
                    total + delta
                    for total, delta in zip(self._total.shard_items, report.shard_items)
                ]
            self._total.queue_depth_high_water = report.queue_depth_high_water
        self._notify(report)
        return report

    def _notify(self, report: IngestReport) -> None:
        if self.on_progress is not None:
            self.on_progress(report)
