"""Sliding-window summarization built from per-slice GSS sketches.

The paper's subgraph-matching experiment (Figure 15) queries *windows* of the
stream, and its use cases (network monitoring, troubleshooting) naturally care
about "the graph of the last N minutes" rather than the whole history.  GSS
itself aggregates weights forever; this module layers a time-based sliding
window on top of it without touching the core sketch:

* the window of length ``window_span`` is divided into ``slices`` equal
  sub-intervals;
* every sub-interval owns an independent :class:`~repro.core.gss.GSS` built
  from the same :class:`~repro.core.config.GSSConfig`;
* an update with timestamp ``t`` goes to the slice covering ``t``; slices that
  fall out of the window are dropped wholesale, which makes expiry O(1) per
  slice instead of requiring per-edge deletions;
* queries are answered by combining the per-slice answers (sum of weights for
  edge/node queries, union for successor/precursor queries).

The result is an approximate sliding window: at any point the summary covers
between ``window_span * (slices - 1) / slices`` and ``window_span`` worth of
stream, exactly like the classic "panes"/"smooth histogram" constructions used
for window sketches.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.queries.primitives import Capabilities, SummaryShims
from repro.streaming.batch import triple_tokens


def _window_items(items: List) -> Tuple[List[Tuple], List[Optional[float]]]:
    """Split window items into ``(source, destination, weight)`` triples and
    their timestamps (``None`` where absent), or refuse the batch whole.

    The triples pass :func:`~repro.streaming.batch.triple_tokens`'s item
    and weight rules, their IDs must hash (``TypeError``) and encode as
    the GSS hasher encodes them, and a timestamp must be ``None`` or a
    finite real number (``ValueError``).
    """
    try:
        if items and not set(map(len, items)) <= {3, 4}:
            raise TypeError
        triples = [tuple(item[:3]) for item in items]
    except TypeError:
        raise ValueError(
            "a window item is not a (source, destination, weight[, timestamp]) tuple"
        ) from None
    timestamps = [item[3] if len(item) == 4 else None for item in items]
    tokens, _ = triple_tokens(triples)
    dict.fromkeys(tokens)  # TypeError for an unhashable ID
    # A str ID hashes its UTF-8 encoding, which refuses lone surrogates.
    "".join([token for token in tokens if isinstance(token, str)]).encode("utf-8")
    for timestamp in timestamps:
        if timestamp is None:
            continue
        try:
            finite = isinstance(timestamp, Real) and math.isfinite(timestamp)
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ValueError(f"timestamp {timestamp!r} is not a finite real number")
    return triples, timestamps


class WindowedGSS(SummaryShims):
    """Sliding-window graph-stream summary made of per-slice GSS sketches.

    Parameters
    ----------
    config:
        Configuration used for every per-slice sketch.  Each slice only holds
        a fraction of the window, so the per-slice width can be smaller than
        the width a monolithic sketch of the same stream would need.
    window_span:
        Length of the sliding window, in the same units as the stream item
        timestamps.
    slices:
        Number of sub-intervals the window is divided into.  More slices give
        a sharper window boundary at the cost of ``slices`` times the query
        work and memory.

    Examples
    --------
    >>> window = WindowedGSS(GSSConfig(matrix_width=32), window_span=60.0, slices=6)
    >>> window.update("a", "b", weight=1.0, timestamp=3.0)
    >>> window.update("a", "c", weight=2.0, timestamp=58.0)
    >>> window.edge_query("a", "b")
    1.0
    >>> window.update("x", "y", timestamp=500.0)       # far in the future
    >>> window.edge_query("a", "b") is None            # expired with its slice
    True
    """

    def __init__(self, config: GSSConfig, window_span: float, slices: int = 4) -> None:
        if window_span <= 0:
            raise ValueError("window_span must be positive")
        if slices < 1:
            raise ValueError("slices must be at least 1")
        self.config = config
        self.window_span = float(window_span)
        self.slices = slices
        self._slice_span = self.window_span / slices
        # slice index -> sketch for that sub-interval; only the slices inside
        # the current window are kept.
        self._sketches: Dict[int, GSS] = {}
        self._latest_timestamp: Optional[float] = None
        self._update_count = 0
        self._expired_slices = 0

    # -- window bookkeeping --------------------------------------------------

    def _slice_index(self, timestamp: float) -> int:
        """Index of the sub-interval that covers ``timestamp``."""
        return int(math.floor(timestamp / self._slice_span))

    def _evict_expired(self) -> None:
        """Drop every slice that ends before the start of the current window."""
        if self._latest_timestamp is None:
            return
        window_start = self._latest_timestamp - self.window_span
        expired = [
            index
            for index in self._sketches
            if (index + 1) * self._slice_span <= window_start
        ]
        for index in expired:
            del self._sketches[index]
            self._expired_slices += 1

    def _active_sketches(self) -> List[GSS]:
        """Sketches of the slices that intersect the current window."""
        return list(self._sketches.values())

    # -- updates ---------------------------------------------------------------

    def update(
        self,
        source: Hashable,
        destination: Hashable,
        weight: float = 1.0,
        timestamp: Optional[float] = None,
    ) -> None:
        """Apply one stream item with an explicit (or implicit) timestamp.

        When ``timestamp`` is omitted, items are assumed to arrive one time
        unit apart, which turns the window into a count-based window of
        ``window_span`` items.  A batch of one for :meth:`update_many`, so
        it is refused under the same rules.
        """
        self.update_many([(source, destination, weight, timestamp)])

    def update_many(self, items: Iterable[Sequence]) -> int:
        """Apply a batch of stream items.

        Each item is a ``(source, destination, weight)`` triple or a
        ``(source, destination, weight, timestamp)`` quadruple; a missing (or
        ``None``) timestamp falls back to the implicit one-unit-per-item
        clock.  The batch is refused whole (``ValueError``; ``TypeError``
        for an unhashable ID) before the clock moves, under
        :class:`~repro.core.gss.GSS`'s rules — item shape, real weights,
        hashable and encodable IDs — plus one of its own: a timestamp is
        ``None`` or a finite real number.  Items are then routed to their
        slices and each slice ingests its share through the batched
        :meth:`~repro.core.gss.GSS.update_many` fast path; slice eviction is
        deferred to the end of the batch, which yields the same final state
        because an evicted slice can never receive an in-window item again.

        Returns the number of items applied (including expired ones).
        """
        triples, timestamps = _window_items(items if isinstance(items, list) else list(items))
        pending: Dict[int, List[Tuple[Hashable, Hashable, float]]] = {}
        for triple, timestamp in zip(triples, timestamps):
            if timestamp is None:
                timestamp = float(self._update_count)
            self._update_count += 1
            if (
                self._latest_timestamp is not None
                and timestamp < self._latest_timestamp - self.window_span
            ):
                continue  # already older than the whole window
            if self._latest_timestamp is None or timestamp > self._latest_timestamp:
                self._latest_timestamp = timestamp
            pending.setdefault(self._slice_index(timestamp), []).append(triple)
        for index, slice_triples in pending.items():
            sketch = self._sketches.get(index)
            if sketch is None:
                sketch = GSS(self.config)
                self._sketches[index] = sketch
            sketch.update_many(slice_triples)
        self._evict_expired()
        return len(triples)

    def ingest(self, edges) -> "WindowedGSS":
        """Feed an iterable of :class:`~repro.streaming.edge.StreamEdge`."""
        self.update_many(
            (edge.source, edge.destination, edge.weight, edge.timestamp)
            for edge in edges
        )
        return self

    # -- queries ---------------------------------------------------------------

    def edge_query(self, source: Hashable, destination: Hashable) -> Optional[float]:
        """Aggregated in-window weight of the edge, or ``None`` when absent."""
        total = 0.0
        found = False
        for sketch in self._active_sketches():
            weight = sketch.edge_query(source, destination)
            if weight is not None:
                total += weight
                found = True
        return total if found else None

    def successor_query(self, node: Hashable) -> Set[Hashable]:
        """Union of the 1-hop successors reported by every live slice."""
        result: Set[Hashable] = set()
        for sketch in self._active_sketches():
            result.update(sketch.successor_query(node))
        return result

    def precursor_query(self, node: Hashable) -> Set[Hashable]:
        """Union of the 1-hop precursors reported by every live slice."""
        result: Set[Hashable] = set()
        for sketch in self._active_sketches():
            result.update(sketch.precursor_query(node))
        return result

    def node_out_weight(self, node: Hashable) -> float:
        """Total out-going weight of ``node`` inside the window."""
        return sum(sketch.node_out_weight(node) for sketch in self._active_sketches())

    def node_in_weight(self, node: Hashable) -> float:
        """Total in-coming weight of ``node`` inside the window."""
        return sum(sketch.node_in_weight(node) for sketch in self._active_sketches())

    # -- introspection ------------------------------------------------------------

    @property
    def active_slice_count(self) -> int:
        """Number of slices currently covering the window."""
        return len(self._sketches)

    @property
    def expired_slice_count(self) -> int:
        """Number of slices dropped so far because they aged out."""
        return self._expired_slices

    @property
    def update_count(self) -> int:
        """Number of stream items seen (including ones older than the window)."""
        return self._update_count

    @property
    def latest_timestamp(self) -> Optional[float]:
        """Timestamp of the most recent item, or ``None`` before any update."""
        return self._latest_timestamp

    def window_bounds(self) -> Optional[Tuple[float, float]]:
        """The ``(start, end)`` of the current window, or ``None`` when empty."""
        if self._latest_timestamp is None:
            return None
        return (self._latest_timestamp - self.window_span, self._latest_timestamp)

    def memory_bytes(self, include_node_index: bool = False) -> int:
        """Total memory of all live slices under the paper's C layout."""
        return sum(
            sketch.memory_bytes(include_node_index=include_node_index)
            for sketch in self._active_sketches()
        )

    @property
    def buffer_percentage(self) -> float:
        """Fraction of stored sketch edges that live in slice buffers."""
        matrix = sum(sketch.matrix_edge_count for sketch in self._active_sketches())
        buffered = sum(sketch.buffer_edge_count for sketch in self._active_sketches())
        total = matrix + buffered
        return buffered / total if total else 0.0

    @classmethod
    def capabilities(cls) -> Capabilities:
        """Feature descriptor: full query surface plus window expiry."""
        return Capabilities(windowed=True)
