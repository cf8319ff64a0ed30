"""The graph query primitives every store and sketch implements.

The paper's Definition 4 fixes the contract:

* **edge query** — given an edge ``(s, d)`` return its weight, or report the
  edge as absent;
* **1-hop successor query** — given a node ``v`` return the set of nodes that
  are 1-hop reachable from ``v`` (empty result is reported as ``{-1}`` in the
  paper; we return an empty set and expose the sentinel for callers that want
  the paper's exact convention);
* **1-hop precursor query** — symmetric, nodes that reach ``v`` in one hop.

Exact stores answer them exactly; sketches answer them approximately.  The
compound queries in this package only rely on this protocol, so they run
unchanged on top of either.

``edge_query`` returns ``Optional[float]`` — ``None`` when the edge is
absent — because the paper's ``-1.0`` sentinel collides with a real edge
whose deletions sum to exactly ``-1.0``.

This module also hosts :class:`Capabilities`, the feature descriptor every
summary structure reports through its ``capabilities()`` classmethod, and
:class:`UnsupportedQueryError`, raised by structures asked for a query they
cannot answer.  They live here — not in :mod:`repro.api` — so the core and
baseline packages can import them without a circular dependency; the public
API re-exports them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Protocol, Set, Tuple, runtime_checkable

#: Sentinel set returned by the paper for empty successor/precursor results.
NO_NEIGHBORS: Set[int] = frozenset({-1})


class UnsupportedQueryError(NotImplementedError):
    """A summary was asked for a query its structure cannot answer.

    Raised (instead of returning a wrong answer) when e.g. a Count-Min sketch
    — which stores no topology — receives a successor query.  The
    corresponding :class:`Capabilities` flag is ``False`` whenever a structure
    raises this, which the conformance suite asserts.
    """


@dataclass(frozen=True)
class Capabilities:
    """Which optional features of the :class:`GraphQueryInterface` protocol a
    summary structure actually supports.

    Every registered sketch reports one of these from its ``capabilities()``
    classmethod; ``repro.api`` exposes them through ``sketch_info`` so callers
    can pick structures by feature instead of by trial and error.
    """

    #: ``edge_query`` answers with an estimate (``None`` when absent).
    edge_queries: bool = True
    #: ``successor_query`` returns original node IDs.
    successor_queries: bool = True
    #: ``precursor_query`` returns original node IDs.
    precursor_queries: bool = True
    #: ``node_out_weight`` (aggregate out-going weight) is available.
    node_out_weights: bool = True
    #: ``node_in_weight`` (aggregate in-coming weight) is available.
    node_in_weights: bool = True
    #: Negative update weights (stream deletions) are handled.
    deletions: bool = True
    #: ``update_many`` is an *optimized* batched path (pre-aggregation,
    #: per-group routing or vectorization) rather than the generic
    #: item-at-a-time fallback.  Every summary accepts ``update_many`` and
    #: answers identically either way; this flag marks where batching is a
    #: speedup.
    batched_updates: bool = True
    #: ``to_dict`` / ``from_dict`` round-trip the structure exactly.
    serializable: bool = False
    #: Instances with compatible parameters can be merged.
    mergeable: bool = False
    #: The structure expires old items (sliding-window semantics).
    windowed: bool = False
    #: Sketch-hash-level paths (``update_by_hash`` / ``edge_query_by_hash``).
    by_hash: bool = False
    #: A global triangle-count estimate is maintained (``triangle_estimate``).
    triangle_estimates: bool = False

    def as_dict(self) -> Dict[str, bool]:
        """The flags as a plain ``{name: bool}`` dictionary (JSON-friendly)."""
        return asdict(self)

    def supported(self) -> Tuple[str, ...]:
        """Names of the features this structure supports, in field order."""
        return tuple(name for name, value in self.as_dict().items() if value)

    @property
    def topology_queries(self) -> bool:
        """Whether 1-hop neighbourhood queries work in both directions."""
        return self.successor_queries and self.precursor_queries


@dataclass(frozen=True)
class ShardIngestStats:
    """Per-shard ingestion stats of a sharded deployment.

    Reported by summaries that route items across shards — the in-process
    :class:`~repro.core.partitioned.PartitionedGSS` and the multi-process
    :class:`~repro.cluster.ShardedSummary` — through their
    ``shard_ingest_stats()`` method, and surfaced per feed by
    :class:`repro.api.StreamSession` so routing imbalance is observable from
    the facade.  Defined here (not in ``repro.cluster``) so core modules can
    report it without depending on the cluster package.
    """

    #: Stream items routed to each shard, in shard order (cumulative).
    items_routed: List[int] = field(default_factory=list)
    #: Largest number of batches that were in flight to any single worker at
    #: once.  Always 0 for synchronous in-process sharding.
    queue_depth_high_water: int = 0

    @property
    def total_items(self) -> int:
        """Items routed across all shards."""
        return sum(self.items_routed)

    @property
    def routing_imbalance(self) -> float:
        """Max items routed to one shard over the mean (1.0 = perfectly even).

        Returns 1.0 for an empty cluster instead of dividing by zero, the
        same convention as ``PartitionedGSS.load_imbalance``.
        """
        if not self.items_routed:
            return 1.0
        mean = self.total_items / len(self.items_routed)
        if mean == 0:
            return 1.0
        return max(self.items_routed) / mean


class SummaryShims:
    """Shared protocol defaults, mixed into every summary structure.

    The mixin supplies protocol defaults so every structure satisfies the
    full :class:`repro.api.GraphSummary` surface: a generic item-by-item
    ``update_many`` loop (classes with an optimized batched path override
    it; the ``batched_updates`` capability flags the optimized ones), raising
    ``node_out_weight`` / ``node_in_weight``, and a raising ``to_dict`` for
    structures without a snapshot format.
    """

    def update_many(self, items: Iterable[Tuple[Hashable, Hashable, float]]) -> int:
        """Protocol default: apply a batch item-by-item through ``update``.

        Items are star-unpacked, so windowed structures that keep this
        default still receive the optional fourth (timestamp) element.
        """
        count = 0
        for item in items:
            self.update(*item)
            count += 1
        return count

    def node_out_weight(self, node: Hashable) -> float:
        """Protocol default: no aggregate out-weight query."""
        raise UnsupportedQueryError(
            f"{type(self).__name__} does not support node_out_weight"
        )

    def node_in_weight(self, node: Hashable) -> float:
        """Protocol default: no aggregate in-weight query."""
        raise UnsupportedQueryError(
            f"{type(self).__name__} does not support node_in_weight"
        )

    def to_dict(self, *args, **kwargs) -> Dict:
        """Protocol default: this structure has no snapshot format."""
        raise UnsupportedQueryError(
            f"{type(self).__name__} does not support serialization "
            "(capabilities().serializable is False)"
        )


@runtime_checkable
class GraphQueryInterface(Protocol):
    """Protocol shared by exact stores and sketches."""

    def update(self, source: Hashable, destination: Hashable, weight: float = 1.0) -> None:
        """Apply one stream item (add ``weight`` to edge ``source -> destination``)."""

    def edge_query(self, source: Hashable, destination: Hashable) -> Optional[float]:
        """Return the aggregated weight of the edge, or ``None`` when absent."""

    def successor_query(self, node: Hashable) -> Set[Hashable]:
        """Return the 1-hop successors of ``node`` (empty set when none)."""

    def precursor_query(self, node: Hashable) -> Set[Hashable]:
        """Return the 1-hop precursors of ``node`` (empty set when none)."""


def edge_weight_or_zero(store: GraphQueryInterface, source: Hashable, destination: Hashable) -> float:
    """``edge_query`` with absent edges reported as ``0.0``.

    The natural reading for accuracy metrics and weight aggregation, shared
    by the compound-query layer and the experiment runners.
    """
    weight = store.edge_query(source, destination)
    return 0.0 if weight is None else weight


def consume_stream(
    store: GraphQueryInterface, edges: Iterable, batch_size: int = 1024
) -> GraphQueryInterface:
    """Feed every item of a stream into ``store`` and return it.

    Accepts anything iterable over :class:`~repro.streaming.edge.StreamEdge`
    (a ``GraphStream``, list, generator, ...).  Stores that expose the
    batched ``update_many`` API (every sketch in :mod:`repro.core`) are fed
    in ``batch_size`` chunks; others fall back to item-at-a-time ``update``.

    This is the low-level feeding loop; prefer
    :class:`repro.api.StreamSession` in application code — it adds dataset
    loading, progress hooks and throughput metrics on top of the same
    chunking.
    """
    update_many = getattr(store, "update_many", None)
    if update_many is None:
        for edge in edges:
            store.update(edge.source, edge.destination, edge.weight)
        return store
    batch = []
    for edge in edges:
        batch.append((edge.source, edge.destination, edge.weight))
        if len(batch) >= batch_size:
            update_many(batch)
            batch = []
    if batch:
        update_many(batch)
    return store


def as_paper_result(neighbors: Set[Hashable]) -> Set:
    """Convert an empty neighbor set to the paper's ``{-1}`` convention."""
    return set(neighbors) if neighbors else set(NO_NEIGHBORS)
