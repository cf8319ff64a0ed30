"""TRIEST (De Stefani et al., KDD 2016): streaming triangle counting.

TRIEST keeps a fixed-size reservoir sample of the (undirected, de-duplicated)
edge stream and maintains an estimate of the global triangle count.  Figure 14
of the paper compares GSS against TRIEST with equal memory for triangle
counting on cit-HepPh, so we provide the two insertion-only variants:

* ``TriestBase`` — counts a triangle only when all three edges are in the
  reservoir and rescales by the sampling probability at query time;
* ``TriestImproved`` — counts triangles at arrival time using the unbiased
  "increment by eta(t)" rule, which has lower variance.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Set, Tuple


def _undirected_key(a: Hashable, b: Hashable) -> Tuple[Hashable, Hashable]:
    """Canonical (sorted by repr) undirected edge key."""
    return (a, b) if repr(a) <= repr(b) else (b, a)


class _ReservoirGraph:
    """Adjacency view of the edges currently held in the reservoir.

    Edges live in a list plus a key -> position map rather than a set, so
    :meth:`random_edge` draws by index: the same ``rng`` state picks the same
    edge in every process, whatever ``PYTHONHASHSEED`` is.  Removal swaps the
    last edge into the freed position, keeping both operations O(1).
    """

    def __init__(self) -> None:
        self._adjacency: Dict[Hashable, Set[Hashable]] = {}
        self._edges: List[Tuple[Hashable, Hashable]] = []
        self._positions: Dict[Tuple[Hashable, Hashable], int] = {}

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, key: Tuple[Hashable, Hashable]) -> bool:
        return key in self._positions

    def add(self, key: Tuple[Hashable, Hashable]) -> None:
        first, second = key
        self._positions[key] = len(self._edges)
        self._edges.append(key)
        self._adjacency.setdefault(first, set()).add(second)
        self._adjacency.setdefault(second, set()).add(first)

    def remove(self, key: Tuple[Hashable, Hashable]) -> None:
        first, second = key
        position = self._positions.pop(key, None)
        if position is not None:
            last = self._edges.pop()
            if position < len(self._edges):
                self._edges[position] = last
                self._positions[last] = position
        self._adjacency.get(first, set()).discard(second)
        self._adjacency.get(second, set()).discard(first)

    def common_neighbors(self, a: Hashable, b: Hashable) -> Set[Hashable]:
        return self._adjacency.get(a, set()) & self._adjacency.get(b, set())

    def random_edge(self, rng: random.Random) -> Tuple[Hashable, Hashable]:
        return self._edges[rng.randrange(len(self._edges))]


class TriestBase:
    """TRIEST-BASE: reservoir sampling + rescaled triangle counts."""

    def __init__(self, reservoir_size: int, seed: int = 0) -> None:
        if reservoir_size < 6:
            raise ValueError("reservoir_size must be at least 6")
        self.reservoir_size = reservoir_size
        self._rng = random.Random(seed)
        self._graph = _ReservoirGraph()
        self._stream_length = 0
        self._sample_triangles = 0.0

    # -- updates -----------------------------------------------------------

    def add_edge(self, source: Hashable, destination: Hashable) -> None:
        """Process one (undirected, assumed distinct) edge arrival."""
        if source == destination:
            return
        key = _undirected_key(source, destination)
        if key in self._graph:
            return
        self._stream_length += 1
        if self._sample_edge(key):
            self._update_counters(key, +1)
            self._graph.add(key)

    def _sample_edge(self, key: Tuple[Hashable, Hashable]) -> bool:
        if len(self._graph) < self.reservoir_size:
            return True
        if self._rng.random() < self.reservoir_size / self._stream_length:
            evicted = self._graph.random_edge(self._rng)
            self._graph.remove(evicted)
            self._update_counters(evicted, -1)
            return True
        return False

    def _update_counters(self, key: Tuple[Hashable, Hashable], delta: int) -> None:
        first, second = key
        shared = self._graph.common_neighbors(first, second)
        self._sample_triangles += delta * len(shared)

    # -- estimates -----------------------------------------------------------

    def _scaling_factor(self) -> float:
        t = self._stream_length
        m = self.reservoir_size
        if t <= m:
            return 1.0
        return max(
            1.0,
            (t * (t - 1) * (t - 2)) / (m * (m - 1) * (m - 2)),
        )

    def triangle_estimate(self) -> float:
        """Estimated number of global triangles seen so far."""
        return self._sample_triangles * self._scaling_factor()

    def ingest(self, edges) -> "TriestBase":
        """Feed an iterable of stream edges (direction is ignored)."""
        for edge in edges:
            self.add_edge(edge.source, edge.destination)
        return self

    def memory_bytes(self) -> int:
        """Reservoir memory under a C layout (two ids per edge, 8 bytes each)."""
        return self.reservoir_size * 16


class TriestImproved(TriestBase):
    """TRIEST-IMPR: counts weighted triangles at arrival time (lower variance)."""

    def add_edge(self, source: Hashable, destination: Hashable) -> None:
        if source == destination:
            return
        key = _undirected_key(source, destination)
        if key in self._graph:
            return
        self._stream_length += 1
        eta = self._eta()
        first, second = key
        shared = self._graph.common_neighbors(first, second)
        self._sample_triangles += eta * len(shared)
        if self._sample_edge_improved():
            self._graph.add(key)

    def _eta(self) -> float:
        t = self._stream_length
        m = self.reservoir_size
        if t <= m:
            return 1.0
        return max(1.0, ((t - 1) * (t - 2)) / (m * (m - 1)))

    def _sample_edge_improved(self) -> bool:
        if len(self._graph) < self.reservoir_size:
            return True
        if self._rng.random() < self.reservoir_size / self._stream_length:
            evicted = self._graph.random_edge(self._rng)
            self._graph.remove(evicted)
            return True
        return False

    def _scaling_factor(self) -> float:  # estimates are already unbiased
        return 1.0
