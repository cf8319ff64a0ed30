"""The left-over edge buffer.

Edges that cannot be placed in any of their candidate buckets are stored in an
adjacency-list buffer ``B`` keyed by the *sketch* node hashes.  The buffer is
exact: weights of identical sketch edges are summed, and it is indexed in both
directions so successor and precursor queries can consult it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple


class LeftoverBuffer:
    """Adjacency-list storage of left-over sketch edges ``H(s) -> H(d)``."""

    def __init__(self) -> None:
        self._out: Dict[int, Dict[int, float]] = {}
        self._in: Dict[int, Set[int]] = {}
        self._edge_count = 0

    def __len__(self) -> int:
        return self._edge_count

    def __bool__(self) -> bool:
        return self._edge_count > 0

    def add(self, source_hash: int, destination_hash: int, weight: float) -> None:
        """Add ``weight`` to the buffered edge, creating it if absent."""
        out_edges = self._out.setdefault(source_hash, {})
        if destination_hash not in out_edges:
            self._edge_count += 1
            self._in.setdefault(destination_hash, set()).add(source_hash)
            out_edges[destination_hash] = 0.0
        out_edges[destination_hash] += weight

    def add_many(self, source_hashes, destination_hashes, weights) -> None:
        """:meth:`add` for aligned columns (lists), one edge after another.

        The order matters only for new edges, which are created in column
        order; the weights accumulate exactly as repeated :meth:`add` calls
        would.
        """
        out = self._out
        incoming = self._in
        created = 0
        for source_hash, destination_hash, weight in zip(
            source_hashes, destination_hashes, weights
        ):
            out_edges = out.get(source_hash)
            if out_edges is None:
                out_edges = out[source_hash] = {}
            if destination_hash in out_edges:
                out_edges[destination_hash] += weight
                continue
            created += 1
            sources = incoming.get(destination_hash)
            if sources is None:
                incoming[destination_hash] = {source_hash}
            else:
                sources.add(source_hash)
            out_edges[destination_hash] = 0.0 + weight
        self._edge_count += created

    def contains(self, source_hash: int, destination_hash: int) -> bool:
        """True when the buffered edge exists."""
        return destination_hash in self._out.get(source_hash, {})

    def weight(self, source_hash: int, destination_hash: int) -> float:
        """Return the buffered weight; raises ``KeyError`` when absent."""
        return self._out[source_hash][destination_hash]

    def get(
        self, source_hash: int, destination_hash: int, default: Optional[float] = None
    ) -> Optional[float]:
        """Return the buffered weight or ``default`` when absent."""
        return self._out.get(source_hash, {}).get(destination_hash, default)

    def successors_of(self, source_hash: int) -> List[int]:
        """Destination hashes of all buffered edges leaving ``source_hash``."""
        return list(self._out.get(source_hash, {}))

    def precursors_of(self, destination_hash: int) -> List[int]:
        """Source hashes of all buffered edges entering ``destination_hash``."""
        return list(self._in.get(destination_hash, ()))

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over all buffered ``(H(s), H(d), weight)`` triples."""
        for source_hash, neighbors in self._out.items():
            for destination_hash, weight in neighbors.items():
                yield source_hash, destination_hash, weight

    def memory_bytes(self) -> int:
        """Buffer memory under the paper's C layout (two 32-bit node hashes
        plus a 32-bit weight and a 32-bit next pointer per list cell)."""
        return self._edge_count * 16
