"""The left-over edge buffer.

Edges that cannot be placed in any of their candidate buckets are stored in an
adjacency-list buffer ``B`` keyed by the *sketch* node hashes.  The buffer is
exact: weights of identical sketch edges are summed, and it is indexed in both
directions so successor and precursor queries can consult it.

Two implementations share one interface:

* :class:`LeftoverBuffer` — a dict of dicts plus a reverse index of sets,
  the buffer of the python GSS backend and of
  :class:`~repro.core.basic.GSSBasic`.
* :class:`KernelBuffer` — a native GSS's buffer, which lives in the compiled
  kernel next to the matrix (entries in creation order, chained per source
  and per destination hash, each reached through the kernel's edge->slot
  map), so the kernel's batches, scalar updates and queries read and write
  it in the same call.  Its edges come out in the same order as a
  :class:`LeftoverBuffer` fed the same spills.
"""

from __future__ import annotations

import ctypes
from array import array
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


class KernelBuffer:
    """:class:`LeftoverBuffer`'s interface over a native GSS's kernel buffer.

    ``backend`` is the sketch's
    :class:`~repro.core.backends.NativeMatrixBackend`, whose kernel context
    holds the buffer; its ingest calls spill into it themselves.  Hashes
    are sketch hashes in ``[0, M)``.  Every call is one kernel call.
    ``successors_of`` lists destinations in creation order, as
    :class:`LeftoverBuffer` does; ``precursors_of`` lists sources in
    creation order, where :class:`LeftoverBuffer` gives set order.
    """

    def __init__(self, backend) -> None:
        self._backend = backend  # owns, and keeps alive, the kernel context
        self._lib = backend._lib
        self._ctx = backend._ctx
        self._hash_range = backend._hash_range
        self._weight = ctypes.c_double()

    def __len__(self) -> int:
        return self._lib.gss_buffer_count(self._ctx)

    def __bool__(self) -> bool:
        return len(self) > 0

    def add(self, source_hash: int, destination_hash: int, weight: float) -> None:
        """Add ``weight`` to the buffered edge, creating it if absent.

        Raises ``ValueError`` when the edge is stored in a matrix room (a
        snapshot whose buffer repeats a room's edge)."""
        status = self._lib.gss_buffer_add(self._ctx, source_hash, destination_hash, weight)
        if status == -1:  # pragma: no cover - allocation failure
            raise MemoryError("native buffer allocation failed")
        if status == -3:
            raise ValueError(
                f"edge ({source_hash}, {destination_hash}) is stored in a matrix room"
            )

    def get(
        self, source_hash: int, destination_hash: int, default: Optional[float] = None
    ) -> Optional[float]:
        """Return the buffered weight or ``default`` when absent."""
        key = source_hash * self._hash_range + destination_hash
        if self._lib.gss_edge_weight(self._ctx, key, ctypes.byref(self._weight)) == 2:
            return self._weight.value
        return default

    def contains(self, source_hash: int, destination_hash: int) -> bool:
        """True when the buffered edge exists."""
        return self.get(source_hash, destination_hash) is not None

    def weight(self, source_hash: int, destination_hash: int) -> float:
        """Return the buffered weight; raises ``KeyError`` when absent."""
        weight = self.get(source_hash, destination_hash)
        if weight is None:
            raise KeyError((source_hash, destination_hash))
        return weight

    def _neighbors(self, node_hash: int, forward: bool) -> List[int]:
        """The node's buffer chain: counted, then written."""
        count = self._lib.gss_buffer_neighbors(self._ctx, node_hash, forward, None, 0)
        out = array("Q", bytes(8 * count))
        if count:
            self._lib.gss_buffer_neighbors(
                self._ctx, node_hash, forward, out.buffer_info()[0], count
            )
        return out.tolist()

    def successors_of(self, source_hash: int) -> List[int]:
        """Destination hashes of all buffered edges leaving ``source_hash``."""
        return self._neighbors(source_hash, True)

    def precursors_of(self, destination_hash: int) -> List[int]:
        """Source hashes of all buffered edges entering ``destination_hash``."""
        return self._neighbors(destination_hash, False)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over all buffered ``(H(s), H(d), weight)`` triples, in
        :class:`LeftoverBuffer`'s order: sources in first-seen order, each
        one's edges in creation order."""
        empty = bytes(8 * len(self))
        columns = array("Q", empty), array("Q", empty), array("d", empty)
        self._lib.gss_buffer_edges(self._ctx, *(column.buffer_info()[0] for column in columns))
        return zip(*(column.tolist() for column in columns))

    def memory_bytes(self) -> int:
        """Buffer memory under the paper's C layout (two 32-bit node hashes
        plus a 32-bit weight and a 32-bit next pointer per list cell)."""
        return len(self) * 16
