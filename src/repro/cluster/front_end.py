"""The sharded deployment's ingest front end: hash, route and scatter a batch.

A :class:`~repro.cluster.ShardedSummary` turns every batch of stream items
into one :class:`ShardColumns` message per shard it touches: the shard's
``(H(s), H(d), weight)`` columns in stream order, plus the ``(node,
H(v))`` pairs its reverse node index needs.  Two front ends produce it:

* :class:`KernelFrontEnd` — for all-string batches with the compiled kernel
  available and at most :data:`MAX_KERNEL_SHARDS` shards.  One
  ``gss_route_text_batch`` call hashes every token through a persistent
  node table (``H(v)`` once per distinct node, the routing hash once per
  distinct source), routes, scatters the columns, and reports per shard
  only the nodes that shard has never been sent (a per-node shard
  bitmask).  Served batches take it too: serve ingest frames carry node
  IDs, so the router hashes a node the first time it meets it, whatever
  batch it arrives in;
* :func:`split_columns` — the Python front end, for everything else
  (no NumPy or compiler, non-string or NUL-containing IDs, more shards
  than a bitmask holds).  It splits a
  :class:`~repro.streaming.batch.HashedBatch` by route and sends each
  shard its sub-batch's distinct ``(node, hash)`` pairs.

Both send pairs in first-seen interleaved order (source, destination, next
source, ...) and a shard records them with ``NodeIndex.record_new_many``,
which ignores nodes it already holds, so either front end leaves every
shard's node index — and so every answer and ``to_dict`` — exactly as
item-by-item ingestion would.  A shard that refuses a message for a node
it holds under another hash still records the message's other nodes, so
the router's masks stay true; a message that never reaches its shard
makes the deployment rebuild its router, which then sends every node
again once.

Across a worker pipe the message travels as one blob (:func:`encode_columns`)
when NumPy is available, else as the pickled :class:`ShardColumns` of lists.
"""

from __future__ import annotations

import pickle
import struct
import weakref
from itertools import chain
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.hashing.hash_functions import _FNV_OFFSET, _count_hashes, _splitmix64
from repro.hashing.vectorized import load_numpy
from repro.obs import trace as obs_trace
from repro.streaming.batch import HashedBatch, HashSpec

__all__ = [
    "KernelFrontEnd",
    "MAX_KERNEL_SHARDS",
    "ShardColumns",
    "checked_columns",
    "decode_columns",
    "encode_columns",
    "split_columns",
]

#: Shard count the kernel's per-node bitmask (a uint64) can track.
MAX_KERNEL_SHARDS = 64

#: Header of the columns blob: rows, node pairs, pickled-nodes length.
_COLUMNS_HEADER = struct.Struct("=QQQ")


class ShardColumns(NamedTuple):
    """One shard's share of a batch: aligned hash/weight columns (stream
    order) plus the ``(node, node_hash)`` pairs to record, as two aligned
    sequences.  Columns are NumPy arrays or lists."""

    source_hashes: Sequence
    destination_hashes: Sequence
    weights: Sequence
    nodes: Sequence
    node_hashes: Sequence


def checked_columns(columns) -> ShardColumns:
    """``columns`` as :class:`ShardColumns`; :class:`ValueError` when its
    columns or its pair lists disagree in length."""
    columns = ShardColumns(*columns)
    rows = len(columns.source_hashes)
    if len(columns.destination_hashes) != rows or len(columns.weights) != rows:
        raise ValueError(
            f"shard columns of unequal length: {rows} source hashes, "
            f"{len(columns.destination_hashes)} destination hashes, "
            f"{len(columns.weights)} weights"
        )
    if len(columns.nodes) != len(columns.node_hashes):
        raise ValueError(
            f"{len(columns.nodes)} nodes but {len(columns.node_hashes)} node hashes"
        )
    return columns


def encode_columns(columns: ShardColumns) -> bytes:
    """Serialize one shard message into a blob (needs NumPy).

    Layout (native endianness; both ends share the architecture): the
    header (rows, pairs, pickled-nodes length as u64), then ``rows`` u64
    source hashes, ``rows`` u64 destination hashes, ``rows`` f64 weights,
    ``pairs`` u64 node hashes, and the pickled node list.
    """
    np = load_numpy()
    nodes_blob = pickle.dumps(list(columns.nodes), protocol=pickle.HIGHEST_PROTOCOL)
    return b"".join(
        (
            _COLUMNS_HEADER.pack(
                len(columns.source_hashes), len(columns.nodes), len(nodes_blob)
            ),
            np.ascontiguousarray(columns.source_hashes, dtype=np.uint64).tobytes(),
            np.ascontiguousarray(columns.destination_hashes, dtype=np.uint64).tobytes(),
            np.ascontiguousarray(columns.weights, dtype=np.float64).tobytes(),
            np.ascontiguousarray(columns.node_hashes, dtype=np.uint64).tobytes(),
            nodes_blob,
        )
    )


def decode_columns(blob: bytes) -> ShardColumns:
    """Invert :func:`encode_columns`; :class:`ValueError` when the header
    disagrees with the blob's length or with its node list.  The numeric
    columns are read-only views into ``blob``."""
    np = load_numpy()
    if len(blob) < _COLUMNS_HEADER.size:
        raise ValueError(f"columns blob of {len(blob)} bytes is shorter than its header")
    rows, pairs, nodes_nbytes = _COLUMNS_HEADER.unpack_from(blob, 0)
    if _COLUMNS_HEADER.size + 24 * rows + 8 * pairs + nodes_nbytes != len(blob):
        raise ValueError(
            f"columns blob of {len(blob)} bytes does not hold the {rows} rows, "
            f"{pairs} node pairs and {nodes_nbytes} node bytes its header declares"
        )
    cursor = _COLUMNS_HEADER.size
    arrays = []
    for count, dtype in (
        (rows, np.uint64),
        (rows, np.uint64),
        (rows, np.float64),
        (pairs, np.uint64),
    ):
        arrays.append(np.frombuffer(blob, dtype=dtype, count=count, offset=cursor))
        cursor += 8 * count
    nodes = pickle.loads(memoryview(blob)[cursor:])
    source_hashes, destination_hashes, weights, node_hashes = arrays
    return checked_columns(
        (source_hashes, destination_hashes, weights, nodes, node_hashes)
    )


def split_columns(batch: HashedBatch, workers: int) -> Iterator[Tuple[int, ShardColumns]]:
    """The Python front end: ``(shard, columns)`` for each shard ``batch``
    (built with routing hashes) touches, in ascending shard order.

    Each shard gets its sub-batch's distinct ``(node, hash)`` pairs in
    first-seen interleaved order.  Lazy, so a caller's span can time the
    split with the sends.
    """
    for shard, sub in batch.split_by_route(workers):
        pairs = dict.fromkeys(sub.node_hash_items())
        yield shard, ShardColumns(
            sub.source_hashes,
            sub.destination_hashes,
            sub.weights,
            [node for node, _ in pairs],
            [node_hash for _, node_hash in pairs],
        )


class KernelFrontEnd:
    """The kernel front end of one deployment: its ``gss_router`` (node
    table, routed shard and sent-shards mask per node) and the hash family.

    Build with :meth:`create`, which returns ``None`` where the kernel
    cannot run.  :meth:`route` returns ``None`` for a batch it cannot take
    (non-string or NUL-containing IDs, items that are not triples, a full
    node arena), leaving the router untouched; the caller then takes
    :func:`split_columns`.
    """

    def __init__(self, lib, spec: HashSpec, workers: int) -> None:
        router = lib.gss_router_new(workers)
        if not router:  # pragma: no cover - allocation failure
            raise MemoryError("native router allocation failed")
        self._lib = lib
        self._router = router
        self._finalizer = weakref.finalize(self, lib.gss_router_free, router)
        self._states = (
            _FNV_OFFSET ^ _splitmix64(spec.seed),
            _FNV_OFFSET ^ _splitmix64(spec.routing_seed),
            spec.hash_range,
        )
        self._np = load_numpy()
        self._item_counts = self._np.zeros(workers, dtype=self._np.int64)
        self._new_counts = self._np.zeros(workers, dtype=self._np.int64)

    @classmethod
    def create(cls, spec: HashSpec, workers: int) -> Optional["KernelFrontEnd"]:
        """A kernel front end for ``spec`` (with its routing seed) over
        ``workers`` shards, or ``None`` when the compiled kernel is
        unavailable or ``workers`` exceeds :data:`MAX_KERNEL_SHARDS`."""
        from repro.core._native import load_native, native_available

        if workers > MAX_KERNEL_SHARDS or not native_available():
            return None
        return cls(load_native(), spec, workers)

    def route(self, items: List) -> Optional[List[Tuple[int, ShardColumns]]]:
        """Hash, route and scatter ``items`` (``(source, destination,
        weight)`` triples) in one ``gss_route_text_batch`` call; each shard
        is sent only the nodes it has never been sent."""
        try:
            if set(map(len, items)) != {3}:
                return None
            # One flat list, then the weights cut out of it: the node IDs
            # are left in interleaved stream order.
            tokens = list(chain.from_iterable(items))
        except TypeError:
            return None
        weights = tokens[2::3]
        del tokens[2::3]
        try:
            blob = "\x00".join(tokens).encode("utf-8")
        except (TypeError, ValueError):
            # Not all strings (UnicodeEncodeError is a ValueError): the
            # Python front end hashes these.
            return None
        count = len(weights)
        if blob.count(0) != 2 * count - 1:
            return None
        np = self._np
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        out = self._outputs(count)
        with obs_trace.span("ingest.hash_batch"):
            hashed = self._lib.gss_route_text_batch(
                self._router,
                blob,
                len(blob),
                weights.ctypes.data,
                count,
                *self._states,
                *(column.ctypes.data for column in out),
            )
        if hashed == -2:  # pragma: no cover - NUL-screened, or the arena is full
            return None
        if hashed < 0:  # pragma: no cover - allocation failure
            raise MemoryError("native router batch allocation failed")
        _count_hashes(hashed)
        return self._parts(out, tokens)

    def _outputs(self, count: int) -> tuple:
        """Fresh output columns for a batch of ``count`` items, in the
        kernel's argument order."""
        np = self._np
        return (
            np.empty(count, dtype=np.uint64),
            np.empty(count, dtype=np.uint64),
            np.empty(count, dtype=np.float64),
            self._item_counts,
            np.empty(2 * count, dtype=np.int64),
            np.empty(2 * count, dtype=np.uint64),
            self._new_counts,
        )

    def _parts(self, out: tuple, nodes: List) -> List[Tuple[int, ShardColumns]]:
        """Cut the kernel's outputs into one :class:`ShardColumns` per shard
        with rows; the new tokens index ``nodes``."""
        source_hashes, destination_hashes, weights = out[:3]
        item_counts, new_tokens, new_hashes, new_counts = out[3:]
        parts = []
        row = pair = 0
        for shard, (rows, pairs) in enumerate(zip(item_counts.tolist(), new_counts.tolist())):
            if not rows:
                continue
            parts.append(
                (
                    shard,
                    ShardColumns(
                        source_hashes[row : row + rows],
                        destination_hashes[row : row + rows],
                        weights[row : row + rows],
                        list(map(nodes.__getitem__, new_tokens[pair : pair + pairs].tolist())),
                        new_hashes[pair : pair + pairs],
                    ),
                )
            )
            row += rows
            pair += pairs
        return parts
