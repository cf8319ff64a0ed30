"""The sharded deployment's ingest front end: hash, route and scatter a batch.

A :class:`~repro.cluster.ShardedSummary` turns every batch of stream items
into one :class:`ShardColumns` message per shard it touches: the shard's
``(H(s), H(d), weight)`` columns in stream order, plus the ``(node,
H(v))`` pairs of the nodes that shard has never been sent, which its
reverse node index needs.  Two front ends produce it, under one model — a
persistent router table that holds, per node, ``H(v)`` (hashed once per
distinct node), the shard it routes to as a source (the routing hash,
once per distinct source) and the shards it has been sent:

* :class:`KernelFrontEnd` — for all-string batches with the compiled kernel
  available and at most :data:`MAX_KERNEL_SHARDS` shards.  One
  ``gss_route_text_batch`` call hashes, routes and scatters the batch
  against the kernel's ``gss_router``.  Served batches take it too: serve
  ingest frames carry node IDs;
* :class:`PythonFrontEnd` — the same router in Python, for everything
  else (no NumPy or compiler, non-string or NUL-containing IDs, more
  shards than the kernel's bitmask holds).  Its columns are lists.

Both take a batch under one item rule
(:func:`~repro.streaming.batch.triple_tokens`: exact triples, real
weights) and refuse it whole, before their table changes.  Both send pairs
in first-seen interleaved order (source, destination, next source, ...)
and a shard records them with its node index's ``record_new_many`` (on a
native shard, one call into its kernel's node table), which ignores
nodes it already holds, so either front end leaves every shard's node
index — and so every answer and ``to_dict`` — exactly as item-by-item
ingestion would.  A shard that refuses a message for a node it holds
under another hash still records the message's other nodes, so the
routers' masks stay true; a message that never reaches its shard makes
the deployment replace both routers, which then send every node again
once.

Across a worker pipe the message travels as one blob (:func:`encode_columns`)
when NumPy is available, else as the pickled :class:`ShardColumns` of lists.
"""

from __future__ import annotations

import pickle
import struct
import weakref
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.hashing.hash_functions import (
    _FNV_OFFSET,
    _count_hashes,
    _splitmix64,
    hash_key,
)
from repro.hashing.vectorized import load_numpy
from repro.obs import trace as obs_trace
from repro.streaming.batch import HashSpec, text_batch, triple_tokens

__all__ = [
    "KernelFrontEnd",
    "MAX_KERNEL_SHARDS",
    "PythonFrontEnd",
    "ShardColumns",
    "checked_columns",
    "decode_columns",
    "encode_columns",
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


#: A table entry's fields: ``H(v)``, the shard the node routes to as a
#: source (``-1`` until it is seen as one), and the mask of shards sent it.
_HASH, _HOME, _SENT = range(3)

#: The entry of a node the table does not hold.
_UNSEEN = (0, -1, 0)


class PythonFrontEnd:
    """The Python front end of one deployment: the kernel router's model —
    one persistent table, node -> ``[H(v), home shard, sent-shards mask]``
    — for the batches :class:`KernelFrontEnd` cannot take.

    :meth:`route` takes any hashable node IDs and any shard count; it
    never declines a batch, it refuses it (before the table changes).
    """

    def __init__(self, spec: HashSpec, workers: int) -> None:
        self._spec = spec
        self._workers = workers
        self._nodes: Dict[Hashable, List[int]] = {}

    def route(self, items: List) -> List[Tuple[int, ShardColumns]]:
        """Hash, route and scatter ``items`` into ``(shard, columns)`` for
        each shard they touch, in ascending shard order; each shard is sent
        only the nodes it has never been sent.

        Refuses the whole batch, before the table changes, under
        :func:`~repro.streaming.batch.triple_tokens`'s item rule, and when
        an ID is unhashable (``TypeError``) or cannot be hashed (a ``str``
        UTF-8 cannot encode, ``ValueError``).
        """
        tokens, weights = triple_tokens(items)
        weights = list(map(float, weights))
        nodes = self._nodes
        spec = self._spec
        with obs_trace.span("ingest.hash_batch"):
            fresh = [node for node in dict.fromkeys(tokens) if node not in nodes]
            # repro: allow(hash-once): the Python router's node hash — each
            # node the table does not hold is hashed once, here.
            hashes = [hash_key(node, spec.seed) % spec.hash_range for node in fresh]
            homes = self._homes(tokens[0::2])
        for node, node_hash in zip(fresh, hashes):
            nodes[node] = [node_hash, -1, 0]
        for source, home in homes.items():
            nodes[source][_HOME] = home
        parts: Dict[int, ShardColumns] = {}
        entries = iter(zip(tokens, map(nodes.__getitem__, tokens)))
        for source_pair, destination_pair, weight in zip(entries, entries, weights):
            shard = source_pair[1][_HOME]
            part = parts.get(shard)
            if part is None:
                part = parts[shard] = ShardColumns([], [], [], [], [])
            part.source_hashes.append(source_pair[1][_HASH])
            part.destination_hashes.append(destination_pair[1][_HASH])
            part.weights.append(weight)
            bit = 1 << shard
            for node, entry in (source_pair, destination_pair):
                if not entry[_SENT] & bit:
                    entry[_SENT] |= bit
                    part.nodes.append(node)
                    part.node_hashes.append(entry[_HASH])
        return sorted(parts.items())

    def shards_of(self, sources: Iterable[Hashable]) -> List[int]:
        """The shard each of ``sources`` routes to, in order — read from the
        table, or hashed once per distinct source it has not routed.  Reads
        only: the table does not change."""
        sources = list(sources)
        homes = self._homes(sources)
        nodes = self._nodes
        return [
            homes[source] if source in homes else nodes[source][_HOME]
            for source in sources
        ]

    def _homes(self, sources: List[Hashable]) -> Dict[Hashable, int]:
        """The home shard of each distinct source in ``sources`` that the
        table has not routed yet: its routing hash, computed once each."""
        nodes = self._nodes
        spec = self._spec
        return {
            # repro: allow(hash-once): the Python router's routing hash —
            # each source the table has not routed is hashed once, here.
            source: hash_key(source, spec.routing_seed) % self._workers
            for source in dict.fromkeys(sources)
            if nodes.get(source, _UNSEEN)[_HOME] < 0
        }


class KernelFrontEnd:
    """The kernel front end of one deployment: its ``gss_router`` (node
    table, routed shard and sent-shards mask per node) and the hash family.

    Build with :meth:`create`, which returns ``None`` where the kernel
    cannot run.  :meth:`route` returns ``None`` for a batch it cannot take
    (non-string or NUL-containing IDs, a full node arena), leaving the
    router untouched; the caller then takes its :class:`PythonFrontEnd`.
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
        is sent only the nodes it has never been sent.  The batch is cut by
        :func:`~repro.streaming.batch.text_batch`, as for a native GSS, and
        refused whole (``ValueError``) under its item rule."""
        tokens, weights, blob = text_batch(items)
        if blob is None:
            return None
        count = len(weights)
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
