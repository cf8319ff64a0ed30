"""The full Graph Stream Sketch (Section V of the paper).

The sketch stores the graph sketch ``Gh`` (obtained by hashing node IDs into
``[0, M)`` with ``M = m * F``) in an ``m x m`` matrix of buckets plus a small
left-over buffer.  Every bucket holds ``l`` rooms; every room records the
fingerprint pair, the index pair (which member of each endpoint's address
sequence produced this row/column) and the aggregated weight.

Square hashing gives every node ``r`` alternative rows/columns derived from a
linear-congruential sequence seeded by its fingerprint, and candidate-bucket
sampling probes only ``k`` of the resulting ``r * r`` buckets per edge.  Both
optimizations — and the number of rooms — can be switched off to reproduce the
paper's ablations.

The :class:`GSS` owns the hashing, the reverse node index (the paper's
``<H(v), v>`` table; on the native backend its string IDs live only in the
kernel's node table, see :mod:`repro.core.reverse_index`), the left-over
buffer (:mod:`repro.core.buffer`; on the native backend it lives in the
kernel) and the query API; where a room goes is its matrix backend's
business (``GSSConfig.backend``, see :mod:`repro.core.backends`), each with
one placement engine.  The default pure-Python backend keeps the
occupancy-indexed nested-list layout and a dict-of-dicts buffer and walks
the square-hashed candidates itself; the native backend stores rooms
bucket-major in NumPy arrays — the paper's
``m x m x l`` layout, allocated on the first write — keeps the buffer in
a compiled C kernel, and places every batch there (a scalar update is a
batch of one).  On the native backend a query by string node ID is one
kernel call: an edge query hashes both IDs and reads the room or buffer
entry, and a successor/precursor query scans the node's rows (columns)
and buffer chain and writes the answer's IDs.  The two backends are
observationally identical — every query answers the same — so the choice
is purely about speed and dependencies.  A successor/precursor scan
touches only the node's ``r`` rows (columns): the python backend visits
their occupied buckets, the kernel their ``r * m * l`` slots, as in
Section V of the paper.
"""

from __future__ import annotations

from operator import index
from time import perf_counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.backends import make_backend, stage_histogram
from repro.core.buffer import KernelBuffer, LeftoverBuffer
from repro.core.config import GSSConfig
from repro.core.reverse_index import NodeIndex
from repro.hashing.hash_functions import NodeHasher
from repro.hashing.linear_congruence import LinearCongruentialSequence
from repro.obs.trace import active as obs_active
from repro.queries.primitives import Capabilities, SummaryShims
from repro.streaming.batch import HashSpec, check_weights, triple_tokens, weight_column


class GSS(SummaryShims):
    """Graph Stream Sketch with square hashing, sampling and multiple rooms.

    Parameters are supplied through :class:`~repro.core.config.GSSConfig`;
    the most common construction is::

        sketch = GSS(GSSConfig.for_edge_count(expected_edges=100_000))
        for item in stream:
            sketch.update(item.source, item.destination, item.weight)
        weight = sketch.edge_query("a", "b")
        successors = sketch.successor_query("a")
    """

    def __init__(self, config: GSSConfig) -> None:
        self.config = config
        self._width = config.matrix_width
        self._hasher = NodeHasher(value_range=config.hash_range, seed=config.seed)
        self._lcg = LinearCongruentialSequence()
        self._update_count = 0
        # Matrix storage is delegated to the configured backend; see
        # repro.core.backends for the layout and the equivalence argument.
        # The native backend's left-over buffer lives in its kernel
        # (repro.core.buffer.KernelBuffer).
        self._matrix = make_backend(self)
        self._buffer = getattr(self._matrix, "make_buffer", LeftoverBuffer)()
        # The native backend's kernel node table is the index of its string
        # IDs (repro.core.reverse_index.KernelNodeIndex).
        self._node_index: Optional[NodeIndex] = None
        if config.keep_node_index:
            self._node_index = getattr(self._matrix, "make_node_index", NodeIndex)()
        # The native backend's entries by string ID, each one kernel call:
        # a batch (placed whole, or declined to _ingest_nodes), an edge
        # query, and — with the node index, which they resolve through — a
        # scalar update and the successor/precursor queries.
        self._ingest_text = getattr(self._matrix, "ingest_text", None)
        self._edge_query_text = getattr(self._matrix, "edge_query_text", None)
        self._update_text = None
        if self._node_index is not None:
            self._update_text = getattr(self._matrix, "update_text", None)
        self._neighbors_text = getattr(self._node_index, "neighbors", None)

    # -- hashing helpers -----------------------------------------------------

    def node_hash(self, node: Hashable) -> int:
        """``H(node)`` in ``[0, m * F)``."""
        return self._hasher(node)

    def _check_hashes(self, *columns: Sequence[int]) -> None:
        """Refuse hash columns holding a value that is not an integer
        (``TypeError``) or lies outside ``[0, M)`` (``ValueError``), before
        anything changes.

        A list takes one ``type`` pass (a type is an integer type when
        :func:`operator.index` takes it), a NumPy column a dtype check; then
        one min/max per column, and an unsigned NumPy column needs only its
        max.
        """
        hash_range = self.config.hash_range
        for column in columns:
            if not len(column):
                continue
            if hasattr(column, "dtype"):
                if column.dtype.kind not in "iu":
                    raise TypeError(f"node hashes must be integers, not {column.dtype}")
                low = 0 if column.dtype.kind == "u" else column.min()
                high = column.max()
            else:
                for kind in dict.fromkeys(map(type, column)):
                    if not hasattr(kind, "__index__"):
                        raise TypeError(f"node hashes must be integers, not {kind.__name__}")
                low, high = min(column), max(column)
            if low < 0 or high >= hash_range:
                outside = low if low < 0 else high
                raise ValueError(f"node hash {outside} is outside [0, {hash_range})")

    # -- backend plumbing ------------------------------------------------------

    @property
    def backend_name(self) -> str:
        """Name of the matrix backend actually in use (after auto/fallback)."""
        return self._matrix.name

    def _bucket_at(self, row: int, column: int) -> Optional[List[List]]:
        return self._matrix.bucket_at(row, column)

    def _register_room(self, row: int, column: int, room: List) -> None:
        """Store one room and keep every matrix index in sync.

        All room insertions — updates, merges, deserialization — must go
        through here so the backend's indexes stay exact.
        """
        self._matrix.register_room(row, column, room)

    def occupied_buckets(self):
        """Yield ``(row, column, bucket)`` for every non-empty bucket.

        Iteration is row-major (ascending row, then column), matching a full
        matrix scan, but only touches occupied positions.
        """
        return self._matrix.occupied_buckets()

    # -- updates ---------------------------------------------------------------

    def update(self, source: Hashable, destination: Hashable, weight: float = 1.0) -> None:
        """Apply one stream item: add ``weight`` to edge ``source -> destination``.

        Negative weights model deletions of earlier items, exactly as in the
        streaming-graph semantics of Definition 1.  A weight that is not a
        real number is refused (``ValueError``) before anything changes, as
        by every batched path, and so is an ID the node index cannot hold
        (``TypeError``) or the hasher cannot encode.  Both nodes resolve
        through the reverse node index as :meth:`update_many`'s do (a
        native sketch resolves string IDs in its kernel's node table), so a
        node keeps the hash it was recorded under.  The backend places the
        edge as a batch of one: the native backend runs it through its
        kernel (a pair of string IDs in the same call that resolves them),
        the python backend walks the edge's candidate buckets.
        """
        check_weights((weight,))
        if (
            self._update_text is not None
            and type(source) is str
            and type(destination) is str
            and self._update_text(source, destination, weight)
        ):
            self._update_count += 1
            return
        hash((source, destination))
        if self._node_index is not None:
            distinct = list(dict.fromkeys((source, destination)))
            hashes = self._node_index.resolve(distinct, self._hasher)
            source_hash, destination_hash = hashes[0], hashes[-1]
        else:
            source_hash = self._hasher(source)
            destination_hash = self._hasher(destination)
        self._matrix.insert_edge(source_hash, destination_hash, weight)
        self._update_count += 1

    def update_by_hash(
        self, source_hash: int, destination_hash: int, weight: float = 1.0
    ) -> None:
        """Apply one sketch-level update addressed by node hashes directly.

        Used when merging sketches or replaying edges recovered with
        :meth:`reconstruct_sketch_edges`, where the original node IDs may no
        longer be available.  The reverse node index is left untouched.  A
        weight that is not a real number, a hash that is not an integer
        (``TypeError``) and a hash outside ``[0, M)`` (``ValueError``) are
        refused before anything changes, as by :meth:`update`.
        """
        check_weights((weight,))
        source_hash, destination_hash = index(source_hash), index(destination_hash)
        self._check_hashes((source_hash, destination_hash))
        self._matrix.insert_edge(source_hash, destination_hash, weight)
        self._update_count += 1

    def update_many(self, items: Iterable[Tuple[Hashable, Hashable, float]]) -> int:
        """Apply a batch of ``(source, destination, weight)`` stream items.

        Equivalent to calling :meth:`update` once per item but measurably
        faster.  The batch is cut once by
        :func:`~repro.streaming.batch.triple_tokens`, which refuses it whole
        (``ValueError``, on either backend; the python backend used to
        raise ``TypeError`` for a bad weight or an item that is not a
        triple) unless every item is an exact triple with a real weight.
        The native backend's kernel takes a batch of string IDs whole,
        hashing included; every other batch, on either backend, is
        resolved here (:meth:`_ingest_nodes`) and its hash columns placed
        by the backend.  Items targeting the same sketch edge are
        pre-aggregated into a single insertion; that is exact because a
        room, once placed, never moves — the first occurrence of an edge
        determines its placement and later occurrences only add weight.

        Returns the number of stream items applied.
        """
        registry = obs_active()
        started = perf_counter() if registry is not None else 0.0
        tokens, weights = triple_tokens(items if isinstance(items, list) else list(items))
        if registry is not None:
            # The cut is the first step of hashing on every route.
            stage_histogram(registry, "hashing").observe(perf_counter() - started)
        if not weights:
            return 0
        if self._ingest_text is not None:
            count = self._ingest_text(tokens, weights)
            if count is not None:
                self._update_count += count
                return count
        return self._ingest_nodes(tokens, weights)

    def _ingest_nodes(self, tokens: List[Hashable], weights: List) -> int:
        """Resolve a cut batch's node IDs to hash columns and place them
        through :meth:`_place`.

        Each distinct node resolves through the reverse node index
        (``resolve``), so only the nodes it lacks are hashed — once per
        batch, and never again while the index holds them (a sketch without
        one hashes each batch's nodes afresh) — and those are recorded in
        first-seen interleaved order.  On a native sketch the string IDs
        resolve in the kernel's node table in one call.  An ID that is
        unhashable (``TypeError``) or that the hasher cannot encode
        (``ValueError``) refuses the batch before anything changes.
        ``weights`` were checked by the cut.
        """
        registry = obs_active()
        started = perf_counter() if registry is not None else 0.0
        distinct = list(dict.fromkeys(tokens))
        if self._node_index is not None:
            resolved = self._node_index.resolve(distinct, self._hasher)
        else:
            resolved = list(map(self._hasher, distinct))
        column = list(map(dict(zip(distinct, resolved)).__getitem__, tokens))
        if registry is not None:
            stage_histogram(registry, "hashing").observe(perf_counter() - started)
        return self._place(column[0::2], column[1::2], weights)

    def update_many_by_hash(self, edges: Iterable[Tuple[int, int, float]]) -> int:
        """Batch variant of :meth:`update_by_hash` for merge/replay paths.

        Accepts ``(H(s), H(d), weight)`` triples (the shape produced by
        :meth:`reconstruct_sketch_edges`), refuses the batch whole under
        :func:`~repro.streaming.batch.triple_tokens`'s item rule or for a
        hash outside ``[0, M)`` (``ValueError``), places it like
        :meth:`ingest_columns` and leaves the reverse node index untouched.
        Returns the item count.
        """
        hashes, weights = triple_tokens(edges if isinstance(edges, list) else list(edges))
        source_hashes, destination_hashes = hashes[0::2], hashes[1::2]
        self._check_hashes(source_hashes, destination_hashes)
        return self._place(source_hashes, destination_hashes, weights)

    def hash_spec(self) -> HashSpec:
        """The hash function family this sketch places edges under.

        A sharded deployment's shards report it in their build handshake,
        and its front ends hash every batch under it, so the shard messages
        feed :meth:`ingest_columns` with no further hashing.
        """
        return HashSpec(seed=self.config.seed, hash_range=self.config.hash_range)

    #: Alias of :meth:`update_many`, kept because traced in-process bench
    #: runs still look the name up; it goes when they time ``update_many``.
    update_many_hashed = update_many

    def ingest_columns(
        self,
        source_hashes: Sequence[int],
        destination_hashes: Sequence[int],
        weights: Sequence[float],
        nodes: Sequence[Hashable] = (),
        node_hashes: Sequence[int] = (),
    ) -> int:
        """Ingest aligned ``H(s)`` / ``H(d)`` / weight columns, in stream
        order and under :meth:`hash_spec`, recording ``nodes`` under
        ``node_hashes`` in the reverse node index first (a native sketch
        records its string IDs in the kernel's node table).

        The sharded deployment's shard ingest: each shard message carries
        only the nodes the shard may not know yet, and nodes already
        recorded are skipped.  A weight that is not a real number or a hash
        (node hashes included) outside ``[0, M)`` raises ``ValueError``, and
        a hash that is not an integer ``TypeError``, before any node is
        recorded.  A node
        recorded under another hash raises ``ValueError`` once the
        message's other nodes are recorded, and the columns are then not
        placed.  Columns may be
        lists or NumPy arrays; no hashing happens here.  Returns the number
        of stream items applied.
        """
        if isinstance(weights, list):  # arrays are float64 already
            weights = weight_column(weights, vectorized=False)
        self._check_hashes(source_hashes, destination_hashes, node_hashes)
        return self._place(source_hashes, destination_hashes, weights, nodes, node_hashes)

    def _place(
        self,
        source_hashes: Sequence[int],
        destination_hashes: Sequence[int],
        weights: Sequence[float],
        nodes: Sequence[Hashable] = (),
        node_hashes: Sequence[int] = (),
    ) -> int:
        """:meth:`ingest_columns` for weights already checked (a batch this
        sketch cut itself): record ``nodes``, then let the backend place
        the columns."""
        if self._node_index is not None and len(nodes):
            if hasattr(node_hashes, "tolist"):
                node_hashes = node_hashes.tolist()  # NumPy: Python ints
            self._node_index.record_new_many(zip(nodes, node_hashes))
        count = self._matrix.ingest_columns(source_hashes, destination_hashes, weights)
        self._update_count += count
        return count

    # -- query primitives -------------------------------------------------------

    def edge_query(self, source: Hashable, destination: Hashable) -> Optional[float]:
        """Return the aggregated weight of ``source -> destination`` or ``None``.

        Only over-estimation errors are possible (when the additions cumulate
        weights): if the true edge exists its weight is always reported.

        ``None`` (rather than the paper's ``-1.0``) reports an absent edge, so
        the answer is unambiguous for streams with deletions: a stored edge
        whose weights sum to ``-1.0`` is reported as ``-1.0`` while a missing
        edge is reported as ``None``.  On the native backend a pair of
        string IDs is one kernel call.
        """
        if self._edge_query_text is not None and type(source) is str and type(destination) is str:
            return self._edge_query_text(source, destination)
        source_hash = self._hasher(source)
        destination_hash = self._hasher(destination)
        return self.edge_query_by_hash(source_hash, destination_hash)

    def edge_query_by_hash(
        self, source_hash: int, destination_hash: int
    ) -> Optional[float]:
        """Edge query by sketch hashes; ``None`` when the edge is absent."""
        return self._matrix.edge_weight(source_hash, destination_hash)

    def successor_hashes(self, node: Hashable) -> Set[int]:
        """Sketch hashes of the 1-hop successors of ``node``."""
        node_hash = self._hasher(node)
        return self._neighbor_hashes(node_hash, forward=True)

    def precursor_hashes(self, node: Hashable) -> Set[int]:
        """Sketch hashes of the 1-hop precursors of ``node``."""
        node_hash = self._hasher(node)
        return self._neighbor_hashes(node_hash, forward=False)

    def _neighbor_hashes(self, node_hash: int, forward: bool) -> Set[int]:
        """Scan ``r`` rows (or columns) for edges touching ``node_hash``.

        ``forward=True`` looks for out-going edges (successors): the node's
        fingerprint must match the *source* fingerprint of a room and the
        room's source index must equal the row's position in the node's
        address sequence.  The destination hash is then recovered from the
        column, the destination fingerprint and the destination index
        (Theorem 1 reversibility).  ``forward=False`` is the symmetric column
        scan for precursors.

        The scan is the backend's business, the left-over buffer included:
        the python backend visits the occupied buckets and then consults
        the buffer; the native backend's kernel scans the ``r * m * l``
        bucket-major slots and walks the node's buffer chain in one call,
        the call a native :meth:`successor_query` / :meth:`precursor_query`
        by string ID also makes, writing the IDs behind the hashes.
        """
        return self._matrix.neighbor_hashes(node_hash, forward)

    def successor_query(self, node: Hashable) -> Set[Hashable]:
        """Original node IDs that are 1-hop reachable from ``node``.

        Requires the reverse node index (``keep_node_index=True``).  The
        result can only contain false positives, never miss a true successor.
        On the native backend a string ID is one kernel call (see
        :meth:`~repro.core.reverse_index.KernelNodeIndex.neighbors`).
        """
        if self._neighbors_text is not None and type(node) is str:
            found = self._neighbors_text(node, True)
            if found is not None:
                return found
        return self._expand(self.successor_hashes(node))

    def precursor_query(self, node: Hashable) -> Set[Hashable]:
        """Original node IDs that reach ``node`` in one hop."""
        if self._neighbors_text is not None and type(node) is str:
            found = self._neighbors_text(node, False)
            if found is not None:
                return found
        return self._expand(self.precursor_hashes(node))

    def _expand(self, hashes: Set[int]) -> Set[Hashable]:
        if self._node_index is None:
            raise RuntimeError(
                "successor/precursor queries over original IDs require "
                "keep_node_index=True; use successor_hashes/precursor_hashes instead"
            )
        return self._node_index.expand(hashes)

    # -- compound helpers -------------------------------------------------------

    def node_out_weight(self, node: Hashable) -> float:
        """Node query: total weight of out-going edges of ``node``.

        Computed by summing the edge-query estimate over the recovered
        successor hashes, which mirrors how the paper composes node queries
        from the primitives.
        """
        node_hash = self._hasher(node)
        total = 0.0
        for successor_hash in sorted(self._neighbor_hashes(node_hash, forward=True)):
            weight = self.edge_query_by_hash(node_hash, successor_hash)
            if weight is not None:
                total += weight
        return total

    def node_in_weight(self, node: Hashable) -> float:
        """Total weight of in-coming edges of ``node``."""
        node_hash = self._hasher(node)
        total = 0.0
        for precursor_hash in sorted(self._neighbor_hashes(node_hash, forward=False)):
            weight = self.edge_query_by_hash(precursor_hash, node_hash)
            if weight is not None:
                total += weight
        return total

    def reconstruct_sketch_edges(self) -> List[Tuple[int, int, float]]:
        """Recover every edge of the graph sketch ``Gh`` stored in the matrix
        and buffer as ``(H(s), H(d), weight)`` triples.

        This demonstrates the paper's claim that the whole graph can be
        re-constructed from the data structure.  The scan yields edges in
        row-major bucket order, rooms in insertion order (the sequence a
        full matrix scan would produce), visiting only occupied buckets.
        """
        edges = self._matrix.reconstruct()
        edges.extend(self._buffer.edges())
        return edges

    # -- introspection ------------------------------------------------------------

    @property
    def node_index(self) -> Optional[NodeIndex]:
        """The reverse node table, or ``None`` when disabled: a
        :class:`~repro.core.reverse_index.NodeIndex`, or on the native
        backend a :class:`~repro.core.reverse_index.KernelNodeIndex` with
        the same interface, whose string IDs come back as plain ``str``
        decoded from the kernel's node table."""
        return self._node_index

    @property
    def buffer(self) -> Union[LeftoverBuffer, KernelBuffer]:
        """The left-over edge buffer: a
        :class:`~repro.core.buffer.LeftoverBuffer`, or on the native backend
        a :class:`~repro.core.buffer.KernelBuffer` with the same interface
        over the kernel's buffer."""
        return self._buffer

    @property
    def matrix_edge_count(self) -> int:
        """Distinct sketch edges stored in matrix rooms."""
        return self._matrix.matrix_edge_count

    @property
    def buffer_edge_count(self) -> int:
        """Distinct sketch edges stored in the left-over buffer."""
        return len(self._buffer)

    @property
    def update_count(self) -> int:
        """Number of stream items applied so far."""
        return self._update_count

    @property
    def buffer_percentage(self) -> float:
        """Fraction of stored sketch edges that had to go to the buffer."""
        total = self._matrix.matrix_edge_count + len(self._buffer)
        if total == 0:
            return 0.0
        return len(self._buffer) / total

    def occupancy(self) -> float:
        """Fraction of matrix rooms currently occupied."""
        capacity = self._width * self._width * self.config.rooms
        return self._matrix.matrix_edge_count / capacity if capacity else 0.0

    def memory_bytes(self, include_node_index: bool = False) -> int:
        """Memory footprint under the paper's C layout (see GSSConfig)."""
        total = self.config.matrix_memory_bytes() + self._buffer.memory_bytes()
        if include_node_index and self._node_index is not None:
            total += self._node_index.memory_bytes()
        return total

    def ingest(self, edges: Sequence) -> "GSS":
        """Feed an iterable of :class:`~repro.streaming.edge.StreamEdge`."""
        self.update_many((edge.source, edge.destination, edge.weight) for edge in edges)
        return self

    # -- protocol surface --------------------------------------------------------

    @classmethod
    def capabilities(cls) -> Capabilities:
        """Feature descriptor of the full GSS (see :class:`Capabilities`)."""
        return Capabilities(
            serializable=True,
            mergeable=True,
            by_hash=True,
        )

    def to_dict(self, include_node_index: bool = True) -> Dict:
        """Serialize into the snapshot document of :mod:`repro.core.serialization`."""
        from repro.core.serialization import sketch_to_dict

        return sketch_to_dict(self, include_node_index=include_node_index)

    @classmethod
    def from_dict(cls, document: Dict, backend: Optional[str] = None) -> "GSS":
        """Rebuild a sketch from a :meth:`to_dict` document.

        ``backend`` optionally re-targets the restored sketch onto a different
        matrix backend (see :func:`repro.core.serialization.sketch_from_dict`).
        """
        from repro.core.serialization import sketch_from_dict

        return sketch_from_dict(document, backend=backend)
