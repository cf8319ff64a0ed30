"""Pluggable matrix-storage backends for the Graph Stream Sketch.

:class:`~repro.core.gss.GSS` owns the hashing, the left-over buffer, the
reverse node index (on the native backend, both over the kernel's state)
and the query API; *where the matrix rooms live* is the backend's
business, and each backend has one placement engine.  The GSS resolves a
batch's node IDs to ``H(s)`` / ``H(d)`` columns, and a backend places hash
columns: ``ingest_columns`` is the one batch entry point of both backends,
``insert_edge`` places one edge and ``edge_weight`` reads one.  The native
backend adds entry points by string ID, each one kernel call:
``ingest_text`` takes a batch whole — hashing included — or declines it to
the GSS's resolver, ``update_text`` places one item, and
``edge_query_text`` answers an edge query.  Two observationally identical
implementations are provided:

* :class:`PythonMatrixBackend` — the original occupancy-indexed layout:
  nested room lists per bucket, per-row/per-column occupancy sets and an
  O(1) room map, placed by walking each edge's square-hashed candidate
  buckets in Python, beside a :class:`~repro.core.buffer.LeftoverBuffer`.
  Zero dependencies; the default, and the reference the differential
  tests compare against.
* :class:`NativeMatrixBackend` — the paper's ``m x m x l`` matrix stored
  bucket-major: one NumPy array per room field (fingerprint pairs, index
  pairs, weights) with room ``q`` of bucket ``(row, col)`` at slot
  ``(row * m + col) * l + q``, plus a bucket-fill table and an edge-to-slot
  map.  The ``m² · l`` slots are allocated on the first write.  The whole
  per-batch aggregate/classify/place/spill pipeline (including the
  inherently sequential first-seen contention loop), the left-over buffer
  and the neighbour scans live in a C kernel (:mod:`repro.core._native`).
  A batch crosses the Python/kernel boundary once, a scalar insert is a
  batch of one, and a query by node ID is one call.  A neighbour scan
  reads the node's ``r`` rows (or columns): ``O(r * m * l)`` slots, as in
  Section V of the paper.

Equivalence is not accidental — it is load-bearing.  Both backends place
every sketch edge in exactly the same room (or buffer entry), because:

* an edge's candidate probe order is a pure function of its fingerprints;
* buckets only ever fill up, never empty, so "the first candidate bucket
  with a free room" is stable over time;
* a room's key ``(row, column, f_s, f_d, i_s, i_d)`` can only be produced
  by one sketch edge (the addresses and fingerprints together determine
  ``H(s)`` and ``H(d)``, Theorem 1), so an edge that has been placed — or
  has overflowed to the buffer — keeps that fate forever.

The last point is what lets the native backend replace the room map with
a per-*edge* slot map and skip per-candidate room lookups entirely for edges
it has already seen.  ``tests/test_numpy_backend.py`` and
``tests/test_native_backend.py`` drive both backends through random streams
(deletions, buffer overflow, serialization, merges) and assert the results
match item-for-item.
"""

from __future__ import annotations

import ctypes
import warnings
import weakref
from array import array
from bisect import insort
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.buffer import KernelBuffer
from repro.core.reverse_index import KernelNodeIndex
from repro.hashing.hash_functions import _FNV_OFFSET, _count_hashes, _splitmix64
from repro.hashing.linear_congruence import (
    address_sequence,
    candidate_sequence,
    recover_address,
    unique_candidates,
)
from repro.hashing.vectorized import (
    NUMPY_AVAILABLE,
    lcg_values_at,
    load_numpy,
)
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.trace import active as obs_active
from repro.streaming.batch import packed_weights, text_blob

#: Lazily bound NumPy module (populated by the first NativeMatrixBackend), so
#: pure-Python sketches never pay the NumPy import cost.
np = None

# A room is a mutable 5-slot list: [f_s, f_d, i_s, i_d, weight].
ROOM_SOURCE_FP = 0
ROOM_DEST_FP = 1
ROOM_SOURCE_INDEX = 2
ROOM_DEST_INDEX = 3
ROOM_WEIGHT = 4

#: Cap on each of the python backend's memos (address sequences per node
#: hash, candidate pairs per fingerprint pair).  Past it, values are
#: recomputed instead of cached, so a long-running process cannot grow
#: without bound.
_CACHE_LIMIT = 1 << 16

#: Batched-ingest stage timings, one histogram series per ``stage`` label:
#: ``hashing`` (node IDs to hashes and node-index recording) and
#: ``placement`` (aggregation, the bucket walk and the buffer spills, which
#: both backends make inside their placement loop).  Recorded only
#: while :func:`repro.obs.trace.active` returns a registry, so the disabled
#: cost is one ``is None`` check per batch.
STAGE_FAMILY = "repro_ingest_stage_seconds"
_STAGE_HELP = "Batched-ingest stage durations (label: stage name)."


def stage_histogram(registry: MetricsRegistry, stage: str) -> Histogram:
    """The ``stage`` series of :data:`STAGE_FAMILY` in ``registry``."""
    return registry.histogram(STAGE_FAMILY, _STAGE_HELP, stage=stage)


def _native_usable() -> bool:
    """Whether the compiled placement kernel can run here (lazy probe)."""
    if not NUMPY_AVAILABLE:
        return False
    from repro.core._native import native_available

    return native_available()


def resolve_backend_name(requested: str) -> str:
    """Resolve a configured GSS backend name to the one actually used.

    ``auto`` takes the compiled kernel when the machine can run it (NumPy
    and a C compiler) and the pure-Python backend otherwise.  ``numpy`` is
    the legacy name of the columnar backend — old snapshots record it — so
    it resolves exactly like ``native``.  An explicit ``native``/``numpy``
    request on a machine without the kernel falls back to ``python`` with a
    warning, so a sketch — or a snapshot produced on a better-equipped
    machine — keeps working everywhere.
    """
    if requested == "python":
        return "python"
    if _native_usable():
        return "native"
    if requested != "auto":
        warnings.warn(
            f"GSSConfig.backend={requested!r} but the compiled placement "
            "kernel is unavailable here (it needs NumPy and a C compiler); "
            "falling back to the python matrix backend",
            RuntimeWarning,
            stacklevel=3,
        )
    return "python"


def resolve_counter_backend_name(requested: str) -> str:
    """Resolve a backend name for plain counter-array structures (baselines).

    The compiled kernel is GSS-placement-specific; counter sketches (TCM,
    GMatrix, CM) have only python/numpy storage, so ``native`` — explicit or
    via ``auto`` — means ``numpy`` to them (their fastest available).  An
    explicit ``numpy``/``native`` request without NumPy falls back to
    ``python`` with a warning.
    """
    if requested == "python":
        return "python"
    if NUMPY_AVAILABLE:
        return "numpy"
    if requested != "auto":
        warnings.warn(
            f"backend={requested!r} but NumPy is not installed; "
            "falling back to the pure-Python counters",
            RuntimeWarning,
            stacklevel=3,
        )
    return "python"


def make_backend(sketch) -> "PythonMatrixBackend":
    """Instantiate the matrix backend selected by ``sketch.config.backend``."""
    config = sketch.config
    if resolve_backend_name(config.backend) == "native":
        # The kernel packs H(s) * M + H(d) into uint64 and counts bucket fill
        # in uint8; configs outside that envelope run the python backend
        # (same answers, python-speed ingest).
        if config.hash_range <= (1 << 32) and config.rooms < 255:
            return NativeMatrixBackend(sketch)
        if config.backend != "auto":
            warnings.warn(
                f"GSSConfig.backend={config.backend!r} but this config is "
                "outside the compiled kernel's envelope (needs hash_range <= "
                "2^32 and rooms < 255); using the python matrix backend",
                RuntimeWarning,
                stacklevel=3,
            )
    return PythonMatrixBackend(sketch)


def _as_list(column) -> list:
    """A column as a list (NumPy arrays give Python ints/floats)."""
    return column if isinstance(column, list) else column.tolist()


class PythonMatrixBackend:
    """Occupancy-indexed nested-list matrix storage (the zero-dependency default).

    Per-row and per-column occupancy sets record which buckets hold at least
    one room, and a room map keyed by ``(row, column, fingerprints, indices)``
    gives O(1) room lookups, so scans cost O(stored edges) rather than
    O(r * m) matrix slots.  Edges whose candidates are all full go to the
    sketch's :class:`~repro.core.buffer.LeftoverBuffer`.
    """

    name = "python"

    def __init__(self, sketch) -> None:
        self._sketch = sketch
        self._width = sketch.config.matrix_width
        # One slot per bucket; a bucket is lazily created as a list of rooms.
        self._buckets: List[Optional[List[List]]] = [None] * (self._width * self._width)
        self.matrix_edge_count = 0
        # Occupancy indexes: which columns of each row (and rows of each
        # column) hold at least one room, kept as ascending sorted lists so
        # scans need no per-query sort.  Buckets never empty out, so the
        # indexes only grow and stay exact without any eviction logic.
        self._row_occupancy: Dict[int, List[int]] = {}
        self._col_occupancy: Dict[int, List[int]] = {}
        # Fingerprint-bucketed room map: (row, column, f_s, f_d, i_s, i_d) ->
        # the room list itself, for O(1) aggregation and edge queries.
        self._room_map: Dict[Tuple[int, int, int, int, int, int], List] = {}
        # Square hashing: the memoized address sequence of each node hash and
        # the candidate (row-index, column-index) pairs of each fingerprint
        # pair, both capped at _CACHE_LIMIT.
        self._fingerprint_range = sketch.config.fingerprint_range
        self._lcg = sketch._lcg
        self._address_cache: Dict[int, List[int]] = {}
        self._candidate_cache: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

    # -- square hashing ----------------------------------------------------

    def _split(self, node_hash: int) -> Tuple[int, int]:
        """Split ``H(v)`` into ``(h(v), f(v))``."""
        return node_hash // self._fingerprint_range, node_hash % self._fingerprint_range

    def _addresses(self, node_hash: int) -> List[int]:
        """The square-hashing address sequence ``{h_i(v)}`` of a node hash."""
        cached = self._address_cache.get(node_hash)
        if cached is not None:
            return cached
        base_address, fingerprint = self._split(node_hash)
        config = self._sketch.config
        if config.square_hashing:
            addresses = address_sequence(
                base_address, fingerprint, config.sequence_length, self._width, self._lcg
            )
        else:
            addresses = [base_address % self._width]
        if len(self._address_cache) < _CACHE_LIMIT:
            self._address_cache[node_hash] = addresses
        return addresses

    def _candidate_pairs(
        self, source_fingerprint: int, destination_fingerprint: int
    ) -> List[Tuple[int, int]]:
        """Which (row-index, column-index) pairs to probe for an edge.

        Returns 0-based indices into the two address sequences, in probe
        order.  Without square hashing there is a single pair; without
        sampling all ``r * r`` pairs are probed row-first.  Results are cached
        per fingerprint pair — the sequence depends only on the fingerprints,
        and real streams revisit the same node pairs constantly.
        """
        key = (source_fingerprint, destination_fingerprint)
        cached = self._candidate_cache.get(key)
        if cached is not None:
            return cached
        config = self._sketch.config
        if not config.square_hashing:
            pairs = [(0, 0)]
        elif not config.sampling:
            r = config.sequence_length
            pairs = [(i, j) for i in range(r) for j in range(r)]
        else:
            pairs = unique_candidates(
                candidate_sequence(
                    source_fingerprint,
                    destination_fingerprint,
                    config.candidate_buckets,
                    config.sequence_length,
                    self._lcg,
                )
            )
        if len(self._candidate_cache) < _CACHE_LIMIT:
            self._candidate_cache[key] = pairs
        return pairs

    # -- room bookkeeping --------------------------------------------------

    def bucket_at(self, row: int, column: int) -> Optional[List[List]]:
        return self._buckets[row * self._width + column]

    def _ensure_bucket(self, row: int, column: int) -> List[List]:
        position = row * self._width + column
        bucket = self._buckets[position]
        if bucket is None:
            bucket = []
            self._buckets[position] = bucket
        return bucket

    def register_room(self, row: int, column: int, room: List) -> None:
        """Store one room and keep every matrix index in sync.

        All room insertions — updates, merges, deserialization — must go
        through here so the occupancy sets and the room map stay exact.
        """
        bucket = self._ensure_bucket(row, column)
        bucket.append(room)
        self._room_map[
            (
                row,
                column,
                room[ROOM_SOURCE_FP],
                room[ROOM_DEST_FP],
                room[ROOM_SOURCE_INDEX],
                room[ROOM_DEST_INDEX],
            )
        ] = room
        if len(bucket) == 1:
            # First room in this bucket: the bucket just became occupied.
            insort(self._row_occupancy.setdefault(row, []), column)
            insort(self._col_occupancy.setdefault(column, []), row)
        self.matrix_edge_count += 1

    def occupied_buckets(self) -> Iterator[Tuple[int, int, List[List]]]:
        """Yield ``(row, column, bucket)`` for every non-empty bucket.

        Iteration is row-major (ascending row, then column), matching a full
        matrix scan, but only touches occupied positions.
        """
        for row in sorted(self._row_occupancy):
            for column in self._row_occupancy[row]:
                bucket = self.bucket_at(row, column)
                if bucket:
                    yield row, column, bucket

    # -- updates -----------------------------------------------------------

    def insert_edge(self, source_hash: int, destination_hash: int, weight: float) -> None:
        """Insert (or aggregate) one edge of the graph sketch ``Gh``."""
        _, source_fp = self._split(source_hash)
        _, destination_fp = self._split(destination_hash)
        source_addresses = self._addresses(source_hash)
        destination_addresses = self._addresses(destination_hash)
        rooms_per_bucket = self._sketch.config.rooms
        room_map = self._room_map

        for source_index, destination_index in self._candidate_pairs(
            source_fp, destination_fp
        ):
            row = source_addresses[source_index]
            column = destination_addresses[destination_index]
            stored_source_index = source_index + 1
            stored_destination_index = destination_index + 1
            room = room_map.get(
                (row, column, source_fp, destination_fp, stored_source_index, stored_destination_index)
            )
            if room is not None:
                room[ROOM_WEIGHT] += weight
                return
            bucket = self.bucket_at(row, column)
            if bucket is None or len(bucket) < rooms_per_bucket:
                self.register_room(
                    row,
                    column,
                    [
                        source_fp,
                        destination_fp,
                        stored_source_index,
                        stored_destination_index,
                        0.0 + weight,
                    ],
                )
                return
        self._sketch._buffer.add(source_hash, destination_hash, weight)

    def ingest_columns(self, source_hashes, destination_hashes, weights) -> int:
        """Ingest aligned ``H(s)`` / ``H(d)`` / weight columns.

        The one batch entry point: no hashing happens here.  The columns
        (lists, or arrays of any sequence type with ``tolist``) are
        aggregated per sketch edge, in first-seen order, and each edge is
        inserted once.  The node index is the sketch's business.
        """
        registry = obs_active()
        started = perf_counter() if registry is not None else 0.0
        source_hashes = _as_list(source_hashes)
        aggregated: Dict[Tuple[int, int], float] = {}
        so_far = aggregated.get
        for key, weight in zip(
            zip(source_hashes, _as_list(destination_hashes)), _as_list(weights)
        ):
            aggregated[key] = so_far(key, 0.0) + weight
        for (source_hash, destination_hash), weight in aggregated.items():
            self.insert_edge(source_hash, destination_hash, weight)
        if registry is not None:
            stage_histogram(registry, "placement").observe(perf_counter() - started)
        return len(source_hashes)

    # -- queries -----------------------------------------------------------

    def edge_weight(self, source_hash: int, destination_hash: int) -> Optional[float]:
        """Weight of the edge's room or buffer entry, or ``None`` when the
        sketch holds no such edge."""
        _, source_fp = self._split(source_hash)
        _, destination_fp = self._split(destination_hash)
        source_addresses = self._addresses(source_hash)
        destination_addresses = self._addresses(destination_hash)
        room_map = self._room_map

        for source_index, destination_index in self._candidate_pairs(
            source_fp, destination_fp
        ):
            room = room_map.get(
                (
                    source_addresses[source_index],
                    destination_addresses[destination_index],
                    source_fp,
                    destination_fp,
                    source_index + 1,
                    destination_index + 1,
                )
            )
            if room is not None:
                return room[ROOM_WEIGHT]
        return self._sketch._buffer.get(source_hash, destination_hash)

    def neighbor_hashes(self, node_hash: int, forward: bool) -> Set[int]:
        """Scan ``r`` rows (or columns) for edges touching ``node_hash``,
        then its left-over buffer entries.

        Uses the occupancy indexes: only buckets that actually hold rooms are
        visited, so the cost is proportional to the occupancy of the node's
        ``r`` rows/columns instead of ``r * m`` matrix slots.
        """
        square_hashing = self._sketch.config.square_hashing
        _, fingerprint = self._split(node_hash)
        addresses = self._addresses(node_hash)
        found: Set[int] = set()
        width = self._width
        occupancy = self._row_occupancy if forward else self._col_occupancy

        own_fp_slot = ROOM_SOURCE_FP if forward else ROOM_DEST_FP
        own_index_slot = ROOM_SOURCE_INDEX if forward else ROOM_DEST_INDEX
        other_fp_slot = ROOM_DEST_FP if forward else ROOM_SOURCE_FP
        other_index_slot = ROOM_DEST_INDEX if forward else ROOM_SOURCE_INDEX

        for position, address in enumerate(addresses):
            expected_index = position + 1
            occupied = occupancy.get(address)
            if not occupied:
                continue
            for offset in occupied:
                if forward:
                    bucket = self.bucket_at(address, offset)
                else:
                    bucket = self.bucket_at(offset, address)
                if bucket is None:
                    continue
                for room in bucket:
                    if room[own_fp_slot] != fingerprint:
                        continue
                    if room[own_index_slot] != expected_index:
                        continue
                    other_fp = room[other_fp_slot]
                    other_index = room[other_index_slot]
                    if square_hashing:
                        other_base = recover_address(
                            offset, other_fp, other_index, width, self._lcg
                        )
                    else:
                        other_base = offset
                    found.add(other_base * self._fingerprint_range + other_fp)
        buffer = self._sketch._buffer
        found.update(
            buffer.successors_of(node_hash) if forward else buffer.precursors_of(node_hash)
        )
        return found

    def reconstruct(self) -> List[Tuple[int, int, float]]:
        """Recover every matrix edge as ``(H(s), H(d), weight)`` triples.

        The scan walks the occupancy indexes in row-major order, so it costs
        O(stored edges) and yields the same sequence a full matrix scan would.
        """
        square_hashing = self._sketch.config.square_hashing
        edges: List[Tuple[int, int, float]] = []
        width = self._width
        fingerprint_range = self._fingerprint_range
        for row, column, bucket in self.occupied_buckets():
            for room in bucket:
                source_fp = room[ROOM_SOURCE_FP]
                destination_fp = room[ROOM_DEST_FP]
                if square_hashing:
                    source_base = recover_address(
                        row, source_fp, room[ROOM_SOURCE_INDEX], width, self._lcg
                    )
                    destination_base = recover_address(
                        column, destination_fp, room[ROOM_DEST_INDEX], width, self._lcg
                    )
                else:
                    source_base = row
                    destination_base = column
                edges.append(
                    (
                        source_base * fingerprint_range + source_fp,
                        destination_base * fingerprint_range + destination_fp,
                        room[ROOM_WEIGHT],
                    )
                )
        return edges


class NativeMatrixBackend:
    """Bucket-major matrix storage whose placement, buffer and queries run in
    a C kernel.

    Rooms live in the paper's own ``m x m x l`` layout, one NumPy array per
    room field (the fingerprint pair, the index pair and the weight): room
    ``q`` of bucket ``(row, col)`` sits at slot ``(row * m + col) * l + q``.
    The arrays hold all ``m² · l`` slots that
    ``GSSConfig.matrix_memory_bytes()`` counts (40 bytes a slot here, not
    the paper's packed room) and are allocated on the first write,
    uninitialised, because a slot is only read once the fill table marks it
    live.  ``_bucket_fill`` counts the live rooms per bucket (uint8): a
    bucket's rooms fill its slots in insertion order and never move, so
    slots ``[0, fill)`` of a bucket are live.  ``gss_configure`` hands the
    kernel the configuration, and once the rooms exist the arrays'
    addresses.

    The kernel context holds the rest of the sketch's state:

    * the edge->slot table — packed sketch-edge key ``H(s) * M + H(d)`` ->
      the slot of its room, or its left-over buffer entry.  Because an
      edge's placement is permanent (see the module docstring), this
      replaces the per-room map of the Python backend and short-circuits
      every repeat update;
    * the left-over buffer (:meth:`make_buffer`,
      :class:`~repro.core.buffer.KernelBuffer`), which every kernel batch
      spills into and every query reads in the same call;
    * the node table, which is the reverse node index of the sketch's
      string IDs (:meth:`make_node_index`,
      :class:`~repro.core.reverse_index.KernelNodeIndex`): the text paths
      resolve every token through it, and restores, merges, shard messages
      and the GSS's resolver record there, so each string node is stored
      once, as UTF-8 bytes in the kernel's arena.

    Batched ingestion — aggregation, edge classification, the
    first-seen-order bucket-probe/contention loop and the buffer spills —
    runs inside one kernel call: ``gss_ingest_text_batch`` for a batch of
    string IDs (:meth:`ingest_text`, hashing included),
    ``gss_ingest_batch`` for hash columns (:meth:`ingest_columns`), so a
    batch crosses the Python/kernel boundary exactly once.  A scalar insert
    by hashes (:meth:`insert_edge`) is a one-row ``gss_ingest_batch`` call,
    and one by string IDs (:meth:`update_text`) one ``gss_update_text``
    call that resolves the pair too.  An edge query by string IDs
    (:meth:`edge_query_text`) is one ``gss_edge_query`` call, and a
    successor/precursor query one ``gss_neighbor_query`` call (see
    :meth:`KernelNodeIndex.neighbors`) that scans the node's ``r`` rows
    (columns) — ``O(r * m * l)`` slots, whatever the number of stored
    edges — walks its buffer chain and writes the IDs behind the answer.
    The scans write into one reusable output buffer, so — as with
    ingestion — one sketch must not be used from two threads at once.  Only
    restores (:meth:`register_room`) write the room arrays directly.

    Construction compiles/binds the kernel, so building a store *is* the
    warm-up; every benchmark harness in this repo constructs stores outside
    timed regions.  ``make_backend`` guards the kernel's envelope: packed
    uint64 keys (``hash_range <= 2^32``) and ``rooms < 255`` (uint8 fill).
    """

    name = "native"

    def __init__(self, sketch) -> None:
        global np
        if np is None:
            np = load_numpy()
        from repro.core._native import gss_config, load_native

        self._sketch = sketch
        config = sketch.config
        self._width = config.matrix_width
        self._rooms = config.rooms
        self._fingerprint_range = config.fingerprint_range
        self._hash_range = config.hash_range
        # Room arrays (and the kernel's pointers into them) appear with the
        # first write; see _allocate_rooms.
        self._src_fp = self._dst_fp = self._src_idx = self._dst_idx = None
        self._weights = None
        self._bucket_fill = np.zeros(self._width * self._width, dtype=np.uint8)
        self.matrix_edge_count = 0

        lib = load_native()
        ctx = lib.gss_new()
        if not ctx:  # pragma: no cover - allocation failure
            raise MemoryError("native kernel context allocation failed")
        self._lib = lib
        self._ctx = ctx
        self._ctx_finalizer = weakref.finalize(self, lib.gss_free, ctx)
        lcg = sketch._lcg
        # Seeded FNV-1a initial state for the kernel's node hashing — the
        # same value hash_functions.hash_bytes starts from, so the kernel's
        # token hashes are bit-identical to hash_string(node, seed).
        self._fnv_state0 = _FNV_OFFSET ^ _splitmix64(config.seed)
        self._config = gss_config(
            hash_range=self._hash_range,
            fp_range=self._fingerprint_range,
            width=self._width,
            rooms=config.rooms,
            seq_length=config.sequence_length,
            candidates=config.candidate_buckets,
            square_hashing=1 if config.square_hashing else 0,
            sampling=1 if config.sampling else 0,
            lcg_a=lcg.multiplier,
            lcg_b=lcg.increment,
            lcg_p=lcg.modulus,
            fnv_state0=self._fnv_state0,
        )
        lib.gss_configure(ctx, ctypes.byref(self._config))
        # Kernel calls made per item or per query: the context and the
        # out-parameters are converted to their ctypes arguments once.
        self._ctx_arg = ctypes.c_void_p(ctx)
        self._hashed = ctypes.c_int64(0)
        self._hashed_arg = ctypes.byref(self._hashed)
        self._weight = ctypes.c_double(0.0)
        self._weight_arg = ctypes.byref(self._weight)
        self._update_text = lib.gss_update_text
        self._edge_query = lib.gss_edge_query
        self._edge_weight = lib.gss_edge_weight
        self._neighbor_hashes = lib.gss_neighbor_hashes
        self._hash_out(64)

    def make_buffer(self) -> KernelBuffer:
        """The sketch's left-over buffer, which lives in the kernel: every
        ingest call spills into it itself."""
        return KernelBuffer(self)

    def make_node_index(self) -> KernelNodeIndex:
        """The sketch's reverse node index: string IDs live only in the
        kernel's node table, which :meth:`ingest_text` resolves every token
        through."""
        return KernelNodeIndex(self)

    # -- storage plumbing --------------------------------------------------

    def _allocate_rooms(self) -> None:
        """Allocate the ``m² · l`` room slots and configure the kernel with
        them.

        The arrays never move afterwards.  The scan's output buffer holds
        ``r * m * l`` hashes: every room of the node's ``r`` rows (columns)
        can match, but none twice.
        """
        config = self._sketch.config
        slots = self._width * self._width * self._rooms
        self._src_fp = np.empty(slots, dtype=np.int64)
        self._dst_fp = np.empty(slots, dtype=np.int64)
        self._src_idx = np.empty(slots, dtype=np.int64)
        self._dst_idx = np.empty(slots, dtype=np.int64)
        self._weights = np.empty(slots, dtype=np.float64)
        lines = config.sequence_length if config.square_hashing else 1
        self._scan_out = np.empty(lines * self._width * self._rooms, dtype=np.uint64)
        kernel = self._config
        kernel.src_fp, kernel.dst_fp, kernel.src_idx, kernel.dst_idx, kernel.weights = (
            column.ctypes.data for column in self._room_columns()
        )
        kernel.fill = self._bucket_fill.ctypes.data
        kernel.scan_out = self._scan_out.ctypes.data
        self._lib.gss_configure(self._ctx, ctypes.byref(kernel))
        # The one-row batch of a scalar insert by hashes.
        self._row_key = np.empty(1, dtype=np.uint64)
        self._row_weight = np.empty(1, dtype=np.float64)
        self._row_args = (
            self._ctx_arg,
            ctypes.c_void_p(self._row_key.ctypes.data),
            ctypes.c_void_p(self._row_weight.ctypes.data),
            ctypes.c_int64(1),
        )

    def _hash_out(self, size: int) -> None:
        """(Re)allocate :meth:`neighbor_hashes`' output for ``size`` hashes."""
        self._hashes = array("Q", bytes(8 * size))
        self._hash_args = (self._hashes.buffer_info()[0], size)

    def _room_columns(self) -> tuple:
        """The room arrays in room-list order ``[f_s, f_d, i_s, i_d, weight]``."""
        return (self._src_fp, self._dst_fp, self._src_idx, self._dst_idx, self._weights)

    def _live_slots(self):
        """``(buckets, slots)``: the occupied buckets in row-major order and
        the slots of their live rooms in the same order, each bucket's rooms
        in insertion order."""
        fill = self._bucket_fill
        buckets = np.flatnonzero(fill)
        counts = fill[buckets].astype(np.int64)
        ends = np.cumsum(counts)
        starts = np.repeat(buckets * self._rooms - ends + counts, counts)
        return buckets, starts + np.arange(len(starts))

    def bucket_at(self, row: int, column: int) -> Optional[List[List]]:
        """One bucket's rooms as ``[f_s, f_d, i_s, i_d, weight]`` lists: an
        O(l) slice (diagnostic/reference path only)."""
        bucket = row * self._width + column
        count = int(self._bucket_fill[bucket])
        if not count:
            return None
        start = bucket * self._rooms
        return [
            list(room)
            for room in zip(
                *(column[start : start + count].tolist() for column in self._room_columns())
            )
        ]

    def register_room(self, row: int, column: int, room: List) -> None:
        """Store one room (deserialization/restore path) at its bucket's
        next free slot and index its edge."""
        source_fp, destination_fp, source_index, destination_index, _ = room
        bucket = row * self._width + column
        fill = int(self._bucket_fill[bucket])
        if fill >= self._rooms:
            raise ValueError(
                f"bucket ({row}, {column}) already holds {self._rooms} rooms"
            )
        sketch = self._sketch
        if sketch.config.square_hashing:
            source_base = recover_address(
                row, source_fp, source_index, self._width, sketch._lcg
            )
            destination_base = recover_address(
                column, destination_fp, destination_index, self._width, sketch._lcg
            )
        else:
            source_base = row
            destination_base = column
        source_hash = source_base * self._fingerprint_range + source_fp
        destination_hash = destination_base * self._fingerprint_range + destination_fp
        if self._weights is None:
            self._allocate_rooms()
        slot = bucket * self._rooms + fill
        for column, value in zip(self._room_columns(), room):
            column[slot] = value
        self._bucket_fill[bucket] += 1
        self.matrix_edge_count += 1
        if self._lib.gss_map_put(
            self._ctx, source_hash * self._hash_range + destination_hash, slot
        ):
            raise MemoryError("native edge-slot table allocation failed")

    def occupied_buckets(self) -> Iterator[Tuple[int, int, List[List]]]:
        """Yield ``(row, column, bucket)`` row-major, rooms in insertion order."""
        if self._weights is None:
            return
        buckets, slots = self._live_slots()
        rooms = [
            list(room)
            for room in zip(*(column[slots].tolist() for column in self._room_columns()))
        ]
        position = 0
        for bucket, count in zip(buckets.tolist(), self._bucket_fill[buckets].tolist()):
            row, column = divmod(bucket, self._width)
            yield row, column, rooms[position : position + count]
            position += count

    # -- updates -----------------------------------------------------------

    def _placed(self, placed: int) -> None:
        """Count the rooms a kernel ingest call placed."""
        if placed < 0:  # pragma: no cover - allocation failure
            raise MemoryError("native kernel batch allocation failed")
        self.matrix_edge_count += placed

    def insert_edge(self, source_hash: int, destination_hash: int, weight: float) -> None:
        """Scalar insert by hashes: a one-row ``gss_ingest_batch`` call."""
        if self._weights is None:
            self._allocate_rooms()
        self._row_key[0] = source_hash * self._hash_range + destination_hash
        self._row_weight[0] = weight
        self._placed(self._lib.gss_ingest_batch(*self._row_args))

    def update_text(self, source: str, destination: str, weight) -> bool:
        """Scalar insert by string IDs in one ``gss_update_text`` call, which
        resolves both IDs through the node table (hashing and recording a
        new one) and places the edge; ``False`` — nothing changed — when the
        kernel cannot take the IDs (one UTF-8 cannot encode, or the node
        arena is full)."""
        try:
            source_bytes = source.encode("utf-8")
            destination_bytes = destination.encode("utf-8")
        except UnicodeEncodeError:
            return False
        if self._weights is None:
            self._allocate_rooms()
        placed = self._update_text(
            self._ctx_arg, source_bytes, len(source_bytes),
            destination_bytes, len(destination_bytes), float(weight), self._hashed_arg,
        )
        if placed == -2:
            return False
        self._placed(placed)
        _count_hashes(self._hashed.value)
        return True

    def ingest_text(self, tokens: List, weights: List) -> Optional[int]:
        """Whole-batch text ingestion: node IDs to placed rooms in one call,
        or ``None`` — nothing changed — for a batch the kernel declines.

        ``tokens`` and ``weights`` are a batch cut by
        :func:`~repro.streaming.batch.triple_tokens` (weights checked).
        :func:`~repro.streaming.batch.text_blob` joins the tokens into one
        NUL-joined UTF-8 blob (interleaved source/destination stream
        order); a token that is not an encodable ``str`` declines the
        batch, and so does one holding a NUL, whose extra separator the
        kernel's token count refuses.  The kernel resolves each token
        through its node table — the sketch's reverse index of string IDs
        (:meth:`make_node_index`), so a node keeps the hash it was recorded
        under — hashes and records the new ones with the same seeded
        FNV-1a/splitmix64 mix as
        :func:`repro.hashing.hash_functions.hash_string`, in first-seen
        interleaved order like the scalar paths, packs the edge keys and
        runs the aggregate/classify/place/spill pipeline: hashing included,
        the batch crosses the Python/kernel boundary exactly once.  The
        hash-once counter is credited with exactly the keys the kernel
        mixed.
        """
        registry = obs_active()
        if registry is not None:
            started = perf_counter()
        blob = text_blob(tokens)
        if blob is None:
            return None
        count = len(weights)
        column = packed_weights(weights)
        if self._weights is None:
            self._allocate_rooms()
        if registry is not None:
            stage_histogram(registry, "hashing").observe(perf_counter() - started)
            started = perf_counter()
        placed = self._lib.gss_ingest_text_batch(
            self._ctx, blob, len(blob), column, count, self._hashed_arg
        )
        if placed == -2:  # an ID holds a NUL, or the arena is full
            return None
        self._placed(placed)
        _count_hashes(self._hashed.value)
        if registry is not None:
            stage_histogram(registry, "placement").observe(perf_counter() - started)
        return count

    def ingest_columns(self, source_hashes, destination_hashes, weights) -> int:
        """Ingest aligned ``H(s)`` / ``H(d)`` / weight columns.

        The columns are consumed as arrays directly (zero-copy when they
        already are uint64/float64 arrays) and placed in one
        ``gss_ingest_batch`` call, which aggregates, classifies, places and
        spills them as the text path does.
        """
        count = len(source_hashes)
        if count == 0:
            return 0
        keys = np.asarray(source_hashes, dtype=np.uint64) * np.uint64(
            self._hash_range
        ) + np.asarray(destination_hashes, dtype=np.uint64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        registry = obs_active()
        if registry is not None:
            started = perf_counter()
        if self._weights is None:
            self._allocate_rooms()
        self._placed(self._lib.gss_ingest_batch(
            self._ctx, keys.ctypes.data, weights.ctypes.data, count
        ))
        if registry is not None:
            stage_histogram(registry, "placement").observe(perf_counter() - started)
        return count

    # -- queries -----------------------------------------------------------

    def edge_weight(self, source_hash: int, destination_hash: int) -> Optional[float]:
        """Weight of the edge's room or buffer entry, or ``None`` when the
        sketch holds no such edge: one ``gss_edge_weight`` call."""
        if self._edge_weight(
            self._ctx_arg, source_hash * self._hash_range + destination_hash, self._weight_arg
        ):
            return self._weight.value
        return None

    def edge_query_text(self, source: str, destination: str) -> Optional[float]:
        """Edge query by string IDs: one ``gss_edge_query`` call, which
        hashes both IDs as :class:`~repro.hashing.hash_functions.NodeHasher`
        does (credited to the hash-once counter) and reads the edge's room
        or buffer entry."""
        source_bytes = source.encode("utf-8")
        destination_bytes = destination.encode("utf-8")
        found = self._edge_query(
            self._ctx_arg, source_bytes, len(source_bytes),
            destination_bytes, len(destination_bytes), self._weight_arg,
        )
        _count_hashes(2)
        return self._weight.value if found else None

    def neighbor_hashes(self, node_hash: int, forward: bool) -> Set[int]:
        """The node's ``r`` rows (or columns) scanned, then its left-over
        buffer chain, in one ``gss_neighbor_hashes`` call."""
        found = self._neighbor_hashes(self._ctx_arg, node_hash, forward, *self._hash_args)
        if found > self._hash_args[1]:
            self._hash_out(2 * found)
            self._neighbor_hashes(self._ctx_arg, node_hash, forward, *self._hash_args)
        return set(self._hashes[:found].tolist())

    def reconstruct(self) -> List[Tuple[int, int, float]]:
        """Matrix-edge recovery, row-major like a full scan."""
        if self._weights is None:
            return []
        sketch = self._sketch
        _, slots = self._live_slots()
        rows, cols = np.divmod(slots // self._rooms, self._width)
        src_fp = self._src_fp[slots]
        dst_fp = self._dst_fp[slots]
        if sketch.config.square_hashing:
            source_bases = (rows - lcg_values_at(src_fp, self._src_idx[slots], sketch._lcg)) % self._width
            destination_bases = (cols - lcg_values_at(dst_fp, self._dst_idx[slots], sketch._lcg)) % self._width
        else:
            source_bases = rows
            destination_bases = cols
        fingerprint_range = self._fingerprint_range
        return list(
            zip(
                (source_bases * fingerprint_range + src_fp).tolist(),
                (destination_bases * fingerprint_range + dst_fp).tolist(),
                self._weights[slots].tolist(),
            )
        )
