"""Ingest batches: the columnar hashed batches of sharded summaries, the
text encoding both kernel entry points read, and the one weight rule.

The hot path of every summary is dominated by node hashing, yet the layered
deployment used to hash each edge up to three times: once for shard routing
(:class:`~repro.cluster.ShardedSummary`, in-process or worker processes),
again inside each shard's ``update_many``, and again for memo upkeep.  The
summary that ingests a batch hashes it, once: a plain GSS through its own
backend, a sharded deployment through its kernel front end or, where that
cannot run, through :class:`HashedBatch`, which carries the hashes across
shard routing as columns the shards consume directly.  (A served summary
hashes its own batches too: serve ingest frames carry node IDs.)  The
columns:

* ``sources`` / ``destinations`` — the original node keys (kept because the
  reverse :class:`~repro.core.reverse_index.NodeIndex` needs them);
* ``source_hashes`` / ``destination_hashes`` — the sketch node hashes
  ``H(v) = hash_key(v, seed) % hash_range`` under a :class:`HashSpec`;
* ``route_hashes`` — the full 64-bit routing hash ``hash_key(source,
  routing_seed)`` (consumers reduce it modulo their shard count), present
  only when the spec carries a ``routing_seed``;
* ``weights``.

With NumPy available the columns are uint64/float64 arrays produced by the
vectorized hashing pipeline and routing becomes one gather plus a stable
``argsort`` group-split; without it the same batch API is backed by plain
Python lists and the scalar hash loop — consumers never need to know which.
Every batch is hashed: :class:`~repro.api.StreamSession` normalizes its
chunks itself and leaves the hashing to the summary it feeds.

Distinct keys are hashed exactly once per batch (``dict.fromkeys``
deduplication) and callers may thread a long-lived ``memo`` dict through
successive batches to skip re-hashing keys seen in earlier chunks; the
instrumentation hook :func:`repro.hashing.count_key_hashes` proves the
invariant end-to-end.

:func:`text_batch` is the kernel's input format for string node IDs, shared
by the native GSS backend (``gss_ingest_text_batch``) and the sharded
deployment's kernel front end (``gss_route_text_batch``): one NUL-joined
UTF-8 blob of the IDs in interleaved stream order plus a float64 weight
column.  :func:`check_weights` is the weight rule of every ingest path,
backend and deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from numbers import Real
from typing import Collection, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.hashing.hash_functions import hash_key
from repro.hashing.vectorized import NUMPY_AVAILABLE, load_numpy
from repro.obs.trace import active as _obs_active, span as _obs_span

__all__ = [
    "HashSpec",
    "HashedBatch",
    "MEMO_LIMIT",
    "check_weights",
    "text_batch",
    "weight_column",
]

#: Obs counters proving the hash-once invariant live: every distinct key in
#: a batch either hits the cross-batch memo or is hashed exactly once.
_MEMO_HITS = "repro_hash_memo_hits_total"
_MEMO_MISSES = "repro_hash_memo_misses_total"
_MEMO_HELP = "Distinct batch keys resolved from (hits) or added to (misses) the cross-batch hash memo."

#: Hard cap on entries held in a caller-owned hash memo.  Beyond it, new keys
#: are still hashed exactly once per batch (a per-batch overlay dict) but are
#: no longer remembered across batches, bounding client-side memory on
#: adversarial streams with unbounded key cardinality.
MEMO_LIMIT = 1 << 20

#: Batches (or missing-key sets) below this size take the scalar loop even
#: when NumPy is available: the vectorized path's fixed per-call costs
#: dominate tiny inputs.  Both paths are bit-identical, so this is purely a
#: constant-factor knob.
_VECTOR_MIN = 16


#: Weight types taken without a per-item check: the common case costs one
#: pass of ``type`` over the batch, run in C.
_PLAIN_WEIGHTS = frozenset((float, int))


def check_weights(weights: Collection) -> None:
    """Raise :class:`ValueError` unless every weight is a real number.

    The one weight rule of every ingest path, backend and deployment:
    ``int``, ``float``, ``bool``, ``Fraction`` and NumPy reals are taken;
    ``str``, ``bytes``, ``Decimal``, ``complex`` and ``None`` are refused,
    even where ``float()`` or NumPy would convert them.  Callers check a
    whole batch before they change any state.
    """
    if not _PLAIN_WEIGHTS.issuperset(map(type, weights)):
        for weight in weights:
            if not isinstance(weight, Real):
                raise ValueError(f"weight {weight!r} is not a real number")


def weight_column(weights: Sequence, vectorized: bool):
    """``weights``, checked by :func:`check_weights`, as a float64 array
    (``vectorized``, needs NumPy) or as a list of floats."""
    check_weights(weights)
    if vectorized:
        np = load_numpy()
        return np.asarray(weights, dtype=np.float64)
    return [float(weight) for weight in weights]


def text_batch(items: List) -> Optional[Tuple[List, object, Optional[bytes]]]:
    """Cut ``(source, destination, weight)`` triples into the kernel's text
    encoding (needs NumPy): ``(tokens, weights, blob)``, or ``None`` when an
    item is not a three-element sequence.

    ``tokens`` holds the node IDs in interleaved stream order (item ``i``'s
    source at ``2i``, its destination at ``2i + 1``), so a kernel's token
    index names the caller's own node object.  ``weights`` is a float64
    array, checked by :func:`check_weights` before anything else happens to
    the batch.  ``blob`` is the tokens NUL-joined and UTF-8 encoded, or
    ``None`` when a token is not a ``str``, cannot be encoded, or contains a
    NUL (the join would be ambiguous).  All of it runs in C loops.
    """
    try:
        if set(map(len, items)) != {3}:
            return None
        tokens = list(chain.from_iterable(items))
    except TypeError:
        return None
    weights = weight_column(tokens[2::3], vectorized=True)
    del tokens[2::3]
    try:
        blob = "\x00".join(tokens).encode("utf-8")
    except (TypeError, ValueError):  # UnicodeEncodeError is a ValueError
        return tokens, weights, None
    if blob.count(0) != len(tokens) - 1:
        blob = None
    return tokens, weights, blob


@dataclass(frozen=True)
class HashSpec:
    """The hash function family a :class:`HashedBatch` was built under.

    ``seed`` and ``hash_range`` pin the sketch node hash ``H(v) =
    hash_key(v, seed) % hash_range`` (Definition 5's ``M``); ``routing_seed``
    optionally requests the *independent* full-width routing hash used by the
    sharded deployments.  Consumers must verify a batch's spec matches their
    own before ingesting its hash columns — :meth:`matches` ignores the
    routing seed because sketch placement does not depend on it.
    """

    seed: int
    hash_range: int
    routing_seed: Optional[int] = None

    def with_routing(self, routing_seed: Optional[int]) -> "HashSpec":
        """This spec with a different routing seed (sketch hash unchanged)."""
        return HashSpec(self.seed, self.hash_range, routing_seed)

    def matches(self, other: "HashSpec") -> bool:
        """True when both specs produce identical *sketch* node hashes."""
        return self.seed == other.seed and self.hash_range == other.hash_range


def _hash_lookup(
    keys: Iterable[Hashable],
    seed: int,
    value_range: Optional[int],
    memo: Optional[dict],
) -> dict:
    """Return a mapping covering ``keys``, hashing each unseen key once.

    ``value_range`` of ``None`` yields the full 64-bit hash (routing);
    otherwise values are reduced modulo it (sketch node hashes).  ``memo``
    is a caller-owned cross-batch cache, updated in place while it stays
    under :data:`MEMO_LIMIT`.
    """
    distinct = dict.fromkeys(keys)
    if memo is None:
        memo = {}
    missing = [key for key in distinct if key not in memo]
    registry = _obs_active()
    if registry is not None:
        hits = len(distinct) - len(missing)
        if hits:
            registry.counter(_MEMO_HITS, _MEMO_HELP).inc(hits)
        if missing:
            registry.counter(_MEMO_MISSES, _MEMO_HELP).inc(len(missing))
    if not missing:
        return memo
    if NUMPY_AVAILABLE and len(missing) >= _VECTOR_MIN:
        from repro.hashing.vectorized import hash_keys_array

        np = load_numpy()
        hashed_values = hash_keys_array(missing, seed)
        if value_range is not None:
            hashed_values = hashed_values % np.uint64(value_range)
        hashed = hashed_values.tolist()
    elif value_range is None:
        # repro: allow(hash-once): this IS the hash-once edge — the memo
        # miss path computes each distinct key's hash exactly once here.
        hashed = [hash_key(key, seed) for key in missing]
    else:
        # repro: allow(hash-once): same hash-once edge, range-reduced.
        hashed = [hash_key(key, seed) % value_range for key in missing]
    if len(memo) + len(missing) <= MEMO_LIMIT:
        memo.update(zip(missing, hashed))
        return memo
    overlay = {key: memo[key] for key in distinct if key in memo}
    overlay.update(zip(missing, hashed))
    return overlay


class HashedBatch:
    """One chunk of stream items with node hashes computed exactly once.

    Build through :meth:`from_items` (column split + hashing).  Column
    types are an internal detail — NumPy arrays on the vectorized path,
    plain lists otherwise; use the ``*_list`` accessors when Python
    ints/floats are required (dict keys, JSON serialization).
    """

    __slots__ = (
        "spec",
        "sources",
        "destinations",
        "weights",
        "source_hashes",
        "destination_hashes",
        "route_hashes",
        "_source_hash_ints",
        "_destination_hash_ints",
    )

    def __init__(
        self,
        spec: HashSpec,
        *,
        sources: Sequence,
        destinations: Sequence,
        weights,
        source_hashes,
        destination_hashes,
        route_hashes=None,
    ) -> None:
        self.spec = spec
        self.sources = sources
        self.destinations = destinations
        self.weights = weights
        self.source_hashes = source_hashes
        self.destination_hashes = destination_hashes
        self.route_hashes = route_hashes
        self._source_hash_ints = None
        self._destination_hash_ints = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_items(
        cls,
        items: Iterable,
        spec: HashSpec,
        *,
        node_memo: Optional[dict] = None,
        route_memo: Optional[dict] = None,
    ) -> "HashedBatch":
        """Split one chunk of stream items into columns and hash them.

        ``items`` may mix :class:`~repro.streaming.edge.StreamEdge`-like
        objects (anything with ``source``/``destination``/``weight``
        attributes) and bare tuples, whose elements past the third are
        ignored.  Every distinct key is hashed exactly once (``node_memo`` /
        ``route_memo`` extend the dedup across batches).
        """
        sources: List = []
        destinations: List = []
        weights: List = []
        for item in items:
            if hasattr(item, "source"):
                sources.append(item.source)
                destinations.append(item.destination)
                weights.append(item.weight)
            else:
                sources.append(item[0])
                destinations.append(item[1])
                weights.append(item[2])

        count = len(sources)
        vectorized = NUMPY_AVAILABLE and count >= _VECTOR_MIN
        # Weights convert before any key is hashed: a bad one refuses the
        # whole batch, whichever column type it gets.
        weights = weight_column(weights, vectorized)
        routes = spec.routing_seed is not None
        with _obs_span("ingest.hash_batch"):
            lookup = _hash_lookup(
                chain(sources, destinations), spec.seed, spec.hash_range, node_memo
            )
            route_lookup = (
                _hash_lookup(sources, spec.routing_seed, None, route_memo)
                if routes
                else None
            )
        if vectorized:
            np = load_numpy()
            source_hashes = np.fromiter(
                map(lookup.__getitem__, sources), dtype=np.uint64, count=count
            )
            destination_hashes = np.fromiter(
                map(lookup.__getitem__, destinations), dtype=np.uint64, count=count
            )
            route_hashes = (
                np.fromiter(
                    map(route_lookup.__getitem__, sources),
                    dtype=np.uint64,
                    count=count,
                )
                if routes
                else None
            )
        else:
            source_hashes = [lookup[key] for key in sources]
            destination_hashes = [lookup[key] for key in destinations]
            route_hashes = (
                [route_lookup[key] for key in sources] if routes else None
            )
        return cls(
            spec,
            sources=sources,
            destinations=destinations,
            weights=weights,
            source_hashes=source_hashes,
            destination_hashes=destination_hashes,
            route_hashes=route_hashes,
        )

    # -- shape ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.sources)

    @property
    def hashed(self) -> bool:
        """True when the batch carries precomputed hash columns."""
        return self.source_hashes is not None

    # -- accessors -----------------------------------------------------------

    def items(self) -> List:
        """The batch as ``(source, destination, weight)`` triples, for
        consumers that cannot take its hash columns."""
        return list(zip(self.sources, self.destinations, self.weight_list()))

    def source_hash_list(self) -> List[int]:
        """Source node hashes as Python ints (cached)."""
        if self._source_hash_ints is None:
            column = self.source_hashes
            self._source_hash_ints = (
                column if isinstance(column, list) else column.tolist()
            )
        return self._source_hash_ints

    def destination_hash_list(self) -> List[int]:
        """Destination node hashes as Python ints (cached)."""
        if self._destination_hash_ints is None:
            column = self.destination_hashes
            self._destination_hash_ints = (
                column if isinstance(column, list) else column.tolist()
            )
        return self._destination_hash_ints

    def weight_list(self) -> List[float]:
        """Weights as a plain Python list."""
        if isinstance(self.weights, list):
            return self.weights
        return self.weights.tolist()

    def node_hash_items(self) -> Iterable[Tuple[Hashable, int]]:
        """Iterate ``(key, node_hash)`` pairs in interleaved stream order:
        source 0, destination 0, source 1, ... — the order item-by-item
        ingestion meets the nodes in.

        Hashes are Python ints — safe as dict keys/values in the reverse
        :class:`~repro.core.reverse_index.NodeIndex` and in JSON snapshots.
        """
        return chain.from_iterable(
            zip(
                zip(self.sources, self.source_hash_list()),
                zip(self.destinations, self.destination_hash_list()),
            )
        )

    # -- routing -------------------------------------------------------------

    def split_by_route(self, shard_count: int) -> List[Tuple[int, "HashedBatch"]]:
        """Group-split by ``route_hash % shard_count``, stream order preserved.

        Returns ``(shard_index, sub_batch)`` pairs for the non-empty shards,
        in ascending shard order.  The split is stable: within a shard, items
        keep their relative stream order (bucket placement and deletion
        semantics observe it).  Vectorized as one modulo + stable argsort +
        boundary scan when the columns are arrays.
        """
        if self.route_hashes is None:
            raise ValueError("batch was built without a routing seed")
        if shard_count <= 0:
            raise ValueError("shard_count must be positive")
        count = len(self.sources)
        if count == 0:
            return []
        if isinstance(self.route_hashes, list):
            buckets: dict = {}
            for index, route in enumerate(self.route_hashes):
                buckets.setdefault(route % shard_count, []).append(index)
            return [
                (shard, self._take(indices))
                for shard, indices in sorted(buckets.items())
            ]
        np = load_numpy()
        shards = (self.route_hashes % np.uint64(shard_count)).astype(np.int64)
        order = np.argsort(shards, kind="stable")
        ordered = shards[order]
        boundaries = np.nonzero(np.diff(ordered))[0] + 1
        starts = [0, *boundaries.tolist(), count]
        return [
            (int(ordered[begin]), self._take(order[begin:end]))
            for begin, end in zip(starts, starts[1:])
        ]

    def _take(self, indices: Union[List[int], "object"]) -> "HashedBatch":
        """A sub-batch holding the rows at ``indices`` (route hashes dropped)."""
        if isinstance(indices, list):
            positions = indices
            source_hashes = [self.source_hashes[i] for i in positions]
            destination_hashes = [self.destination_hashes[i] for i in positions]
            weights = [self.weights[i] for i in positions]
        else:
            positions = indices.tolist()
            source_hashes = self.source_hashes[indices]
            destination_hashes = self.destination_hashes[indices]
            weights = self.weights[indices]
        return HashedBatch(
            self.spec,
            sources=[self.sources[i] for i in positions],
            destinations=[self.destinations[i] for i in positions],
            weights=weights,
            source_hashes=source_hashes,
            destination_hashes=destination_hashes,
        )
