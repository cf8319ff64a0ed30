"""Wire protocol shared by :class:`SummaryServer` and :class:`ServeClient`.

Every message is one length-prefixed frame::

    header:  kind (u8) | payload length (u32, big-endian)
    payload: kind-dependent

Two frame kinds exist:

* ``FRAME_JSON`` — a UTF-8 JSON object.  Every control message (hello,
  queries, flush, metrics, acks, busy, errors) travels this way, and so does
  the ingest fallback when either side lacks NumPy.  Requests carry an
  ``"op"`` field; every request receives exactly one reply frame, in request
  order — the same strict-FIFO discipline as the cluster's worker pipes,
  and for the same reason: a query sent after a run of ingest frames is
  guaranteed to observe them.
* ``FRAME_HBATCH`` — a binary ingest frame: the routing-hash column followed
  by the hashed-batch blob of
  :func:`~repro.streaming.batch.encode_hashed_batch` (node-hash columns +
  weights + pickled keys) — the same bytes the cluster sends down each
  worker pipe.  A batch hashed once on the client is therefore routed and
  ingested by the workers with **zero further hash work** — the hash-once
  invariant extended edge-to-worker across the network.  The blob is
  native-endian and carries pickled keys: the protocol assumes a
  same-architecture, *trusted* network (bind to loopback or a private
  interface).

Query answers are JSON values with one extension: sets — the
successor/precursor result type — are tagged ``{"__set__": [...]}`` so they
survive the round trip with their type.  JSON's shortest-repr float encoding
round-trips IEEE doubles exactly, which is what makes served answers
bit-identical to in-process ones.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Optional, Tuple

from repro.hashing.vectorized import NUMPY_AVAILABLE, load_numpy
from repro.streaming.batch import (
    HashedBatch,
    HashSpec,
    decode_hashed_batch,
    encode_hashed_batch,
)

__all__ = [
    "FRAME_HBATCH",
    "FRAME_JSON",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_ingest_payload",
    "decode_json_payload",
    "decode_value",
    "encode_ingest_frame",
    "encode_value",
    "pack_frame",
    "pack_json",
    "read_frame",
    "spec_from_wire",
    "spec_to_wire",
]

PROTOCOL_VERSION = 1

FRAME_JSON = 1
FRAME_HBATCH = 2

#: Refuse frames beyond this size instead of allocating unboundedly for a
#: corrupt (or hostile) length prefix.  64 MiB fits any sane ingest batch.
MAX_FRAME_BYTES = 64 << 20

_HEADER = struct.Struct("!BI")
_ROUTE_HEADER = struct.Struct("=Q")


class ProtocolError(RuntimeError):
    """The peer sent bytes that do not parse as a protocol frame."""


# -- framing -----------------------------------------------------------------


def pack_frame(kind: int, payload: bytes) -> bytes:
    """One wire frame: header + payload."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit; lower the ingest batch size"
        )
    return _HEADER.pack(kind, len(payload)) + payload


def pack_json(document: dict) -> bytes:
    """One JSON control frame."""
    return pack_frame(FRAME_JSON, json.dumps(document).encode("utf-8"))


def read_frame(read_exact) -> Tuple[int, bytes]:
    """Read one frame through ``read_exact(n) -> bytes`` (raises on EOF).

    Shared by the synchronous client (socket file wrapper) and any
    blocking-IO consumer; the asyncio server uses ``reader.readexactly``
    with the same header constants directly.
    """
    header = read_exact(_HEADER.size)
    kind, length = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the protocol limit")
    payload = read_exact(length) if length else b""
    return kind, payload


def decode_json_payload(payload: bytes) -> dict:
    """Parse a ``FRAME_JSON`` payload, normalizing parse errors."""
    try:
        document = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed JSON frame: {error}") from None
    if not isinstance(document, dict):
        raise ProtocolError("JSON frames must be objects")
    return document


HEADER_SIZE = _HEADER.size
unpack_header = _HEADER.unpack


# -- binary ingest frames ----------------------------------------------------


def encode_ingest_frame(batch: HashedBatch) -> bytes:
    """Encode a routed :class:`HashedBatch` as one binary ingest frame.

    Layout: ``=Q`` route count, the u64 route-hash column, then the
    hashed-batch blob.  Requires NumPy on the encoding side (the
    columns are arrays); callers fall back to a JSON ingest frame otherwise.
    A batch without route hashes encodes a zero-length route column — the
    server then routes it itself (one routing-hash pass, node hashes still
    reused).
    """
    np = load_numpy()
    blob = encode_hashed_batch(batch)
    if batch.route_hashes is None:
        return pack_frame(FRAME_HBATCH, _ROUTE_HEADER.pack(0) + blob)
    routes = np.ascontiguousarray(np.asarray(batch.route_hashes, dtype=np.uint64))
    return pack_frame(
        FRAME_HBATCH,
        b"".join((_ROUTE_HEADER.pack(len(routes)), routes.tobytes(), blob)),
    )


def decode_ingest_payload(payload: bytes, spec: Optional[HashSpec]) -> HashedBatch:
    """Decode a binary ingest payload back into a :class:`HashedBatch`.

    ``spec`` is the *server's* hash spec (node family + routing seed): the
    client built the batch against the spec advertised in the hello frame,
    so stamping it here lets ``ShardedSummary.update_many_hashed`` accept
    the columns without re-hashing.  Requires NumPy (servers without it
    never advertise binary ingest).  Raises :class:`ProtocolError` when the
    payload's counts disagree with each other or with its length.
    """
    np = load_numpy()
    try:
        (route_count,) = _ROUTE_HEADER.unpack_from(payload, 0)
        cursor = _ROUTE_HEADER.size
        routes = None
        if route_count:
            routes = np.frombuffer(
                payload, dtype=np.uint64, count=route_count, offset=cursor
            )
            cursor += 8 * route_count
        batch = decode_hashed_batch(payload, cursor, len(payload) - cursor, spec)
    except (struct.error, ValueError) as error:
        raise ProtocolError(f"malformed binary ingest frame: {error}") from None
    if routes is not None:
        if len(batch) != route_count:
            raise ProtocolError(
                f"route column of {route_count} entries for a batch of "
                f"{len(batch)} items"
            )
        batch.route_hashes = routes
    return batch


def binary_ingest_supported() -> bool:
    """Whether this side can encode/decode ``FRAME_HBATCH`` payloads."""
    return NUMPY_AVAILABLE


# -- hash specs and query values over JSON -----------------------------------


def spec_to_wire(spec: Optional[HashSpec]) -> Optional[dict]:
    """A :class:`HashSpec` as a JSON-safe object (``None`` passes through)."""
    if spec is None:
        return None
    return {
        "seed": spec.seed,
        "hash_range": spec.hash_range,
        "routing_seed": spec.routing_seed,
    }


def spec_from_wire(document: Optional[dict]) -> Optional[HashSpec]:
    """Rebuild a :class:`HashSpec` from its wire form."""
    if document is None:
        return None
    return HashSpec(
        seed=document["seed"],
        hash_range=document["hash_range"],
        routing_seed=document.get("routing_seed"),
    )


def encode_value(value: Any) -> Any:
    """JSON-encode a query answer (sets tagged, scalars as-is)."""
    if isinstance(value, (set, frozenset)):
        return {"__set__": list(value)}
    return value


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, dict) and set(value) == {"__set__"}:
        return set(value["__set__"])
    return value
