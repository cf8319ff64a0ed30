"""Wire protocol shared by :class:`SummaryServer` and :class:`ServeClient`.

Every message is one length-prefixed frame::

    header:  kind (u8) | payload length (u32, big-endian)
    payload: a UTF-8 JSON object

One frame kind exists, ``FRAME_JSON``.  Every message — hello, ingest,
queries, flush, metrics, acks, busy, errors — is a JSON object with an
``"op"`` field.  Every request receives exactly one reply frame, in
request order — the same strict-FIFO discipline as the cluster's worker
pipes, and for the same reason: a query sent after a run of ingest frames
is guaranteed to observe them.

An ingest frame is ``{"op": "ingest", "items": [[source, destination,
weight], ...]}``: node IDs, never hashes.  The served summary hashes each
batch once, as it hashes its in-process batches (GSS §V: the sketch
computes ``H(v)`` and keeps the ``<H(v), v>`` node table).
:func:`ingest_items` checks a frame before the summary sees it: node IDs
must be JSON strings or numbers — the values a query can send back — and
weights JSON numbers.  Anything else is refused whole, so a rejected frame
leaves no state.

Query answers are JSON values with one extension: sets — the
successor/precursor result type — are tagged ``{"__set__": [...]}`` so they
survive the round trip with their type.  JSON's shortest-repr float encoding
round-trips IEEE doubles exactly, which is what makes served answers
bit-identical to in-process ones.
"""

from __future__ import annotations

import json
import struct
from typing import Any, List, Tuple

__all__ = [
    "FRAME_JSON",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_json_payload",
    "decode_value",
    "encode_value",
    "ingest_items",
    "pack_frame",
    "pack_json",
    "read_frame",
]

PROTOCOL_VERSION = 2

FRAME_JSON = 1

#: Refuse frames beyond this size instead of allocating unboundedly for a
#: corrupt (or hostile) length prefix.  64 MiB fits any sane ingest batch.
MAX_FRAME_BYTES = 64 << 20

_HEADER = struct.Struct("!BI")

#: The JSON types a node ID may arrive as: the scalars a query argument can
#: carry back.  (A tuple ID arrives as a list, which no query could name.)
_ID_TYPES = frozenset({str, int, float})
_WEIGHT_TYPES = frozenset({int, float})


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


# -- ingest and query values ------------------------------------------------


def ingest_items(document: dict) -> List[list]:
    """The items of an ingest frame, as ``[source, destination, weight]``
    lists with float weights.

    Raises :class:`ProtocolError`, before anything is ingested, unless
    ``items`` is a list of three-element lists whose node IDs are JSON
    strings or numbers and whose weights are numbers.
    """
    items = document.get("items")
    if not isinstance(items, list):
        raise ProtocolError("an ingest frame carries an 'items' list")
    if not items:
        return items
    # A well-formed frame passes whole-frame type checks whose loops run in
    # C; any other is walked item by item to name what is wrong with it.
    if set(map(type, items)) == {list} and set(map(len, items)) == {3}:
        sources, destinations, weights = zip(*items)
        weight_types = set(map(type, weights))
        if (set(map(type, sources)) | set(map(type, destinations))) <= _ID_TYPES:
            if weight_types == {float}:
                return items
            if weight_types <= _WEIGHT_TYPES:
                return [
                    [source, destination, float(weight)]
                    for source, destination, weight in items
                ]
    for item in items:
        if type(item) is not list or len(item) != 3:
            raise ProtocolError(
                f"ingest item {item!r} is not a [source, destination, weight] list"
            )
        if type(item[0]) not in _ID_TYPES or type(item[1]) not in _ID_TYPES:
            raise ProtocolError(
                f"ingest item {item!r}: node IDs must be strings or numbers"
            )
        if type(item[2]) not in _WEIGHT_TYPES:
            raise ProtocolError(f"ingest item {item!r}: the weight must be a number")
    raise ProtocolError("malformed ingest items")  # pragma: no cover - unreachable


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
