"""Persistence of GSS sketches.

A summarization structure is only useful in production if it can be
checkpointed: operators periodically snapshot the sketch of the stream so far
and restore it after restarts.  The format here is a compact JSON document —
portable, diff-able and dependency-free — containing the configuration, every
occupied room, the left-over buffer and (optionally) the reverse node index.

The round trip is exact: a restored sketch answers every query identically to
the original, which the tests verify property-style.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.hashing.hash_functions import HASH_VERSION

FORMAT_VERSION = 1


def sketch_to_dict(sketch: GSS, include_node_index: bool = True) -> Dict:
    """Serialize a GSS into a plain dictionary (JSON-compatible)."""
    config = sketch.config
    occupied = [
        {"row": row, "column": column, "rooms": [list(room) for room in bucket]}
        for row, column, bucket in sketch.occupied_buckets()
    ]
    document = {
        "format_version": FORMAT_VERSION,
        # Which registered sketch wrote the snapshot, so repro.api.from_dict
        # can dispatch without the caller knowing the concrete class.
        "sketch": "gss",
        "hash_version": HASH_VERSION,
        "config": {
            "matrix_width": config.matrix_width,
            "fingerprint_bits": config.fingerprint_bits,
            "rooms": config.rooms,
            "sequence_length": config.sequence_length,
            "candidate_buckets": config.candidate_buckets,
            "square_hashing": config.square_hashing,
            "sampling": config.sampling,
            "keep_node_index": config.keep_node_index,
            "seed": config.seed,
            # The *resolved* backend (never "auto", and never a name whose
            # prerequisites were missing), so restoring the snapshot lands on
            # the same backend that actually wrote it — modulo the restoring
            # machine's own availability fallbacks.
            "backend": sketch.backend_name,
        },
        "matrix_edge_count": sketch.matrix_edge_count,
        "update_count": sketch.update_count,
        "buckets": occupied,
        "buffer": [
            {"source": source, "destination": destination, "weight": weight}
            for source, destination, weight in sketch.buffer.edges()
        ],
    }
    if include_node_index and sketch.node_index is not None:
        document["node_index"] = [
            {"node": repr(node), "hash": node_hash, "raw": node}
            for node, node_hash in sketch.node_index.items()
            if isinstance(node, (str, int, float, bool))
        ]
    return document


def sketch_from_dict(document: Dict, backend: Optional[str] = None) -> GSS:
    """Rebuild a GSS from a dictionary produced by :func:`sketch_to_dict`.

    ``backend`` overrides the backend recorded in the snapshot, so a sketch
    written by one backend can be restored into the other (the room layout in
    the document is backend-agnostic, and both backends place restored rooms
    identically).  Snapshots written before the backend field existed restore
    onto the pure-Python default; ones recording the legacy ``"numpy"`` name
    restore onto the native backend.  A node-index entry whose hash is not
    an integer in ``[0, M)`` is refused (``TypeError`` / ``ValueError``),
    and so is a buffered edge's.

    Snapshots also record the hash-mapping version (see
    :data:`repro.hashing.hash_functions.HASH_VERSION`).  A snapshot written
    under a *newer* mapping cannot be interpreted and is rejected; one
    written under an *older* mapping (or before the field existed) loads
    with a warning, because only sketches whose node IDs were non-ASCII
    ``bytes`` are affected by the v1 -> v2 change — rebuild such sketches
    from the stream instead of restoring them.
    """
    if document.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported sketch format version {document.get('format_version')!r}"
        )
    stored_hash_version = document.get("hash_version", 1)
    if stored_hash_version > HASH_VERSION:
        raise ValueError(
            f"snapshot was written under hash version {stored_hash_version}, "
            f"newer than this library's {HASH_VERSION}; upgrade the library "
            "to restore it"
        )
    if stored_hash_version < HASH_VERSION:
        warnings.warn(
            f"restoring a snapshot written under hash version "
            f"{stored_hash_version} (current {HASH_VERSION}): stored hashes "
            "for non-ASCII bytes node IDs no longer match hash_key — queries "
            "on such nodes will be wrong; rebuild the sketch from the stream "
            "if it used bytes node IDs",
            RuntimeWarning,
            stacklevel=2,
        )
    fields = dict(document["config"])
    fields.pop("scalar_tail_threshold", None)  # removed tuning knob; ignored
    config = GSSConfig(**fields)
    if backend is not None:
        config = replace(config, backend=backend)
    sketch = GSS(config)
    for entry in document["buckets"]:
        for room in entry["rooms"]:
            # _register_room keeps the backend's indexes in sync, so a
            # restored sketch queries exactly like the original.  It also
            # counts the rooms, making the stored matrix_edge_count purely
            # informational.
            sketch._register_room(entry["row"], entry["column"], list(room))
    sketch._update_count = document["update_count"]
    buffered = document["buffer"]
    # Both backends refuse a buffered edge hash that is not in [0, M) alike
    # (the native buffer keys its edges by the packed H(s) * M + H(d)).
    sketch._check_hashes(
        [edge["source"] for edge in buffered], [edge["destination"] for edge in buffered]
    )
    for edge in buffered:
        sketch.buffer.add(edge["source"], edge["destination"], edge["weight"])
    if "node_index" in document and sketch.node_index is not None:
        pairs = [(entry["raw"], entry["hash"]) for entry in document["node_index"]]
        # Both backends refuse a node hash that is not in [0, M) alike.
        sketch._check_hashes([node_hash for _, node_hash in pairs])
        sketch.node_index.record_new_many(pairs)
    return sketch


def save_sketch(sketch: GSS, path: Union[str, Path], include_node_index: bool = True) -> None:
    """Write a GSS snapshot to ``path`` as JSON."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(sketch_to_dict(sketch, include_node_index=include_node_index), handle)


def load_sketch(path: Union[str, Path], backend: Optional[str] = None) -> GSS:
    """Restore a GSS snapshot written by :func:`save_sketch`.

    ``backend`` optionally re-targets the restored sketch onto a different
    matrix backend (see :func:`sketch_from_dict`).
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        return sketch_from_dict(json.load(handle), backend=backend)
