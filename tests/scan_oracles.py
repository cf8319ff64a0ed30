"""Reference scans of a GSS matrix: the oracles for the backends' fast scans.

The functions read the matrix only through ``GSS._bucket_at``, compute
addresses from :mod:`repro.hashing.linear_congruence` themselves, and walk
every slot the paper's query would: the node's ``r`` full rows (or columns)
for a neighbour scan, all ``m * m`` buckets for reconstruction.  They rely
on no backend index, so the backends' indexed (python) and kernel (native)
scans must return exactly what they return.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.core.backends import (
    ROOM_DEST_FP,
    ROOM_DEST_INDEX,
    ROOM_SOURCE_FP,
    ROOM_SOURCE_INDEX,
    ROOM_WEIGHT,
)
from repro.core.gss import GSS
from repro.hashing.linear_congruence import address_sequence, recover_address


def addresses_of(sketch: GSS, node_hash: int) -> List[int]:
    """The square-hashing rows (columns) of ``node_hash``, from Equation 2
    directly rather than from either backend."""
    width = sketch.config.matrix_width
    base, fingerprint = divmod(node_hash, sketch.config.fingerprint_range)
    if not sketch.config.square_hashing:
        return [base % width]
    return address_sequence(
        base, fingerprint, sketch.config.sequence_length, width, sketch._lcg
    )


def neighbor_hashes_unindexed(sketch: GSS, node_hash: int, forward: bool) -> Set[int]:
    """``sketch._neighbor_hashes`` by a full ``r * m`` bucket scan plus the buffer."""
    width = sketch.config.matrix_width
    fingerprint_range = sketch.config.fingerprint_range
    fingerprint = node_hash % fingerprint_range
    found: Set[int] = set()

    own_fp_slot = ROOM_SOURCE_FP if forward else ROOM_DEST_FP
    own_index_slot = ROOM_SOURCE_INDEX if forward else ROOM_DEST_INDEX
    other_fp_slot = ROOM_DEST_FP if forward else ROOM_SOURCE_FP
    other_index_slot = ROOM_DEST_INDEX if forward else ROOM_SOURCE_INDEX

    for position, address in enumerate(addresses_of(sketch, node_hash)):
        expected_index = position + 1
        for offset in range(width):
            if forward:
                bucket = sketch._bucket_at(address, offset)
            else:
                bucket = sketch._bucket_at(offset, address)
            if bucket is None:
                continue
            for room in bucket:
                if room[own_fp_slot] != fingerprint:
                    continue
                if room[own_index_slot] != expected_index:
                    continue
                other_fp = room[other_fp_slot]
                if sketch.config.square_hashing:
                    other_base = recover_address(
                        offset, other_fp, room[other_index_slot], width, sketch._lcg
                    )
                else:
                    other_base = offset
                found.add(other_base * fingerprint_range + other_fp)

    if forward:
        found.update(sketch.buffer.successors_of(node_hash))
    else:
        found.update(sketch.buffer.precursors_of(node_hash))
    return found


def reconstruct_sketch_edges_unindexed(sketch: GSS) -> List[Tuple[int, int, float]]:
    """``sketch.reconstruct_sketch_edges()`` by a full ``m * m`` bucket scan."""
    width = sketch.config.matrix_width
    fingerprint_range = sketch.config.fingerprint_range
    edges: List[Tuple[int, int, float]] = []
    for row in range(width):
        for column in range(width):
            bucket = sketch._bucket_at(row, column)
            if bucket is None:
                continue
            for room in bucket:
                source_fp = room[ROOM_SOURCE_FP]
                destination_fp = room[ROOM_DEST_FP]
                if sketch.config.square_hashing:
                    source_base = recover_address(
                        row, source_fp, room[ROOM_SOURCE_INDEX], width, sketch._lcg
                    )
                    destination_base = recover_address(
                        column, destination_fp, room[ROOM_DEST_INDEX], width, sketch._lcg
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
    edges.extend(sketch.buffer.edges())
    return edges
