"""Merging independently built GSS sketches.

Distributed and parallel deployments (the GraphX / PowerGraph / Pregel setting
the paper's introduction points at) build partial summaries on different
workers and later need one combined summary.  Because GSS stores the graph
sketch ``Gh`` losslessly for a fixed node-hash function (Theorem 1), two
sketches built with *compatible* configurations — same node-hash seed and the
same hash range ``M = m * F`` — can be merged by replaying the edges recovered
from one sketch into the other; the result is identical to a sketch that had
seen the concatenated stream, up to the placement of left-over edges.

This module provides the compatibility check and the merge itself, plus a
convenience that merges many sketches in one pass.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.config import GSSConfig
from repro.core.gss import GSS


def compatible_for_merge(first: GSSConfig, second: GSSConfig) -> bool:
    """True when two configurations produce mergeable sketches.

    Mergeability only requires that both sketches agree on the node-hash
    function — the same ``seed`` and the same value range
    ``M = matrix_width * F`` — and split hashes into addresses and
    fingerprints the same way (same ``fingerprint_bits``).  The square-hashing
    parameters (``r``, ``k``, rooms) may differ: they only affect *where*
    inside the matrix an edge lands, not what the edge means.
    """
    return (
        first.seed == second.seed
        and first.fingerprint_bits == second.fingerprint_bits
        and first.matrix_width == second.matrix_width
    )


def merge_into(target: GSS, source: GSS) -> GSS:
    """Replay every sketch edge of ``source`` into ``target`` and return it.

    Raises ``ValueError`` when the two sketches were built with incompatible
    node-hash parameters (see :func:`compatible_for_merge`).  The weights of
    sketch edges present in both inputs are summed, matching the streaming
    graph semantics of concatenating the two input streams.
    """
    if not compatible_for_merge(target.config, source.config):
        raise ValueError(
            "cannot merge: sketches use different node-hash parameters "
            f"(target seed={target.config.seed}, width={target.config.matrix_width}, "
            f"fp_bits={target.config.fingerprint_bits}; "
            f"source seed={source.config.seed}, width={source.config.matrix_width}, "
            f"fp_bits={source.config.fingerprint_bits})"
        )
    target.update_many_by_hash(source.reconstruct_sketch_edges())
    if source.node_index is not None and target.node_index is not None:
        target.node_index.record_new_many(source.node_index.items())
    return target


def merge_sketches(sketches: Iterable[GSS], config: GSSConfig = None) -> GSS:
    """Merge several sketches into a fresh one and return it.

    ``config`` defaults to the configuration of the first sketch.  All inputs
    must be pairwise compatible (same node-hash parameters).
    """
    pending: List[GSS] = list(sketches)
    if not pending:
        raise ValueError("merge_sketches needs at least one sketch")
    merged_config = config if config is not None else pending[0].config
    merged = GSS(merged_config)
    for sketch in pending:
        merge_into(merged, sketch)
    return merged
