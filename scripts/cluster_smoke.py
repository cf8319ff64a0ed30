#!/usr/bin/env python
"""CI smoke for the ``repro.cluster`` subsystem.

Exercises the full production story on a small dataset, end to end:

1. build a 2-worker ``sharded-gss`` cluster through the ``repro.api`` factory
   and ingest the first half of the stream via :class:`StreamSession`;
2. checkpoint the cluster to disk and **hard-kill** the worker processes
   (crash simulation — no graceful flush after the checkpoint);
3. restore the cluster from the checkpoint, ingest the second half;
4. verify the resumed cluster answers every edge/successor/precursor/node
   query identically to an equivalently-sharded ``ShardedSummary`` with
   in-process shards (``partitioned-gss``) that saw the whole stream
   uninterrupted.

Exits non-zero (with a message) on any mismatch.  Runs in seconds.

Usage::

    PYTHONPATH=src python scripts/cluster_smoke.py [--workers 2] [--scale 0.05]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import SketchSpec, StreamSession, build  # noqa: E402
from repro.cluster import load_checkpoint, save_checkpoint  # noqa: E402
from repro.datasets.registry import load_dataset  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--dataset", default="email-EuAll")
    args = parser.parse_args(argv)

    stream = load_dataset(args.dataset, scale=args.scale)
    edges = list(stream)
    half = len(edges) // 2
    statistics = stream.statistics()
    expected = max(1, statistics.distinct_edges)
    print(
        f"dataset={args.dataset} scale={args.scale}: {len(edges)} items, "
        f"{expected} distinct edges, workers={args.workers}"
    )

    # The reference: an in-process sharded deployment with the same shard
    # count, shard configuration and routing seed, fed uninterrupted.
    reference = build(
        SketchSpec(
            "partitioned-gss",
            expected_edges=expected,
            params={"partitions": args.workers},
        )
    )
    StreamSession(reference).feed(edges)
    shard_config = reference.shards[0].config

    cluster_spec = SketchSpec(
        "sharded-gss",
        params={
            "workers": args.workers,
            "matrix_width": shard_config.matrix_width,
            "fingerprint_bits": shard_config.fingerprint_bits,
            "rooms": shard_config.rooms,
            "sequence_length": shard_config.sequence_length,
            "candidate_buckets": shard_config.candidate_buckets,
        },
    )
    cluster = build(cluster_spec)
    first_report = StreamSession(cluster).feed(edges[:half])
    print(
        f"ingested first half: {first_report.items} items, "
        f"shard_items={first_report.shard_items}, "
        f"queue_high_water={first_report.queue_depth_high_water}"
    )

    with tempfile.TemporaryDirectory(prefix="repro-cluster-smoke-") as directory:
        manifest = save_checkpoint(cluster, directory)
        print(f"checkpointed to {manifest}")
        cluster.kill()  # crash simulation: no graceful shutdown
        print("killed worker processes; restoring from checkpoint")
        restored = load_checkpoint(directory)

    second_report = StreamSession(restored).feed(edges[half:])
    print(f"resumed second half: {second_report.items} items")
    if restored.update_count != len(edges):
        print(
            f"FAIL: resumed update_count {restored.update_count} != {len(edges)}"
        )
        return 1

    truth = stream.aggregate_weights()
    mismatches = 0
    for (source, destination), _ in list(truth.items())[:500]:
        if restored.edge_query(source, destination) != reference.edge_query(
            source, destination
        ):
            mismatches += 1
    nodes = stream.nodes()[:200]
    for node in nodes:
        if restored.successor_query(node) != reference.successor_query(node):
            mismatches += 1
        if restored.precursor_query(node) != reference.precursor_query(node):
            mismatches += 1
        if restored.node_in_weight(node) != reference.node_in_weight(node):
            mismatches += 1
    restored.close()
    if mismatches:
        print(f"FAIL: {mismatches} answers differ from the uninterrupted reference")
        return 1
    print(
        f"OK: checkpoint/kill/restore/resume matches the uninterrupted "
        f"reference on {len(truth)} edges and {len(nodes)} nodes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
