"""Sharding a graph stream over partitioned GSS sketches (distributed style).

Run with::

    python examples/distributed_partition.py

The paper notes that GSS "can also be used in existing distributed graph
systems" (GraphX, PowerGraph, Pregel).  This example simulates that
deployment on one machine:

* the web-NotreDame analog stream is routed to 4 source-partitioned shards,
  each an independent GSS that a separate worker could own (the registry's
  ``partitioned-gss`` holds them in-process; ``sharded-gss`` runs the same
  deployment over worker processes);
* queries are answered through the sharded interface (edge and successor
  queries touch a single shard, precursor queries fan out);
* the shards are finally merged back into one summary for a central analyser,
  and the merged answers are checked against a monolithic sketch that saw the
  whole stream.
"""

from __future__ import annotations

from repro import GSS, GSSConfig, AdjacencyListGraph
from repro.api import StreamSession, build
from repro.core.merge import merge_sketches
from repro.datasets import load_dataset
from repro.metrics import average_precision
from repro.queries.primitives import consume_stream


def main() -> None:
    stream = load_dataset("web-NotreDame", scale=0.2)
    statistics = stream.statistics()
    print(f"stream '{stream.name}': {statistics.item_count} items, "
          f"{statistics.distinct_edges} distinct edges, {statistics.node_count} nodes")

    # 1. Shard the stream over 4 workers with the same total capacity a
    #    monolithic sketch would get.
    sharded = build(
        "partitioned-gss",
        expected_edges=statistics.distinct_edges,
        params={"partitions": 4, "sequence_length": 8, "candidate_buckets": 8},
    )
    StreamSession(sharded).feed(stream)
    print(f"4 shards of width {sharded.shards[0].config.matrix_width}, "
          f"total memory {sharded.memory_bytes() / 1024:.1f} KiB")
    print(f"shard loads (sketch edges): {sharded.shard_loads()}, "
          f"imbalance {sharded.load_imbalance():.2f}x")

    # 2. Query through the sharded interface and compare against ground truth.
    exact = consume_stream(AdjacencyListGraph(), stream)
    sample_nodes = stream.nodes()[:300]
    pairs = [
        (exact.successor_query(node), sharded.successor_query(node)) for node in sample_nodes
    ]
    print(f"1-hop successor precision over {len(sample_nodes)} nodes: "
          f"{average_precision(pairs):.4f}")

    # 3. Collapse the shards into a single summary for central analysis.
    merged = merge_sketches(sharded.shards)
    monolithic_config = GSSConfig.for_edge_count(
        statistics.distinct_edges, sequence_length=8, candidate_buckets=8
    )
    monolithic = GSS(monolithic_config).ingest(stream)
    agreement = 0
    checked = 0
    for source, destination in stream.distinct_edge_keys()[:500]:
        checked += 1
        merged_estimate = merged.edge_query(source, destination) or 0.0
        if merged_estimate >= (monolithic.edge_query(source, destination) or 0.0):
            agreement += 1
    print(f"merged-vs-monolithic edge estimates: {agreement}/{checked} merged answers "
          f"cover the monolithic estimate")


if __name__ == "__main__":
    main()
