"""Extension experiment — partitioned (distributed-style) GSS deployment.

The paper claims GSS drops into distributed graph systems.  This experiment
shards the stream over 1 / 2 / 4 / 8 source-partitioned shards of equal total
capacity and measures what sharding costs:

* edge-query ARE and successor precision against the exact streaming graph;
* load imbalance across shards (source-cut routing follows node popularity);
* buffer percentage (smaller shards congest slightly differently);
* total memory, held approximately constant across partition counts.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig, load_streams
from repro.experiments.report import ExperimentResult
from repro.metrics.accuracy import average_precision, average_relative_error
from repro.queries.primitives import edge_weight_or_zero


def run_partition_experiment(config: ExperimentConfig = None) -> ExperimentResult:
    """Accuracy and balance of in-process ``partitioned-gss`` deployments
    for several shard counts."""
    config = config or ExperimentConfig()
    fingerprint_bits = max(config.fingerprint_bits)
    partition_counts = config.extras.get("partition_counts", (1, 2, 4, 8))
    result = ExperimentResult(
        experiment="partition",
        description="source-partitioned GSS: accuracy, balance and memory vs shard count",
        columns=[
            "dataset",
            "partitions",
            "edge_are",
            "successor_precision",
            "load_imbalance",
            "buffer_pct",
            "memory_bytes",
        ],
    )
    for name, stream in load_streams(config):
        statistics = stream.statistics()
        truth_weights = stream.aggregate_weights()
        truth_successors = stream.successors()
        edge_sample = config.sample_items(list(truth_weights.items()))
        node_sample = config.sample_items(list(truth_successors.items()))
        for partitions in partition_counts:
            sharded = config.build_sketch(
                "partitioned-gss",
                memory_bytes=None,
                expected_edges=max(1, statistics.distinct_edges),
                partitions=partitions,
                fingerprint_bits=fingerprint_bits,
                sequence_length=config.sequence_length,
                candidate_buckets=config.candidate_buckets,
            )
            config.feed(sharded, stream)

            edge_pairs = [
                (edge_weight_or_zero(sharded, *key), true_weight)
                for key, true_weight in edge_sample
            ]
            successor_pairs = [
                (true_set, sharded.successor_query(node)) for node, true_set in node_sample
            ]

            result.add(
                dataset=name,
                partitions=partitions,
                edge_are=average_relative_error(edge_pairs),
                successor_precision=average_precision(successor_pairs),
                load_imbalance=sharded.load_imbalance(),
                buffer_pct=sharded.buffer_percentage,
                memory_bytes=sharded.memory_bytes(),
            )
    return result
