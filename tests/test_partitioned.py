"""Tests for the source-partitioned (sharded) GSS deployment."""

from __future__ import annotations

import pytest

from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.core.partitioned import PartitionedGSS
from repro.queries.primitives import consume_stream
from repro.queries.reachability import is_reachable


def make_partitioned(partitions: int = 4, width: int = 24) -> PartitionedGSS:
    config = GSSConfig(matrix_width=width, sequence_length=4, candidate_buckets=4)
    return PartitionedGSS(config, partitions=partitions)


class TestConstruction:
    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            PartitionedGSS(GSSConfig(matrix_width=8), partitions=0)

    def test_for_total_capacity_sizes_shards(self):
        sharded = PartitionedGSS.for_total_capacity(4000, partitions=4)
        total_rooms = sum(
            shard.config.matrix_width ** 2 * shard.config.rooms for shard in sharded.shards
        )
        assert total_rooms >= 4000
        assert sharded.partitions == 4

    def test_for_total_capacity_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            PartitionedGSS.for_total_capacity(0)


class TestRoutingAndQueries:
    def test_update_routes_to_single_shard(self):
        sharded = make_partitioned()
        sharded.update("a", "b", 2.0)
        populated = [shard for shard in sharded.shards if shard.update_count > 0]
        assert len(populated) == 1

    def test_routing_is_deterministic(self):
        sharded = make_partitioned()
        assert sharded.shard_of("node-1") == sharded.shard_of("node-1")

    def test_edge_query_matches_monolithic(self, small_stream):
        sharded = make_partitioned(partitions=3, width=40)
        consume_stream(sharded, small_stream)
        truth = small_stream.aggregate_weights()
        for (source, destination), weight in list(truth.items())[:100]:
            assert sharded.edge_query(source, destination) >= weight

    def test_successor_query_covers_truth(self, small_stream):
        sharded = make_partitioned(partitions=3, width=40)
        consume_stream(sharded, small_stream)
        successors = small_stream.successors()
        for node in list(successors)[:50]:
            assert successors[node] <= sharded.successor_query(node)

    def test_precursor_query_fans_out(self, small_stream):
        sharded = make_partitioned(partitions=3, width=40)
        consume_stream(sharded, small_stream)
        precursors = small_stream.precursors()
        for node in list(precursors)[:50]:
            assert precursors[node] <= sharded.precursor_query(node)

    def test_missing_edge(self):
        sharded = make_partitioned()
        sharded.update("a", "b")
        assert sharded.edge_query("nope", "nothing") is None

    def test_node_weights(self):
        sharded = make_partitioned()
        sharded.update("a", "b", 2.0)
        sharded.update("a", "c", 3.0)
        sharded.update("z", "a", 7.0)
        assert sharded.node_out_weight("a") == pytest.approx(5.0)
        assert sharded.node_in_weight("a") == pytest.approx(7.0)

    def test_compound_queries_run_on_partitioned(self):
        sharded = make_partitioned()
        sharded.update("a", "b")
        sharded.update("b", "c")
        assert is_reachable(sharded, "a", "c")


class TestLoadAndMerge:
    def test_shard_loads_and_imbalance(self, small_stream):
        sharded = make_partitioned(partitions=4, width=40)
        consume_stream(sharded, small_stream)
        loads = sharded.shard_loads()
        assert len(loads) == 4
        assert sum(loads) == sharded.matrix_edge_count + sharded.buffer_edge_count
        assert sharded.load_imbalance() >= 1.0

    def test_load_imbalance_on_empty_is_one(self):
        assert make_partitioned().load_imbalance() == 1.0

    def test_update_count_accumulates(self):
        sharded = make_partitioned()
        for index in range(10):
            sharded.update(f"s{index}", f"d{index}")
        assert sharded.update_count == 10

    def test_memory_is_sum_of_shards(self):
        sharded = make_partitioned(partitions=2)
        expected = sum(shard.memory_bytes() for shard in sharded.shards)
        assert sharded.memory_bytes() == expected

    def test_merge_into_single_preserves_edge_weights(self, small_stream):
        sharded = make_partitioned(partitions=3, width=40)
        consume_stream(sharded, small_stream)
        merged = sharded.merge_into_single()
        assert isinstance(merged, GSS)
        truth = small_stream.aggregate_weights()
        for (source, destination), weight in list(truth.items())[:100]:
            assert merged.edge_query(source, destination) >= weight

    def test_merge_rejects_incompatible_config(self):
        sharded = make_partitioned()
        sharded.update("a", "b")
        other = GSSConfig(matrix_width=99, sequence_length=4, candidate_buckets=4)
        with pytest.raises(ValueError):
            sharded.merge_into_single(other)

    def test_buffer_percentage_bounds(self, small_stream):
        sharded = make_partitioned(partitions=2, width=40)
        consume_stream(sharded, small_stream)
        assert 0.0 <= sharded.buffer_percentage <= 1.0


class TestZeroUpdateShardStats:
    """Stats must be well-defined when some (or all) shards saw no updates."""

    def test_all_stats_safe_on_a_fresh_deployment(self):
        sharded = make_partitioned(partitions=4)
        assert sharded.load_imbalance() == 1.0
        assert sharded.buffer_percentage == 0.0
        assert sharded.shard_buffer_percentages() == [0.0, 0.0, 0.0, 0.0]
        stats = sharded.shard_ingest_stats()
        assert stats.items_routed == [0, 0, 0, 0]
        assert stats.routing_imbalance == 1.0
        assert stats.total_items == 0

    def test_single_routed_shard_leaves_others_at_zero(self):
        sharded = make_partitioned(partitions=4)
        sharded.update("only-source", "a")
        sharded.update("only-source", "b")
        stats = sharded.shard_ingest_stats()
        assert stats.total_items == 2
        assert sorted(stats.items_routed) == [0, 0, 0, 2]
        # The zero-update shards must not break any derived ratio.
        assert stats.routing_imbalance == pytest.approx(4.0)
        assert sharded.load_imbalance() >= 1.0
        percentages = sharded.shard_buffer_percentages()
        assert len(percentages) == 4
        assert all(0.0 <= pct <= 1.0 for pct in percentages)

    def test_items_routed_tracks_both_update_paths(self, small_stream):
        sharded = make_partitioned(partitions=3, width=40)
        half = len(small_stream) // 2
        for edge in small_stream[:half]:
            sharded.update(edge.source, edge.destination, edge.weight)
        sharded.update_many(
            (edge.source, edge.destination, edge.weight)
            for edge in small_stream[half:]
        )
        stats = sharded.shard_ingest_stats()
        assert stats.total_items == len(small_stream) == sharded.update_count
        assert stats.queue_depth_high_water == 0  # synchronous deployment


class TestMemoryParity:
    def test_matrix_memory_bytes_totals_the_deployment(self):
        sharded = make_partitioned(partitions=3)
        assert sharded.matrix_memory_bytes() == sum(
            shard.config.matrix_memory_bytes() for shard in sharded.shards
        )
        # The per-shard config accounts one shard only; the deployment-level
        # accessor is what equal-memory comparisons must use.
        assert sharded.matrix_memory_bytes() == 3 * sharded.config.matrix_memory_bytes()

    def test_factory_budget_lands_near_the_requested_bytes(self):
        from repro.api import build

        budget = 64 * 1024
        sharded = build("partitioned-gss", memory_bytes=budget, params={"partitions": 4})
        assert budget / 2 <= sharded.memory_bytes() <= budget
        assert budget / 2 <= sharded.matrix_memory_bytes() <= budget

    def test_memory_bytes_include_node_index_parity_with_gss(self):
        sharded = make_partitioned(partitions=2)
        sharded.update("a", "b")
        with_index = sharded.memory_bytes(include_node_index=True)
        without = sharded.memory_bytes()
        assert with_index >= without
        assert without == sum(shard.memory_bytes() for shard in sharded.shards)
