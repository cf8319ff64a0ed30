"""Tests for the GSS ensemble and the weighted path queries."""

from __future__ import annotations

import pytest

from repro.core.config import GSSConfig
from repro.core.ensemble import GSSEnsemble
from repro.core.gss import GSS
from repro.exact.adjacency_list import AdjacencyListGraph
from repro.queries.weighted_paths import (
    dijkstra_distance,
    dijkstra_path,
    single_source_distances,
    widest_path_capacity,
)


def tight_config(**overrides) -> GSSConfig:
    defaults = dict(
        matrix_width=12, fingerprint_bits=6, sequence_length=4, candidate_buckets=4, seed=5
    )
    defaults.update(overrides)
    return GSSConfig(**defaults)


class TestEnsemble:
    def test_rejects_zero_members(self):
        with pytest.raises(ValueError):
            GSSEnsemble(tight_config(), sketches=0)

    def test_members_use_distinct_seeds(self):
        ensemble = GSSEnsemble(tight_config(), sketches=3)
        seeds = {member.config.seed for member in ensemble.members}
        assert len(seeds) == 3

    def test_edge_query_returns_minimum(self):
        ensemble = GSSEnsemble(tight_config(), sketches=3)
        ensemble.update("a", "b", 4.0)
        assert ensemble.edge_query("a", "b") == pytest.approx(4.0)

    def test_missing_edge(self):
        ensemble = GSSEnsemble(tight_config(), sketches=2)
        ensemble.update("a", "b")
        assert ensemble.edge_query("x", "y") is None

    def test_never_underestimates(self, small_stream):
        ensemble = GSSEnsemble(tight_config(matrix_width=24), sketches=2)
        ensemble.ingest(small_stream)
        truth = small_stream.aggregate_weights()
        for key, weight in list(truth.items())[:80]:
            assert ensemble.edge_query(*key) >= weight

    def test_no_false_negative_successors(self, small_stream):
        ensemble = GSSEnsemble(tight_config(matrix_width=24), sketches=2)
        ensemble.ingest(small_stream)
        successors = small_stream.successors()
        for node in list(successors)[:40]:
            assert successors[node] <= ensemble.successor_query(node)
            assert small_stream.precursors().get(node, set()) <= ensemble.precursor_query(node) | set()

    def test_ensemble_at_least_as_accurate_as_worst_member(self, small_stream):
        ensemble = GSSEnsemble(tight_config(matrix_width=16, fingerprint_bits=4), sketches=3)
        ensemble.ingest(small_stream)
        truth = small_stream.aggregate_weights()
        ensemble_error = 0.0
        worst_member_error = 0.0
        for key, weight in list(truth.items())[:100]:
            ensemble_error += ensemble.edge_query(*key) - weight
            worst_member_error = max(
                worst_member_error,
                sum(member.edge_query(*key) - weight for member in ensemble.members[:1]),
            )
        assert ensemble_error <= sum(
            member.edge_query(*key) - weight
            for member in ensemble.members[:1]
            for key, weight in list(truth.items())[:100]
        ) + 1e-6

    def test_node_weights_take_minimum(self):
        ensemble = GSSEnsemble(tight_config(), sketches=2)
        ensemble.update("a", "b", 2.0)
        ensemble.update("a", "c", 3.0)
        ensemble.update("z", "a", 4.0)
        assert ensemble.node_out_weight("a") >= 5.0
        assert ensemble.node_in_weight("a") >= 4.0

    def test_memory_scales_with_members(self):
        single = GSSEnsemble(tight_config(), sketches=1).memory_bytes()
        triple = GSSEnsemble(tight_config(), sketches=3).memory_bytes()
        assert triple == 3 * single

    def test_update_count_and_buffer_stats(self):
        ensemble = GSSEnsemble(tight_config(), sketches=2)
        for index in range(5):
            ensemble.update(f"s{index}", f"d{index}")
        assert ensemble.update_count == 5
        assert 0.0 <= ensemble.buffer_percentage <= 1.0


def weighted_store() -> AdjacencyListGraph:
    """a -> b (1), b -> c (1), a -> c (5), c -> d (2)."""
    store = AdjacencyListGraph()
    store.update("a", "b", 1.0)
    store.update("b", "c", 1.0)
    store.update("a", "c", 5.0)
    store.update("c", "d", 2.0)
    return store


class TestDijkstra:
    def test_prefers_cheaper_two_hop_path(self):
        assert dijkstra_distance(weighted_store(), "a", "c") == pytest.approx(2.0)

    def test_path_reconstruction(self):
        assert dijkstra_path(weighted_store(), "a", "c") == ["a", "b", "c"]

    def test_unreachable_returns_none(self):
        store = weighted_store()
        assert dijkstra_distance(store, "d", "a") is None
        assert dijkstra_path(store, "d", "a") is None

    def test_source_equals_destination(self):
        assert dijkstra_distance(weighted_store(), "a", "a") == 0.0
        assert dijkstra_path(weighted_store(), "a", "a") == ["a"]

    def test_single_source_distances(self):
        distances = single_source_distances(weighted_store(), "a")
        assert distances["d"] == pytest.approx(4.0)
        assert distances["b"] == pytest.approx(1.0)

    def test_max_nodes_cap(self):
        distances = single_source_distances(weighted_store(), "a", max_nodes=2)
        assert len(distances) == 2

    def test_rejects_negative_weights(self):
        store = AdjacencyListGraph()
        store.update("a", "b", -2.0)
        with pytest.raises(ValueError):
            dijkstra_distance(store, "a", "b")

    def test_on_sketch_never_misses_connectivity(self, small_stream):
        stats = small_stream.statistics()
        sketch = GSS(
            GSSConfig.for_edge_count(stats.distinct_edges, sequence_length=4, candidate_buckets=4)
        ).ingest(small_stream)
        exact = AdjacencyListGraph()
        for edge in small_stream:
            exact.update(edge.source, edge.destination, edge.weight)
        source = small_stream.nodes()[0]
        exact_distances = single_source_distances(exact, source, max_nodes=50)
        for node in exact_distances:
            assert dijkstra_distance(sketch, source, node, max_nodes=3000) is not None


class TestWidestPath:
    def test_direct_edge_capacity(self):
        assert widest_path_capacity(weighted_store(), "a", "c") == pytest.approx(5.0)

    def test_bottleneck_along_chain(self):
        assert widest_path_capacity(weighted_store(), "a", "d") == pytest.approx(2.0)

    def test_unreachable(self):
        assert widest_path_capacity(weighted_store(), "d", "a") is None

    def test_source_is_destination(self):
        assert widest_path_capacity(weighted_store(), "a", "a") == float("inf")
