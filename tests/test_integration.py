"""End-to-end integration tests across the whole stack.

These mirror the three use cases from the paper's introduction: network
traffic monitoring, social-network analysis and data-center troubleshooting,
each exercising GSS against the exact ground truth through the public API.
"""

import pytest

from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import labeled_stream, unreachable_pairs
from repro.exact.adjacency_list import AdjacencyListGraph
from repro.metrics.accuracy import average_precision, average_relative_error
from repro.queries.node_query import node_out_weight
from repro.queries.primitives import consume_stream
from repro.queries.reachability import is_reachable
from repro.queries.subgraph import LabeledDiGraph, SubgraphMatcher
from repro.experiments.subgraph import random_walk_pattern
from repro.streaming.window import tumbling_windows


@pytest.fixture(scope="module")
def traffic_stream():
    return load_dataset("caida-networkflow", scale=0.05)


@pytest.fixture(scope="module")
def traffic_sketch(traffic_stream):
    statistics = traffic_stream.statistics()
    config = GSSConfig.for_edge_count(
        statistics.distinct_edges, sequence_length=8, candidate_buckets=8
    )
    return GSS(config).ingest(traffic_stream)


class TestNetworkTrafficUseCase:
    def test_edge_queries_are_accurate(self, traffic_stream, traffic_sketch):
        truth = traffic_stream.aggregate_weights()
        pairs = []
        for key, weight in list(truth.items())[:400]:
            estimate = traffic_sketch.edge_query(*key)
            assert estimate >= weight - 1e-9
            pairs.append((estimate, weight))
        assert average_relative_error(pairs) < 0.01

    def test_heavy_hitter_detection(self, traffic_stream, traffic_sketch):
        """Node queries find the top talkers of the traffic graph."""
        truth = traffic_stream.node_out_weights()
        top_talkers = sorted(truth, key=truth.get, reverse=True)[:5]
        for node in top_talkers:
            estimate = node_out_weight(traffic_sketch, node)
            assert estimate >= truth[node] - 1e-9
            assert estimate <= truth[node] * 1.2 + 1.0

    def test_memory_is_linear_in_edges(self, traffic_stream, traffic_sketch):
        statistics = traffic_stream.statistics()
        bytes_per_edge = traffic_sketch.memory_bytes() / statistics.distinct_edges
        assert bytes_per_edge < 40


class TestSocialNetworkUseCase:
    def test_potential_friends_via_successors(self):
        stream = load_dataset("lkml-reply", scale=0.05)
        statistics = stream.statistics()
        sketch = GSS(
            GSSConfig.for_edge_count(
                statistics.distinct_edges, sequence_length=8, candidate_buckets=8
            )
        ).ingest(stream)
        truth = stream.successors()
        nodes = stream.nodes()[:150]
        precision = average_precision(
            [(truth.get(node, set()), sketch.successor_query(node)) for node in nodes]
        )
        assert precision > 0.95

    def test_news_spreading_path_reachability(self):
        stream = load_dataset("lkml-reply", scale=0.05)
        statistics = stream.statistics()
        sketch = GSS(
            GSSConfig.for_edge_count(
                statistics.distinct_edges, sequence_length=8, candidate_buckets=8
            )
        ).ingest(stream)
        exact = consume_stream(AdjacencyListGraph(), stream)
        nodes = stream.nodes()
        source = nodes[0]
        reachable_truth = [node for node in nodes[:60] if is_reachable(exact, source, node)]
        for node in reachable_truth:
            assert is_reachable(sketch, source, node)
        for source_node, destination in unreachable_pairs(stream, 10, seed=3):
            assert not is_reachable(exact, source_node, destination)


class TestTroubleshootingUseCase:
    def test_windowed_pattern_search(self):
        stream = labeled_stream(load_dataset("web-NotreDame", scale=0.05), seed=1)
        labels = {edge.key: edge.label for edge in stream}
        windows = list(tumbling_windows(stream, 800))
        window = windows[0]
        statistics = window.statistics()
        sketch = GSS(
            GSSConfig.for_edge_count(
                statistics.distinct_edges, sequence_length=8, candidate_buckets=8
            )
        ).ingest(window)

        exact_graph = LabeledDiGraph.from_stream(window)
        sketch_graph = LabeledDiGraph.from_store(sketch, window.nodes(), labels)

        import random

        extracted = random_walk_pattern(exact_graph, 4, random.Random(9))
        assert extracted is not None
        pattern, _ = extracted
        embedding = SubgraphMatcher(sketch_graph).find_one(pattern)
        assert embedding is not None
        # every edge of the found embedding really happened in the window
        for edge in pattern.edges:
            assert exact_graph.has_edge(embedding[edge.source], embedding[edge.destination])

    def test_communication_log_edge_lookup(self):
        stream = load_dataset("web-NotreDame", scale=0.05)
        statistics = stream.statistics()
        sketch = GSS(
            GSSConfig.for_edge_count(
                statistics.distinct_edges, sequence_length=8, candidate_buckets=8
            )
        ).ingest(stream)
        truth = stream.aggregate_weights()
        present = list(truth)[:100]
        for key in present:
            assert sketch.edge_query(*key) is not None
        absent_queries = [("ghost-1", "ghost-2"), ("ghost-3", "ghost-4")]
        for source, destination in absent_queries:
            assert sketch.edge_query(source, destination) is None
