"""Unit tests for the compound query layer (node, reachability, triangle,
reconstruction) over both exact stores and sketches."""

import pytest

from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.exact.adjacency_list import AdjacencyListGraph
from repro.queries.node_query import node_in_weight, node_out_weight
from repro.queries.primitives import (
    NO_NEIGHBORS,
    as_paper_result,
    consume_stream,
)
from repro.queries.reachability import is_reachable, reachable_set
from repro.queries.reconstruction import reconstruct_graph
from repro.queries.triangle import (
    count_triangles,
    count_triangles_in_adjacency,
    undirected_neighbors,
)
from repro.streaming.edge import StreamEdge
from repro.streaming.stream import GraphStream


@pytest.fixture()
def exact_store(paper_stream):
    return consume_stream(AdjacencyListGraph(), paper_stream)


@pytest.fixture()
def gss_store(paper_stream):
    sketch = GSS(GSSConfig(matrix_width=8, fingerprint_bits=16, sequence_length=4, candidate_buckets=4))
    sketch.ingest(paper_stream)
    return sketch


class TestPrimitivesHelpers:
    def test_as_paper_result(self):
        assert as_paper_result(set()) == set(NO_NEIGHBORS)
        assert as_paper_result({"x"}) == {"x"}

    def test_consume_stream_returns_store(self, paper_stream):
        store = AdjacencyListGraph()
        assert consume_stream(store, paper_stream) is store


class TestNodeQueries:
    def test_exact_out_weight(self, exact_store, paper_stream):
        truth = paper_stream.node_out_weights()
        for node, weight in truth.items():
            assert node_out_weight(exact_store, node) == weight

    def test_gss_out_weight_never_underestimates(self, gss_store, paper_stream):
        truth = paper_stream.node_out_weights()
        for node, weight in truth.items():
            assert node_out_weight(gss_store, node) >= weight - 1e-9

    def test_in_weight(self, exact_store, paper_stream):
        in_truth = {}
        for (source, destination), weight in paper_stream.aggregate_weights().items():
            in_truth[destination] = in_truth.get(destination, 0.0) + weight
        for node, weight in in_truth.items():
            assert node_in_weight(exact_store, node) == weight

    def test_composed_fallback_matches_native(self, exact_store):
        class Wrapper:
            """Store without a native node_out_weight."""

            def __init__(self, inner):
                self._inner = inner

            def update(self, *args):
                raise NotImplementedError

            def edge_query(self, source, destination):
                return self._inner.edge_query(source, destination)

            def successor_query(self, node):
                return self._inner.successor_query(node)

            def precursor_query(self, node):
                return self._inner.precursor_query(node)

        wrapped = Wrapper(exact_store)
        assert node_out_weight(wrapped, "a") == exact_store.node_out_weight("a")
        assert node_in_weight(wrapped, "f") == exact_store.node_in_weight("f")


class TestReachability:
    def test_direct_edge(self, exact_store):
        assert is_reachable(exact_store, "a", "b")

    def test_multi_hop(self, exact_store):
        # a -> b -> d -> f exists in the Figure 1 graph
        assert is_reachable(exact_store, "a", "d")
        assert is_reachable(exact_store, "b", "f")

    def test_self_reachability(self, exact_store):
        assert is_reachable(exact_store, "g", "g")

    def test_unreachable(self, exact_store):
        # g has no out-going edges in the Figure 1 graph
        assert not is_reachable(exact_store, "g", "a")

    def test_reachable_set(self, exact_store):
        assert reachable_set(exact_store, "g") == {"g"}
        assert "f" in reachable_set(exact_store, "a")

    def test_max_nodes_cap(self, exact_store):
        assert reachable_set(exact_store, "a", max_nodes=1) == {"a"}

    def test_gss_has_no_false_negatives(self, gss_store, exact_store, paper_stream):
        nodes = paper_stream.nodes()
        for source in nodes:
            for destination in nodes:
                if is_reachable(exact_store, source, destination):
                    assert is_reachable(gss_store, source, destination)


class TestTriangles:
    def test_count_on_known_graph(self):
        stream = GraphStream(
            [
                StreamEdge("a", "b"),
                StreamEdge("b", "c"),
                StreamEdge("c", "a"),
                StreamEdge("c", "d"),
            ]
        )
        store = consume_stream(AdjacencyListGraph(), stream)
        assert count_triangles(store, stream.nodes()) == 1

    def test_direction_is_ignored(self):
        stream = GraphStream(
            [StreamEdge("a", "b"), StreamEdge("c", "b"), StreamEdge("a", "c")]
        )
        store = consume_stream(AdjacencyListGraph(), stream)
        assert count_triangles(store, stream.nodes()) == 1

    def test_no_triangles(self):
        stream = GraphStream([StreamEdge("a", "b"), StreamEdge("b", "c")])
        store = consume_stream(AdjacencyListGraph(), stream)
        assert count_triangles(store, stream.nodes()) == 0

    def test_adjacency_helper_restricted_to_nodes(self, exact_store):
        adjacency = undirected_neighbors(exact_store, ["a", "b"])
        assert set(adjacency) == {"a", "b"}
        assert adjacency["a"] == {"b"}

    def test_count_in_adjacency_counts_each_once(self):
        adjacency = {
            "a": {"b", "c"},
            "b": {"a", "c"},
            "c": {"a", "b"},
        }
        assert count_triangles_in_adjacency(adjacency) == 1

    def test_gss_matches_exact_on_paper_graph(self, gss_store, exact_store, paper_stream):
        nodes = paper_stream.nodes()
        assert count_triangles(gss_store, nodes) >= count_triangles(exact_store, nodes)


class TestReconstruction:
    def test_exact_reconstruction(self, exact_store, paper_stream):
        rebuilt = reconstruct_graph(exact_store, paper_stream.nodes())
        assert rebuilt == paper_stream.aggregate_weights()

    def test_gss_reconstruction_is_superset(self, gss_store, paper_stream):
        rebuilt = reconstruct_graph(gss_store, paper_stream.nodes())
        truth = paper_stream.aggregate_weights()
        for key, weight in truth.items():
            assert key in rebuilt
            assert rebuilt[key] >= weight - 1e-9
