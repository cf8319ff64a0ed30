"""Unit tests for the full (augmented) GSS of Section V."""

import pytest

from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.queries.primitives import consume_stream


def make_gss(width=32, bits=16, **overrides) -> GSS:
    defaults = dict(sequence_length=8, candidate_buckets=8)
    defaults.update(overrides)
    return GSS(GSSConfig(matrix_width=width, fingerprint_bits=bits, **defaults))


class TestGSSUpdateAndEdgeQuery:
    def test_single_edge_round_trip(self):
        sketch = make_gss()
        sketch.update("a", "b", 3.5)
        assert sketch.edge_query("a", "b") == 3.5

    def test_weights_accumulate(self):
        sketch = make_gss()
        sketch.update("a", "b", 1.0)
        sketch.update("a", "b", 2.0)
        sketch.update("a", "b", 0.5)
        assert sketch.edge_query("a", "b") == 3.5

    def test_deletion_via_negative_weight(self):
        sketch = make_gss()
        sketch.update("a", "b", 5.0)
        sketch.update("a", "b", -2.0)
        assert sketch.edge_query("a", "b") == 3.0

    def test_absent_edge_not_found(self):
        sketch = make_gss()
        sketch.update("a", "b", 1.0)
        assert sketch.edge_query("nope", "way") is None

    def test_direction_matters(self):
        sketch = make_gss()
        sketch.update("a", "b", 1.0)
        assert sketch.edge_query("b", "a") is None

    def test_never_underestimates_on_real_stream(self, small_stream, small_gss):
        truth = small_stream.aggregate_weights()
        for key, weight in truth.items():
            assert small_gss.edge_query(*key) >= weight - 1e-9

    def test_update_count_tracked(self, small_stream, small_gss):
        assert small_gss.update_count == len(small_stream)

    def test_exactness_on_paper_example(self, paper_stream):
        sketch = make_gss(width=8, bits=16)
        sketch.ingest(paper_stream)
        for key, weight in paper_stream.aggregate_weights().items():
            assert sketch.edge_query(*key) == weight


class TestGSSNeighborQueries:
    def test_successors_superset_of_truth(self, small_stream, small_gss):
        truth = small_stream.successors()
        for node in list(truth)[:80]:
            assert truth[node] <= small_gss.successor_query(node)

    def test_precursors_superset_of_truth(self, small_stream, small_gss):
        truth = small_stream.precursors()
        for node in list(truth)[:80]:
            assert truth[node] <= small_gss.precursor_query(node)

    def test_high_precision_with_16_bit_fingerprints(self, small_stream, small_gss):
        from repro.metrics.accuracy import average_precision

        truth = small_stream.successors()
        nodes = small_stream.nodes()[:120]
        pairs = [(truth.get(node, set()), small_gss.successor_query(node)) for node in nodes]
        assert average_precision(pairs) > 0.95

    def test_unknown_node_has_no_neighbors(self, small_gss):
        assert small_gss.successor_query("definitely-not-a-node") == set()

    def test_hash_level_queries_without_index(self, paper_stream):
        sketch = make_gss(width=8, keep_node_index=False)
        sketch.ingest(paper_stream)
        assert sketch.successor_hashes("a")  # hashes are available
        with pytest.raises(RuntimeError):
            sketch.successor_query("a")

    def test_node_weights_match_exact(self, paper_stream):
        sketch = make_gss(width=8)
        sketch.ingest(paper_stream)
        out_truth = paper_stream.node_out_weights()
        for node, weight in out_truth.items():
            assert sketch.node_out_weight(node) >= weight - 1e-9
        in_truth = {}
        for (source, destination), weight in paper_stream.aggregate_weights().items():
            in_truth[destination] = in_truth.get(destination, 0.0) + weight
        for node, weight in in_truth.items():
            assert sketch.node_in_weight(node) >= weight - 1e-9


class TestGSSVariants:
    @pytest.mark.parametrize("rooms", [1, 2, 3])
    @pytest.mark.parametrize("square_hashing", [True, False])
    def test_all_variants_answer_queries(self, paper_stream, rooms, square_hashing):
        sketch = make_gss(width=8, rooms=rooms, square_hashing=square_hashing)
        sketch.ingest(paper_stream)
        truth = paper_stream.aggregate_weights()
        for key, weight in truth.items():
            assert sketch.edge_query(*key) >= weight
        successors = paper_stream.successors()
        for node in successors:
            assert successors[node] <= sketch.successor_query(node)

    def test_no_sampling_variant(self, paper_stream):
        sketch = make_gss(width=8, sampling=False)
        sketch.ingest(paper_stream)
        for key, weight in paper_stream.aggregate_weights().items():
            assert sketch.edge_query(*key) == weight

    def test_square_hashing_reduces_buffer(self, medium_stream):
        stats = medium_stream.statistics()
        width = max(4, int((stats.distinct_edges / 2) ** 0.5))
        with_square = make_gss(width=width, rooms=2, square_hashing=True)
        without_square = make_gss(width=width, rooms=2, square_hashing=False)
        with_square.ingest(medium_stream)
        without_square.ingest(medium_stream)
        assert with_square.buffer_edge_count <= without_square.buffer_edge_count

    def test_more_rooms_reduce_buffer(self, medium_stream):
        stats = medium_stream.statistics()
        width = max(4, int((stats.distinct_edges / 2) ** 0.5))
        one_room = make_gss(width=width, rooms=1)
        two_rooms = make_gss(width=width, rooms=2)
        one_room.ingest(medium_stream)
        two_rooms.ingest(medium_stream)
        assert two_rooms.buffer_edge_count <= one_room.buffer_edge_count

    def test_buffer_edges_remain_queryable(self, medium_stream):
        # Deliberately undersized matrix: many edges must go to the buffer,
        # but every edge stays answerable and never under-estimated.
        sketch = make_gss(width=10, rooms=1)
        sketch.ingest(medium_stream)
        assert sketch.buffer_edge_count > 0
        truth = medium_stream.aggregate_weights()
        for key, weight in list(truth.items())[:200]:
            assert sketch.edge_query(*key) >= weight - 1e-9


class TestGSSIntrospection:
    def test_occupancy_and_counts(self, small_gss, small_stream):
        stats = small_stream.statistics()
        stored = small_gss.matrix_edge_count + small_gss.buffer_edge_count
        assert stored <= stats.distinct_edges
        assert 0 < small_gss.occupancy() <= 1.0
        assert 0 <= small_gss.buffer_percentage <= 1.0

    def test_memory_accounting(self, small_gss):
        base = small_gss.memory_bytes()
        with_index = small_gss.memory_bytes(include_node_index=True)
        assert with_index >= base
        assert base >= small_gss.config.matrix_memory_bytes()

    def test_reconstruct_sketch_edges(self, paper_stream):
        sketch = make_gss(width=8)
        sketch.ingest(paper_stream)
        reconstructed = sketch.reconstruct_sketch_edges()
        # Every streaming-graph edge must appear (via its hashes) with a
        # weight at least as large as the truth.
        truth = paper_stream.aggregate_weights()
        weights = {}
        for source_hash, destination_hash, weight in reconstructed:
            weights[(source_hash, destination_hash)] = weights.get(
                (source_hash, destination_hash), 0.0
            ) + weight
        for (source, destination), weight in truth.items():
            key = (sketch.node_hash(source), sketch.node_hash(destination))
            assert key in weights
            assert weights[key] >= weight

    def test_node_index_exposed(self, small_gss):
        assert small_gss.node_index is not None
        assert len(small_gss.node_index) > 0

    def test_ingest_returns_self(self, paper_stream):
        sketch = make_gss()
        assert sketch.ingest(paper_stream) is sketch
