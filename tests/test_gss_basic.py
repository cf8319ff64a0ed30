"""Unit tests for the basic GSS of Section IV."""

import pytest

from repro.core.basic import GSSBasic
from repro.queries.primitives import consume_stream


class TestGSSBasicConstruction:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            GSSBasic(matrix_width=0)

    def test_rejects_bad_fingerprint_bits(self):
        with pytest.raises(ValueError):
            GSSBasic(matrix_width=4, fingerprint_bits=0)

    def test_hash_range_is_width_times_fingerprint_range(self):
        sketch = GSSBasic(matrix_width=8, fingerprint_bits=8)
        assert sketch.hash_range == 8 * 256
        assert 0 <= sketch.node_hash("anything") < sketch.hash_range


class TestGSSBasicQueries:
    def test_edge_query_never_underestimates(self, paper_stream):
        sketch = consume_stream(GSSBasic(matrix_width=8, fingerprint_bits=8), paper_stream)
        for key, weight in paper_stream.aggregate_weights().items():
            assert sketch.edge_query(*key) >= weight

    def test_absent_edge_usually_not_found(self):
        sketch = GSSBasic(matrix_width=32, fingerprint_bits=16)
        sketch.update("a", "b", 1.0)
        assert sketch.edge_query("x", "y") is None

    def test_duplicate_edges_aggregate(self):
        sketch = GSSBasic(matrix_width=16, fingerprint_bits=12)
        sketch.update("a", "b", 1.0)
        sketch.update("a", "b", 4.0)
        assert sketch.edge_query("a", "b") == 5.0

    def test_successors_are_superset_of_truth(self, paper_stream):
        sketch = consume_stream(GSSBasic(matrix_width=8, fingerprint_bits=8), paper_stream)
        truth = paper_stream.successors()
        for node, successors in truth.items():
            assert successors <= sketch.successor_query(node)

    def test_precursors_are_superset_of_truth(self, paper_stream):
        sketch = consume_stream(GSSBasic(matrix_width=8, fingerprint_bits=8), paper_stream)
        truth = paper_stream.precursors()
        for node, precursors in truth.items():
            assert precursors <= sketch.precursor_query(node)

    def test_buffer_used_on_collision(self):
        # A 1x1 matrix forces every second distinct edge into the buffer.
        sketch = GSSBasic(matrix_width=1, fingerprint_bits=8)
        sketch.update("a", "b", 1.0)
        sketch.update("c", "d", 2.0)
        sketch.update("e", "f", 3.0)
        assert sketch.buffer_edge_count >= 1
        assert sketch.buffer_percentage > 0
        # buffered edges are still answerable
        assert sketch.edge_query("c", "d") >= 2.0
        assert sketch.edge_query("e", "f") >= 3.0

    def test_node_index_required_for_original_ids(self):
        sketch = GSSBasic(matrix_width=8, keep_node_index=False)
        sketch.update("a", "b")
        with pytest.raises(RuntimeError):
            sketch.successor_query("a")

    def test_memory_model_positive(self):
        sketch = GSSBasic(matrix_width=8, fingerprint_bits=16)
        assert sketch.memory_bytes() == 8 * 8 * (2 * 16 + 32) // 8

    def test_matrix_edge_count(self, paper_stream):
        sketch = consume_stream(GSSBasic(matrix_width=16, fingerprint_bits=12), paper_stream)
        stored = sketch.matrix_edge_count + sketch.buffer_edge_count
        # 11 distinct streaming-graph edges, minus possible sketch collisions.
        assert 9 <= stored <= 11
