"""Tests for stream perturbations (robustness / failure-injection workloads)."""

from __future__ import annotations

import pytest

from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.datasets.generators import erdos_renyi_stream
from repro.datasets.perturbations import (
    adversarial_single_row_stream,
    apply_chain,
    burst_stream,
    inject_deletions,
    inject_duplicates,
    relabel_nodes,
    shuffle_stream,
)


@pytest.fixture()
def base_stream():
    return erdos_renyi_stream(60, 200, seed=21)


class TestInjectDuplicates:
    def test_increases_item_count(self, base_stream):
        noisy = inject_duplicates(base_stream, duplication_factor=1.0)
        assert len(noisy) == 2 * len(base_stream)

    def test_zero_factor_is_identity_length(self, base_stream):
        assert len(inject_duplicates(base_stream, 0.0)) == len(base_stream)

    def test_does_not_add_new_edges(self, base_stream):
        noisy = inject_duplicates(base_stream, 1.5)
        assert set(noisy.distinct_edge_keys()) == set(base_stream.distinct_edge_keys())

    def test_original_untouched(self, base_stream):
        before = len(base_stream)
        inject_duplicates(base_stream, 2.0)
        assert len(base_stream) == before

    def test_rejects_negative_factor(self, base_stream):
        with pytest.raises(ValueError):
            inject_duplicates(base_stream, -0.5)


class TestInjectDeletions:
    def test_deletions_cancel_weight_in_sketch(self, base_stream):
        deleted = inject_deletions(base_stream, deletion_fraction=1.0)
        stats = base_stream.statistics()
        sketch = GSS(GSSConfig.for_edge_count(stats.distinct_edges, sequence_length=4, candidate_buckets=4))
        sketch.ingest(deleted)
        truth = deleted.aggregate_weights()
        zeroed = [key for key, weight in truth.items() if weight == 0.0]
        assert zeroed
        for key in zeroed[:20]:
            estimate = sketch.edge_query(*key)
            assert estimate is not None and estimate >= 0.0

    def test_fraction_zero_adds_nothing(self, base_stream):
        assert len(inject_deletions(base_stream, 0.0)) == len(base_stream)

    def test_negative_items_marked_as_deletions(self, base_stream):
        deleted = inject_deletions(base_stream, 0.5, seed=3)
        assert any(edge.is_deletion() for edge in deleted)

    def test_rejects_out_of_range_fraction(self, base_stream):
        with pytest.raises(ValueError):
            inject_deletions(base_stream, 1.5)


class TestShuffleAndBurst:
    def test_shuffle_preserves_multiset(self, base_stream):
        shuffled = shuffle_stream(base_stream, seed=5)
        assert sorted(e.key for e in shuffled) == sorted(e.key for e in base_stream)

    def test_shuffle_reassigns_timestamps(self, base_stream):
        shuffled = shuffle_stream(base_stream, seed=5)
        timestamps = [edge.timestamp for edge in shuffled]
        assert timestamps == sorted(timestamps)

    def test_burst_adds_items(self, base_stream):
        bursty = burst_stream(base_stream, burst_size=50)
        assert len(bursty) == len(base_stream) + 50

    def test_burst_concentrates_on_one_edge(self, base_stream):
        bursty = burst_stream(base_stream, burst_edge_index=0, burst_size=80)
        target = base_stream.distinct_edge_keys()[0]
        occurrences = sum(1 for edge in bursty if edge.key == target)
        assert occurrences >= 80

    def test_burst_on_empty_stream(self):
        from repro.streaming.stream import GraphStream

        assert len(burst_stream(GraphStream([]), burst_size=10)) == 0

    def test_burst_rejects_negative_size(self, base_stream):
        with pytest.raises(ValueError):
            burst_stream(base_stream, burst_size=-1)


class TestAdversarialRow:
    def test_all_edges_share_source(self):
        stream = adversarial_single_row_stream(100)
        assert all(edge.source == "hub" for edge in stream)
        assert len(stream) == 100

    def test_square_hashing_reduces_buffer_on_adversarial_stream(self):
        stream = adversarial_single_row_stream(400)
        config_plain = GSSConfig(
            matrix_width=24, rooms=1, square_hashing=False, sequence_length=8, candidate_buckets=8
        )
        config_square = GSSConfig(
            matrix_width=24, rooms=1, square_hashing=True, sequence_length=8, candidate_buckets=8
        )
        plain = GSS(config_plain).ingest(stream)
        square = GSS(config_square).ingest(stream)
        assert square.buffer_edge_count < plain.buffer_edge_count

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            adversarial_single_row_stream(-1)


class TestRelabelAndChain:
    def test_relabel_preserves_structure(self, base_stream):
        relabeled = relabel_nodes(base_stream)
        assert len(relabeled) == len(base_stream)
        assert relabeled.statistics().distinct_edges == base_stream.statistics().distinct_edges
        assert all(str(edge.source).startswith("x") for edge in relabeled)

    def test_relabel_with_explicit_mapping(self, base_stream):
        first = base_stream[0]
        mapping = {first.source: "RENAMED"}
        relabeled = relabel_nodes(base_stream, mapping=mapping)
        assert any(edge.source == "RENAMED" for edge in relabeled)

    def test_apply_chain_composes(self, base_stream):
        result = apply_chain(
            base_stream,
            lambda s: inject_duplicates(s, 1.0),
            lambda s: shuffle_stream(s, seed=9),
        )
        assert len(result) == 2 * len(base_stream)
