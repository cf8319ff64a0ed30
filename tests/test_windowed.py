"""Tests for the sliding-window GSS wrapper."""

from __future__ import annotations

import pytest

from repro.core.config import GSSConfig
from repro.core.windowed import WindowedGSS
from repro.streaming.edge import StreamEdge


def make_window(span: float = 100.0, slices: int = 4, width: int = 32) -> WindowedGSS:
    config = GSSConfig(matrix_width=width, sequence_length=4, candidate_buckets=4)
    return WindowedGSS(config, window_span=span, slices=slices)


class TestConstruction:
    def test_rejects_non_positive_span(self):
        config = GSSConfig(matrix_width=8)
        with pytest.raises(ValueError):
            WindowedGSS(config, window_span=0.0)

    def test_rejects_zero_slices(self):
        config = GSSConfig(matrix_width=8)
        with pytest.raises(ValueError):
            WindowedGSS(config, window_span=10.0, slices=0)

    def test_starts_empty(self):
        window = make_window()
        assert window.active_slice_count == 0
        assert window.update_count == 0
        assert window.latest_timestamp is None
        assert window.window_bounds() is None


class TestUpdatesAndQueries:
    def test_edge_query_inside_window(self):
        window = make_window()
        window.update("a", "b", weight=2.0, timestamp=1.0)
        window.update("a", "b", weight=3.0, timestamp=2.0)
        assert window.edge_query("a", "b") == pytest.approx(5.0)

    def test_missing_edge_returns_sentinel(self):
        window = make_window()
        window.update("a", "b", timestamp=1.0)
        assert window.edge_query("x", "y") is None

    def test_weights_accumulate_across_slices(self):
        window = make_window(span=100.0, slices=4)
        window.update("a", "b", weight=1.0, timestamp=5.0)    # slice 0
        window.update("a", "b", weight=2.0, timestamp=60.0)   # slice 2
        assert window.edge_query("a", "b") == pytest.approx(3.0)
        assert window.active_slice_count == 2

    def test_successor_union_over_slices(self):
        window = make_window(span=100.0, slices=4)
        window.update("a", "b", timestamp=5.0)
        window.update("a", "c", timestamp=60.0)
        assert window.successor_query("a") == {"b", "c"}

    def test_precursor_union_over_slices(self):
        window = make_window(span=100.0, slices=4)
        window.update("b", "a", timestamp=5.0)
        window.update("c", "a", timestamp=60.0)
        assert window.precursor_query("a") == {"b", "c"}

    def test_node_weights(self):
        window = make_window()
        window.update("a", "b", weight=2.0, timestamp=1.0)
        window.update("a", "c", weight=3.0, timestamp=2.0)
        window.update("d", "a", weight=5.0, timestamp=3.0)
        assert window.node_out_weight("a") == pytest.approx(5.0)
        assert window.node_in_weight("a") == pytest.approx(5.0)

    def test_implicit_timestamps_count_items(self):
        window = make_window(span=10.0, slices=2)
        for position in range(5):
            window.update("a", f"b{position}")
        assert window.update_count == 5
        assert window.latest_timestamp == pytest.approx(4.0)


class TestExpiry:
    def test_old_slices_are_dropped(self):
        window = make_window(span=100.0, slices=4)
        window.update("a", "b", timestamp=1.0)
        window.update("x", "y", timestamp=500.0)
        assert window.edge_query("a", "b") is None
        assert window.edge_query("x", "y") == pytest.approx(1.0)
        assert window.expired_slice_count >= 1

    def test_items_older_than_window_are_ignored(self):
        window = make_window(span=50.0, slices=5)
        window.update("x", "y", timestamp=1000.0)
        window.update("a", "b", timestamp=10.0)  # far in the past
        assert window.edge_query("a", "b") is None
        assert window.update_count == 2

    def test_window_bounds_follow_latest_item(self):
        window = make_window(span=50.0)
        window.update("a", "b", timestamp=80.0)
        start, end = window.window_bounds()
        assert end == pytest.approx(80.0)
        assert start == pytest.approx(30.0)

    def test_recent_items_survive_expiry(self):
        window = make_window(span=100.0, slices=10)
        for step in range(20):
            window.update("s", f"d{step}", timestamp=float(step * 10))
        # Only items in the last 100 time units should remain visible.
        assert window.edge_query("s", "d19") == pytest.approx(1.0)
        assert window.edge_query("s", "d0") is None


class TestIngestAndStats:
    def test_ingest_stream_edges(self):
        window = make_window(span=1000.0)
        edges = [
            StreamEdge("a", "b", weight=1.0, timestamp=1.0),
            StreamEdge("a", "b", weight=2.0, timestamp=5.0),
            StreamEdge("b", "c", weight=1.0, timestamp=9.0),
        ]
        window.ingest(edges)
        assert window.edge_query("a", "b") == pytest.approx(3.0)
        assert window.edge_query("b", "c") == pytest.approx(1.0)

    def test_memory_scales_with_live_slices(self):
        window = make_window(span=100.0, slices=4)
        assert window.memory_bytes() == 0
        window.update("a", "b", timestamp=1.0)
        one_slice = window.memory_bytes()
        window.update("a", "c", timestamp=60.0)
        assert window.memory_bytes() == 2 * one_slice

    def test_buffer_percentage_zero_when_uncongested(self):
        window = make_window()
        window.update("a", "b", timestamp=1.0)
        assert window.buffer_percentage == 0.0
