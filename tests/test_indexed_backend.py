"""Tests for the occupancy-indexed matrix backend and the batch update API.

The indexed backend must be *observationally identical* to the original full
matrix scans: the property tests here drive random streams — including
deletions and configurations small enough to overflow into the
``LeftoverBuffer`` — and assert the indexed scans agree bucket-for-bucket
with the full-scan oracles in ``scan_oracles.py``.  The module also covers the satellite bugfixes: the
``None``-based edge query (sentinel collision), the ``NodeIndex`` hash
conflict, and the tier-1 collection boundary.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buffer import LeftoverBuffer
from repro.core.config import GSSConfig
from repro.core.ensemble import GSSEnsemble
from repro.core.gss import GSS
from repro.core.merge import merge_sketches
from repro.core.reverse_index import NodeIndex
from repro.core.serialization import sketch_from_dict, sketch_to_dict
from repro.core.undirected import UndirectedGSS
from repro.core.windowed import WindowedGSS

from scan_oracles import neighbor_hashes_unindexed, reconstruct_sketch_edges_unindexed
from shard_oracle import partitioned_gss

# Streams over a small node universe with insertions AND deletions (negative
# weights), sized so small matrices overflow into the left-over buffer.
edge_items = st.tuples(
    st.integers(min_value=0, max_value=19),
    st.integers(min_value=0, max_value=19),
    st.sampled_from([1.0, 2.0, 5.0, -1.0, -2.0]),
)
streams = st.lists(edge_items, min_size=1, max_size=80)

configs = st.builds(
    GSSConfig,
    matrix_width=st.integers(min_value=2, max_value=12),
    fingerprint_bits=st.sampled_from([4, 8, 12]),
    rooms=st.integers(min_value=1, max_value=3),
    sequence_length=st.integers(min_value=1, max_value=6),
    candidate_buckets=st.integers(min_value=1, max_value=6),
    square_hashing=st.booleans(),
    sampling=st.booleans(),
)


def ingest(config: GSSConfig, items) -> GSS:
    sketch = GSS(config)
    for source, destination, weight in items:
        sketch.update(f"n{source}", f"n{destination}", weight)
    return sketch


def assert_indexes_consistent(sketch: GSS) -> None:
    """The occupancy lists and room map must mirror the bucket matrix exactly."""
    expected_rows, expected_cols, expected_rooms = {}, {}, {}
    for row in range(sketch.config.matrix_width):
        for column in range(sketch.config.matrix_width):
            bucket = sketch._bucket_at(row, column)
            if not bucket:
                continue
            expected_rows.setdefault(row, []).append(column)
            expected_cols.setdefault(column, []).append(row)
            for room in bucket:
                expected_rooms[(row, column, room[0], room[1], room[2], room[3])] = room
    # The full scan above visits positions in ascending order, so the
    # expected occupancy lists are already sorted.
    assert sketch._row_occupancy == expected_rows
    assert sketch._col_occupancy == expected_cols
    assert sketch._room_map == expected_rooms


class TestIndexedEqualsUnindexed:
    @given(items=streams, config=configs)
    @settings(max_examples=80, deadline=None)
    def test_neighbor_and_reconstruct_identical(self, items, config):
        sketch = ingest(config, items)
        nodes = {f"n{s}" for s, _, _ in items} | {f"n{d}" for _, d, _ in items}
        for node in nodes:
            node_hash = sketch.node_hash(node)
            assert sketch._neighbor_hashes(node_hash, forward=True) == (
                neighbor_hashes_unindexed(sketch, node_hash, forward=True)
            )
            assert sketch._neighbor_hashes(node_hash, forward=False) == (
                neighbor_hashes_unindexed(sketch, node_hash, forward=False)
            )
        assert sketch.reconstruct_sketch_edges() == reconstruct_sketch_edges_unindexed(sketch)
        assert_indexes_consistent(sketch)

    @given(items=streams, config=configs)
    @settings(max_examples=60, deadline=None)
    def test_update_many_equals_scalar_updates(self, items, config):
        scalar = ingest(config, items)
        batched = GSS(config)
        named = [(f"n{s}", f"n{d}", w) for s, d, w in items]
        # Split into two chunks to exercise cross-batch cache reuse.
        half = len(named) // 2
        batched.update_many(named[:half])
        batched.update_many(named[half:])
        assert batched.update_count == scalar.update_count
        assert batched.reconstruct_sketch_edges() == scalar.reconstruct_sketch_edges()
        assert sorted(batched.buffer.edges()) == sorted(scalar.buffer.edges())
        for node in {name for name, _, _ in named}:
            assert batched.successor_hashes(node) == scalar.successor_hashes(node)
            assert batched.precursor_hashes(node) == scalar.precursor_hashes(node)
        assert_indexes_consistent(batched)

    def test_overflowing_stream_hits_buffer(self):
        config = GSSConfig(matrix_width=2, fingerprint_bits=4, rooms=1,
                           sequence_length=2, candidate_buckets=2)
        items = [(s, d, 1.0) for s in range(12) for d in range(12)]
        sketch = ingest(config, items)
        assert sketch.buffer_edge_count > 0  # the scenario actually overflows
        assert sketch.reconstruct_sketch_edges() == reconstruct_sketch_edges_unindexed(sketch)


class TestIndexesSurviveRoundTrips:
    def _sample_sketch(self) -> GSS:
        config = GSSConfig(matrix_width=6, fingerprint_bits=8, sequence_length=4,
                           candidate_buckets=4)
        return ingest(config, [(s % 9, (s * 3 + 1) % 9, float(1 + s % 4)) for s in range(60)])

    def test_serialization_round_trip(self):
        original = self._sample_sketch()
        restored = sketch_from_dict(sketch_to_dict(original))
        assert_indexes_consistent(restored)
        assert restored.reconstruct_sketch_edges() == original.reconstruct_sketch_edges()
        for node in original.node_index.known_nodes():
            assert restored.successor_hashes(node) == original.successor_hashes(node)
            assert restored.precursor_hashes(node) == original.precursor_hashes(node)

    def test_merge_keeps_indexes_consistent(self):
        config = GSSConfig(matrix_width=6, fingerprint_bits=8, sequence_length=4,
                           candidate_buckets=4)
        first = ingest(config, [(s, (s + 1) % 10, 1.0) for s in range(10)])
        second = ingest(config, [(s, (s + 2) % 10, 2.0) for s in range(10)])
        merged = merge_sketches([first, second])
        assert_indexes_consistent(merged)
        for node in (f"n{i}" for i in range(10)):
            assert merged.successor_hashes(node) == (
                first.successor_hashes(node) | second.successor_hashes(node)
            )


class TestBatchUpdateWrappers:
    def test_windowed_update_many_matches_scalar(self):
        config = GSSConfig(matrix_width=8, sequence_length=4, candidate_buckets=4)
        scalar = WindowedGSS(config, window_span=20.0, slices=4)
        batched = WindowedGSS(config, window_span=20.0, slices=4)
        items = [(f"n{i % 7}", f"n{(i * 2) % 7}", 1.0, float(i)) for i in range(50)]
        for source, destination, weight, timestamp in items:
            scalar.update(source, destination, weight, timestamp)
        batched.update_many(items)
        assert batched.update_count == scalar.update_count
        assert batched.active_slice_count == scalar.active_slice_count
        assert batched.expired_slice_count == scalar.expired_slice_count
        for node in {source for source, _, _, _ in items}:
            assert batched.successor_query(node) == scalar.successor_query(node)
            for other in {d for _, d, _, _ in items}:
                assert batched.edge_query(node, other) == scalar.edge_query(node, other)

    def test_partitioned_update_many_matches_scalar(self):
        config = GSSConfig(matrix_width=8, sequence_length=4, candidate_buckets=4)
        scalar = partitioned_gss(config, partitions=3)
        batched = partitioned_gss(config, partitions=3)
        items = [(f"n{i % 9}", f"n{(i * 4) % 9}", float(1 + i % 3)) for i in range(60)]
        for source, destination, weight in items:
            scalar.update(source, destination, weight)
        batched.update_many(items)
        assert batched.update_count == scalar.update_count
        assert batched.shard_loads() == scalar.shard_loads()
        for source, destination, _ in items:
            assert batched.edge_query(source, destination) == scalar.edge_query(source, destination)

    def test_ensemble_and_undirected_update_many(self):
        config = GSSConfig(matrix_width=8, fingerprint_bits=8, sequence_length=4,
                           candidate_buckets=4)
        items = [(f"n{i % 6}", f"n{(i + 2) % 6}", 1.0) for i in range(30)]

        ensemble = GSSEnsemble(config, sketches=2)
        assert ensemble.update_many(items) == len(items)
        assert ensemble.edge_query("n0", "n2") >= 1.0

        undirected = UndirectedGSS(config)
        assert undirected.update_many(items) == len(items)
        assert undirected.edge_query("n2", "n0") == undirected.edge_query("n0", "n2")

    def test_stream_ingest_into_uses_batches(self):
        from repro.streaming.stream import stream_from_pairs

        stream = stream_from_pairs([(f"a{i % 5}", f"b{i % 4}") for i in range(40)])
        config = GSSConfig(matrix_width=8, sequence_length=4, candidate_buckets=4)
        batched = stream.ingest_into(GSS(config), batch_size=7)
        scalar = GSS(config)
        for edge in stream:
            scalar.update(edge.source, edge.destination, edge.weight)
        assert batched.reconstruct_sketch_edges() == scalar.reconstruct_sketch_edges()
        assert list(map(len, stream.iter_batches(7))) == [7, 7, 7, 7, 7, 5]


class TestSentinelFix:
    def test_edge_query_distinguishes_real_minus_one(self):
        config = GSSConfig(matrix_width=8, sequence_length=4, candidate_buckets=4)
        sketch = GSS(config)
        sketch.update("a", "b", 1.0)
        sketch.update("a", "b", -2.0)  # deletions sum the edge to exactly -1.0
        assert sketch.edge_query("a", "b") == -1.0      # real edge, real weight
        assert sketch.edge_query("a", "zz") is None     # absent edge, unambiguous
        assert sketch.edge_query_by_hash(
            sketch.node_hash("a"), sketch.node_hash("zz")
        ) is None

    def test_none_semantics_on_wrappers(self):
        config = GSSConfig(matrix_width=8, sequence_length=4, candidate_buckets=4)
        windowed = WindowedGSS(config, window_span=10.0)
        windowed.update("a", "b", 1.0, timestamp=0.0)
        windowed.update("a", "b", -2.0, timestamp=1.0)
        assert windowed.edge_query("a", "b") == -1.0
        assert windowed.edge_query("a", "zz") is None

        partitioned = partitioned_gss(config, partitions=2)
        partitioned.update("a", "b", -1.0)
        assert partitioned.edge_query("a", "b") == -1.0
        assert partitioned.edge_query("zz", "a") is None

        ensemble = GSSEnsemble(config, sketches=2)
        ensemble.update("a", "b", -1.0)
        assert ensemble.edge_query("a", "b") == -1.0
        assert ensemble.edge_query("a", "zz") is None

    def test_buffer_get_annotation_is_optional(self):
        hints = typing.get_type_hints(LeftoverBuffer.get)
        assert hints["default"] == typing.Optional[float]
        assert hints["return"] == typing.Optional[float]


class TestNodeIndexConflict:
    def test_conflicting_hash_raises(self):
        index = NodeIndex()
        index.record("a", 7)
        index.record("a", 7)  # idempotent re-registration stays fine
        with pytest.raises(ValueError, match="already registered"):
            index.record("a", 8)

    def test_merge_with_different_seeds_is_rejected_before_corruption(self):
        from repro.core.merge import merge_into

        first = GSS(GSSConfig(matrix_width=8, seed=1, sequence_length=2, candidate_buckets=2))
        second = GSS(GSSConfig(matrix_width=8, seed=2, sequence_length=2, candidate_buckets=2))
        first.update("a", "b")
        second.update("a", "b")
        with pytest.raises(ValueError):
            merge_into(first, second)


class TestPythonBackendStaysNumPyFree:
    def test_batches_queries_and_snapshots_never_import_numpy(self):
        """A ``backend="python"`` GSS resolves and places every batch — string,
        int and hash-addressed — queries and serializes without importing
        NumPy (run in a fresh interpreter, where nothing else imported it)."""
        script = textwrap.dedent(
            """
            import sys
            from repro.core.config import GSSConfig
            from repro.core.gss import GSS

            sketch = GSS(GSSConfig(backend="python", matrix_width=16))
            sketch.update_many([("a", "b", 1.0), ("b", "c", 2.0)])
            sketch.update_many([(1, 2, 1.0), ("a", 2, 3.0)])
            sketch.update_many_by_hash([(5, 6, 1.0), (5, 7, 2.0)])
            assert {"b", 2} <= sketch.successor_query("a")
            sketch.to_dict()
            assert "numpy" not in sys.modules, "the python backend imported NumPy"
            """
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestTierOneCollectionBoundary:
    def test_default_collection_excludes_benchmarks(self):
        """`pytest --collect-only` from the repo root must not pick up the
        benchmark suite (the tier-1 timeout bug)."""
        repo_root = Path(__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "--no-header", "-p", "no:cacheprovider"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "benchmarks/" not in result.stdout
        assert "tests/" in result.stdout
