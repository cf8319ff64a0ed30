"""Differential property tests: columnar (native) backend vs pure-Python backend.

The contract of the backend layer is *observational identity*: for any stream
— including deletions, hash collisions (tiny fingerprints), buffer overflow
(tiny matrices) and any mix of scalar and batched updates — a sketch on the
columnar NumPy storage with kernel placement answers every query exactly
like a Python-backed one, reconstructs the identical edge list in the
identical order, and round-trips through serialization into either backend.
These tests extend the ``tests/test_indexed_backend.py`` pattern to the
cross-backend setting.  ``"numpy"`` is the legacy name of the columnar
backend and must land on the same engine, so the suites run under both
requested names.

Everything here is skipped gracefully when NumPy or the kernel is missing
(the CI matrix runs the suite both ways); the fallback behaviour itself is
tested at the bottom without requiring NumPy.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import resolve_backend_name
from repro.core.config import GSSConfig
from repro.core.ensemble import GSSEnsemble
from repro.core.gss import GSS
from repro.core.merge import merge_into, merge_sketches
from repro.core.serialization import sketch_from_dict, sketch_to_dict
from repro.core.undirected import UndirectedGSS
from repro.core.windowed import WindowedGSS

from scan_oracles import neighbor_hashes_unindexed, reconstruct_sketch_edges_unindexed
from shard_oracle import partitioned_gss


def _native_ready() -> bool:
    from repro.core._native import native_available

    return native_available()


requires_native = pytest.mark.skipif(
    not _native_ready(), reason="native kernel unavailable or disabled"
)

#: The requested backend names that select the columnar backend, under
#: differential test against the scalar reference.  They skip — not fail —
#: when no kernel can be built (no C toolchain) or the escape hatch is set.
vector_backends = pytest.mark.parametrize("backend", ["numpy", "native"])

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


def named(items):
    return [(f"n{source}", f"n{destination}", weight) for source, destination, weight in items]


def build_python(config: GSSConfig, items) -> GSS:
    sketch = GSS(replace(config, backend="python"))
    for source, destination, weight in named(items):
        sketch.update(source, destination, weight)
    return sketch


def assert_observationally_equal(first: GSS, second: GSS, items) -> None:
    """Every query the sketches can answer must agree exactly."""
    assert first.reconstruct_sketch_edges() == second.reconstruct_sketch_edges()
    assert sorted(first.buffer.edges()) == sorted(second.buffer.edges())
    assert first.matrix_edge_count == second.matrix_edge_count
    assert first.buffer_edge_count == second.buffer_edge_count
    nodes = {f"n{s}" for s, _, _ in items} | {f"n{d}" for _, d, _ in items}
    for node in nodes:
        assert first.successor_hashes(node) == second.successor_hashes(node)
        assert first.precursor_hashes(node) == second.precursor_hashes(node)
        assert first.successor_query(node) == second.successor_query(node)
        assert first.node_out_weight(node) == second.node_out_weight(node)
        for other in nodes:
            assert first.edge_query(node, other) == second.edge_query(node, other)


@requires_native
@vector_backends
class TestBackendEquivalence:
    @given(items=streams, config=configs)
    @settings(max_examples=60, deadline=None)
    def test_batched_vector_equals_scalar_python(self, backend, items, config):
        python_sketch = build_python(config, items)
        vector_sketch = GSS(replace(config, backend=backend))
        assert vector_sketch.backend_name == "native"
        batch = named(items)
        # Uneven chunks exercise cross-batch memo reuse.
        third = max(1, len(batch) // 3)
        vector_sketch.update_many(batch[:third])
        vector_sketch.update_many(batch[third:])
        assert vector_sketch.update_count == python_sketch.update_count
        assert_observationally_equal(python_sketch, vector_sketch, items)

    @given(items=streams, config=configs)
    @settings(max_examples=40, deadline=None)
    def test_scalar_vector_equals_scalar_python(self, backend, items, config):
        python_sketch = build_python(config, items)
        vector_sketch = GSS(replace(config, backend=backend))
        for source, destination, weight in named(items):
            vector_sketch.update(source, destination, weight)
        assert_observationally_equal(python_sketch, vector_sketch, items)

    @given(items=streams, config=configs)
    @settings(max_examples=40, deadline=None)
    def test_vector_matches_its_own_unindexed_reference_scans(
        self, backend, items, config
    ):
        vector_sketch = GSS(replace(config, backend=backend))
        vector_sketch.update_many(named(items))
        assert vector_sketch.reconstruct_sketch_edges() == (
            reconstruct_sketch_edges_unindexed(vector_sketch)
        )
        for node in {f"n{s}" for s, _, _ in items}:
            node_hash = vector_sketch.node_hash(node)
            for forward in (True, False):
                assert vector_sketch._neighbor_hashes(node_hash, forward) == (
                    neighbor_hashes_unindexed(vector_sketch, node_hash, forward)
                )

    def test_overflowing_stream_hits_buffer_identically(self, backend):
        config = GSSConfig(matrix_width=2, fingerprint_bits=4, rooms=1,
                           sequence_length=2, candidate_buckets=2)
        items = [(s, d, 1.0) for s in range(12) for d in range(12)]
        python_sketch = build_python(config, items)
        vector_sketch = GSS(replace(config, backend=backend))
        vector_sketch.update_many(named(items))
        assert vector_sketch.buffer_edge_count > 0  # the scenario actually overflows
        assert_observationally_equal(python_sketch, vector_sketch, items)

    def test_update_many_by_hash_replay(self, backend):
        config = GSSConfig(matrix_width=6, fingerprint_bits=8,
                           sequence_length=4, candidate_buckets=4)
        items = [(s % 9, (s * 3 + 1) % 9, float(1 + s % 4)) for s in range(60)]
        source = build_python(config, items)
        replayed_python = GSS(config)
        replayed_python.update_many_by_hash(source.reconstruct_sketch_edges())
        replayed_vector = GSS(replace(config, backend=backend))
        replayed_vector.update_many_by_hash(source.reconstruct_sketch_edges())
        assert replayed_vector.reconstruct_sketch_edges() == (
            replayed_python.reconstruct_sketch_edges()
        )

    def test_wide_hash_range_fallback_path(self, backend):
        # fingerprint_bits=32 pushes H(s)*M+H(d) past uint64, outside the
        # kernel's packed keys: an explicit request falls back to the python
        # backend with a warning and stays observationally identical.
        config = GSSConfig(matrix_width=6, fingerprint_bits=32,
                           sequence_length=3, candidate_buckets=3)
        items = [(s % 7, (s * 2 + 1) % 7, 1.0) for s in range(40)]
        python_sketch = build_python(config, items)
        with pytest.warns(RuntimeWarning, match="envelope"):
            vector_sketch = GSS(replace(config, backend=backend))
        assert vector_sketch.backend_name == "python"
        vector_sketch.update_many(named(items))
        assert_observationally_equal(python_sketch, vector_sketch, items)


@requires_native
class TestCrossBackendRoundTrips:
    def _sample_items(self):
        return [(s % 9, (s * 3 + 1) % 9, float(1 + s % 4)) for s in range(60)]

    @pytest.mark.parametrize("source_backend,target_backend", [
        ("python", "python"), ("python", "native"),
        ("native", "python"), ("native", "native"),
    ])
    def test_serialization_round_trips_across_backends(self, source_backend, target_backend):
        config = GSSConfig(matrix_width=6, fingerprint_bits=8, sequence_length=4,
                           candidate_buckets=4, backend=source_backend)
        original = GSS(config)
        original.update_many(named(self._sample_items()))
        restored = sketch_from_dict(sketch_to_dict(original), backend=target_backend)
        assert restored.backend_name == target_backend
        assert restored.reconstruct_sketch_edges() == original.reconstruct_sketch_edges()
        assert restored.update_count == original.update_count
        assert restored.matrix_edge_count == original.matrix_edge_count
        for node in original.node_index.known_nodes():
            assert restored.successor_hashes(node) == original.successor_hashes(node)
            assert restored.precursor_hashes(node) == original.precursor_hashes(node)

    def test_snapshot_records_backend_and_defaults_to_it(self):
        config = GSSConfig(matrix_width=6, backend="numpy",
                           sequence_length=2, candidate_buckets=2)
        sketch = GSS(config)
        sketch.update("a", "b", 2.0)
        document = sketch_to_dict(sketch)
        # The resolved name is recorded, not the legacy alias.
        assert document["config"]["backend"] == "native"
        assert sketch_from_dict(document).backend_name == "native"

    def test_merge_across_backends(self):
        base = GSSConfig(matrix_width=8, fingerprint_bits=8, sequence_length=4,
                         candidate_buckets=4, seed=7)
        first = GSS(replace(base, backend="python"))
        second = GSS(replace(base, backend="numpy"))
        first.update_many([(f"n{i}", f"n{(i + 1) % 10}", 1.0) for i in range(10)])
        second.update_many([(f"n{i}", f"n{(i + 2) % 10}", 2.0) for i in range(10)])
        merged = merge_sketches([first, second])
        reference = merge_sketches([
            first, sketch_from_dict(sketch_to_dict(second), backend="python"),
        ])
        assert merged.reconstruct_sketch_edges() == reference.reconstruct_sketch_edges()
        # And merging INTO a columnar sketch works symmetrically.
        target = GSS(replace(base, backend="numpy"))
        merge_into(target, first)
        merge_into(target, second)
        assert sorted(target.reconstruct_sketch_edges()) == sorted(
            merged.reconstruct_sketch_edges()
        )


@requires_native
class TestMixedBackendMergeProperty:
    """``merge_sketches`` over one columnar-backend and one Python-backend GSS
    must agree with a single reference sketch that saw the whole stream.

    The distributed story of :mod:`repro.core.merge` (and the
    :mod:`repro.cluster` deployment built on the same snapshots) only holds
    if merging is backend-oblivious — including streams with deletions,
    collisions (tiny fingerprints) and buffer overflow (tiny matrices).
    """

    @given(items=streams, split=st.integers(min_value=0, max_value=80), config=configs)
    @settings(max_examples=40, deadline=None)
    def test_mixed_backend_merge_matches_single_sketch(self, items, split, config):
        split = min(split, len(items))
        batch = named(items)
        python_part = GSS(replace(config, backend="python"))
        python_part.update_many(batch[:split])
        numpy_part = GSS(replace(config, backend="numpy"))
        numpy_part.update_many(batch[split:])

        merged = merge_sketches([python_part, numpy_part])

        reference = GSS(replace(config, backend="python"))
        reference.update_many(batch)

        keys = {(source, destination) for source, destination, _ in batch}
        for key in sorted(keys):
            assert merged.edge_query(*key) == reference.edge_query(*key)
        nodes = {source for source, _, _ in batch} | {
            destination for _, destination, _ in batch
        }
        for node in sorted(nodes):
            assert merged.successor_hashes(node) == reference.successor_hashes(node)
            assert merged.precursor_hashes(node) == reference.precursor_hashes(node)
            assert merged.node_out_weight(node) == pytest.approx(
                reference.node_out_weight(node)
            )

    @given(items=streams, config=configs)
    @settings(max_examples=20, deadline=None)
    def test_merge_order_is_immaterial_across_backends(self, items, config):
        batch = named(items)
        half = len(batch) // 2
        python_part = GSS(replace(config, backend="python"))
        python_part.update_many(batch[:half])
        numpy_part = GSS(replace(config, backend="numpy"))
        numpy_part.update_many(batch[half:])
        forward = merge_sketches([python_part, numpy_part])
        backward = merge_sketches([numpy_part, python_part])
        keys = {(source, destination) for source, destination, _ in batch}
        for key in sorted(keys):
            assert forward.edge_query(*key) == backward.edge_query(*key)


@requires_native
class TestWrappersOnNumpyBackend:
    """Wrappers built with the legacy ``"numpy"`` name answer like python."""

    def test_windowed_wrapper(self):
        items = [(f"n{i % 7}", f"n{(i * 2) % 7}", 1.0, float(i)) for i in range(50)]
        results = {}
        for backend in ("python", "numpy"):
            config = GSSConfig(matrix_width=8, sequence_length=4,
                               candidate_buckets=4, backend=backend)
            window = WindowedGSS(config, window_span=20.0, slices=4)
            window.update_many(items)
            results[backend] = (
                window.active_slice_count,
                {node: window.successor_query(node) for node, _, _, _ in items},
                {(s, d): window.edge_query(s, d) for s, d, _, _ in items},
            )
        assert results["python"] == results["numpy"]

    def test_partitioned_wrapper(self):
        items = [(f"n{i % 9}", f"n{(i * 4) % 9}", float(1 + i % 3)) for i in range(60)]
        results = {}
        for backend in ("python", "numpy"):
            config = GSSConfig(matrix_width=8, sequence_length=4,
                               candidate_buckets=4, backend=backend)
            sharded = partitioned_gss(config, partitions=3)
            sharded.update_many(items)
            results[backend] = (
                sharded.shard_loads(),
                {(s, d): sharded.edge_query(s, d) for s, d, _ in items},
            )
        assert results["python"] == results["numpy"]
        config = GSSConfig(matrix_width=8, sequence_length=4,
                           candidate_buckets=4, backend="numpy")
        sharded = partitioned_gss(config, partitions=3)
        sharded.update_many(items)
        merged = merge_sketches(sharded.shards)
        assert merged.backend_name == "native"
        assert merged.matrix_edge_count + merged.buffer_edge_count > 0

    def test_undirected_and_ensemble_wrappers(self):
        items = [(f"n{i % 6}", f"n{(i + 2) % 6}", 1.0) for i in range(30)]
        for backend in ("python", "numpy"):
            config = GSSConfig(matrix_width=8, fingerprint_bits=8, sequence_length=4,
                               candidate_buckets=4, backend=backend)
            undirected = UndirectedGSS(config)
            undirected.update_many(items)
            expected = "native" if backend == "numpy" else backend
            assert undirected.sketch.backend_name == expected
            assert undirected.edge_query("n0", "n2") == undirected.edge_query("n2", "n0")
            ensemble = GSSEnsemble(config, sketches=2)
            ensemble.update_many(items)
            assert all(member.backend_name == expected for member in ensemble.members)
            assert ensemble.edge_query("n0", "n2") >= 1.0


class TestBackendSelection:
    def test_python_is_the_zero_dependency_default(self):
        assert GSSConfig(matrix_width=4).backend == "python"
        assert GSS(GSSConfig(matrix_width=4)).backend_name == "python"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            GSSConfig(matrix_width=4, backend="fortran")

    def test_auto_resolves_to_available_backend(self):
        # auto prefers native, else python.
        expected = "native" if _native_ready() else "python"
        assert resolve_backend_name("auto") == expected
        assert GSS(GSSConfig(matrix_width=4, backend="auto")).backend_name == expected

    def test_auto_skips_native_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        assert resolve_backend_name("auto") == "python"

    def test_numpy_request_without_numpy_falls_back_with_warning(self, monkeypatch):
        import repro.core.backends as backends_module

        monkeypatch.setattr(backends_module, "NUMPY_AVAILABLE", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sketch = GSS(GSSConfig(matrix_width=4, backend="numpy"))
        assert sketch.backend_name == "python"
        assert any("falling back" in str(w.message) for w in caught)
        sketch.update("a", "b", 1.0)
        assert sketch.edge_query("a", "b") == 1.0

    def test_python_backend_structural_views_still_exposed(self):
        sketch = GSS(GSSConfig(matrix_width=4, sequence_length=2, candidate_buckets=2))
        sketch.update("a", "b", 1.0)
        assert sketch._room_map
        assert sketch._row_occupancy
        assert sketch._col_occupancy
