"""Unit tests for GSS persistence (save/load round trips)."""

import json

import pytest

from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.core.serialization import (
    FORMAT_VERSION,
    load_sketch,
    save_sketch,
    sketch_from_dict,
    sketch_to_dict,
)


def _native_ready() -> bool:
    from repro.core._native import native_available

    return native_available()


requires_native = pytest.mark.skipif(
    not _native_ready(), reason="native kernel unavailable or disabled"
)


@pytest.fixture()
def populated_sketch(small_stream) -> GSS:
    config = GSSConfig(
        matrix_width=20, fingerprint_bits=12, sequence_length=8, candidate_buckets=8
    )
    return GSS(config).ingest(small_stream)


class TestDictRoundTrip:
    def test_round_trip_preserves_edge_queries(self, populated_sketch, small_stream):
        restored = sketch_from_dict(sketch_to_dict(populated_sketch))
        for key in list(small_stream.aggregate_weights())[:300]:
            assert restored.edge_query(*key) == populated_sketch.edge_query(*key)

    def test_round_trip_preserves_neighbor_queries(self, populated_sketch, small_stream):
        restored = sketch_from_dict(sketch_to_dict(populated_sketch))
        for node in small_stream.nodes()[:60]:
            assert restored.successor_query(node) == populated_sketch.successor_query(node)
            assert restored.precursor_query(node) == populated_sketch.precursor_query(node)

    def test_round_trip_preserves_counters(self, populated_sketch):
        restored = sketch_from_dict(sketch_to_dict(populated_sketch))
        assert restored.matrix_edge_count == populated_sketch.matrix_edge_count
        assert restored.buffer_edge_count == populated_sketch.buffer_edge_count
        assert restored.update_count == populated_sketch.update_count
        assert restored.config == populated_sketch.config

    def test_restored_sketch_accepts_new_updates(self, populated_sketch):
        restored = sketch_from_dict(sketch_to_dict(populated_sketch))
        restored.update("brand-new-source", "brand-new-destination", 7.0)
        assert restored.edge_query("brand-new-source", "brand-new-destination") == 7.0

    def test_document_is_json_serializable(self, populated_sketch):
        document = sketch_to_dict(populated_sketch)
        assert document["format_version"] == FORMAT_VERSION
        json.dumps(document)  # must not raise

    def test_unknown_version_rejected(self, populated_sketch):
        document = sketch_to_dict(populated_sketch)
        document["format_version"] = 999
        with pytest.raises(ValueError):
            sketch_from_dict(document)

    @pytest.mark.parametrize("backend", ["python", pytest.param("native", marks=requires_native)])
    @pytest.mark.parametrize("bad", [-1, "M", 2.0])
    def test_node_hash_outside_the_hash_range_is_refused(self, populated_sketch, backend, bad):
        # Both backends refuse it alike, whichever index keeps the node.
        document = sketch_to_dict(populated_sketch)
        hash_range = populated_sketch.config.hash_range
        document["node_index"][3]["hash"] = hash_range if bad == "M" else bad
        with pytest.raises(TypeError if bad == 2.0 else ValueError):
            sketch_from_dict(document, backend=backend)

    def test_without_node_index(self, populated_sketch, small_stream):
        document = sketch_to_dict(populated_sketch, include_node_index=False)
        assert "node_index" not in document
        restored = sketch_from_dict(document)
        key = next(iter(small_stream.aggregate_weights()))
        assert restored.edge_query(*key) == populated_sketch.edge_query(*key)


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path, populated_sketch, small_stream):
        path = tmp_path / "sketch.json"
        save_sketch(populated_sketch, path)
        restored = load_sketch(path)
        truth = small_stream.aggregate_weights()
        for key in list(truth)[:200]:
            assert restored.edge_query(*key) == populated_sketch.edge_query(*key)
        assert restored.buffer_edge_count == populated_sketch.buffer_edge_count


class TestHashVersionGuard:
    def test_snapshot_records_hash_version(self, populated_sketch):
        from repro.hashing.hash_functions import HASH_VERSION

        assert sketch_to_dict(populated_sketch)["hash_version"] == HASH_VERSION

    def test_newer_hash_version_rejected(self, populated_sketch):
        document = sketch_to_dict(populated_sketch)
        document["hash_version"] = 99
        with pytest.raises(ValueError, match="hash version"):
            sketch_from_dict(document)

    def test_older_hash_version_warns_but_loads(self, populated_sketch):
        import warnings

        document = sketch_to_dict(populated_sketch)
        document["hash_version"] = 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            restored = sketch_from_dict(document)
        assert any("hash version" in str(w.message) for w in caught)
        assert restored.update_count == populated_sketch.update_count

    def test_missing_hash_version_treated_as_v1(self, populated_sketch):
        import warnings

        document = sketch_to_dict(populated_sketch)
        del document["hash_version"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sketch_from_dict(document)
        assert any("hash version" in str(w.message) for w in caught)


#: A 4 x 4 matrix of one-room buckets (M = 16) and a stream with far more
#: distinct edges than rooms, so well over a fifth of them spill.
SPILLING = dict(matrix_width=4, fingerprint_bits=2, rooms=1, sequence_length=2, candidate_buckets=2)
SPILLING_STREAM = [(f"s{i % 13}", f"d{i * 7 % 11}", float(i % 5) - 1.5) for i in range(200)]


def _document_json(sketch: GSS) -> str:
    """``to_dict`` as JSON, with the backend name (which may differ) blanked."""
    document = sketch.to_dict()
    document["config"]["backend"] = "-"
    return json.dumps(document)


def _all_answers(sketch: GSS) -> list:
    nodes = sketch.node_index.known_nodes() + ["never"]
    return [sketch.edge_query(source, destination) for source in nodes for destination in nodes] + [
        (sketch.successor_query(node), sketch.precursor_query(node)) for node in nodes
    ]


class TestRestoredBuffer:
    """A restored sketch's buffered edges are the original's: re-fed its
    stream, it ends exactly like a twin that was never restored, whichever
    backend wrote or restored it."""

    @requires_native
    @pytest.mark.parametrize(
        "written, restored", [("native", "native"), ("python", "native"), ("native", "python")]
    )
    def test_a_restored_sketch_refed_its_stream_matches_a_twin(self, written, restored):
        original = GSS(GSSConfig(backend=written, **SPILLING))
        original.update_many(SPILLING_STREAM)
        assert original.buffer_percentage >= 0.2
        copy = sketch_from_dict(original.to_dict(), backend=restored)
        twin = GSS(GSSConfig(backend=restored, **SPILLING))
        twin.update_many(SPILLING_STREAM)
        for sketch in (copy, twin):
            assert sketch.backend_name == restored
            sketch.update_many(SPILLING_STREAM)
            for source, destination, weight in SPILLING_STREAM[:40]:
                sketch.update(source, destination, weight)
        assert _document_json(copy) == _document_json(twin)
        assert _all_answers(copy) == _all_answers(twin)
