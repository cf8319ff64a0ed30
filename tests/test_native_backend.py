"""Native (compiled-kernel) backend: gates, degrades, and exact equivalence.

The broad observational-equivalence laws already run against the native
backend through the parametrized suites in ``tests/test_numpy_backend.py``
and ``tests/test_api_conformance.py``.  This module covers what is specific
to the compiled backend:

* availability gating — the ``REPRO_DISABLE_NATIVE`` escape hatch, and
  graceful degrade-with-warning to the python backend when the kernel
  cannot run (so no-toolchain and no-numpy environments stay green);
* the kernel envelope — packed uint64 keys and a uint8 fill table — with
  a silent python fallback under ``auto`` and a warning on explicit
  requests, answering identically either way;
* the persistent C edge->slot map, through ``gss_map_get`` /
  ``gss_map_put``, including the ``2^64 - 1`` side slot and growth;
* scalar inserts, which run as one-row kernel batches: a hypothesis
  differential interleaves them with hash-addressed updates and batches
  on congested configs against the python reference;
* the whole-batch text ingestion path and its fallbacks (non-string node
  IDs, embedded NUL bytes), which must be invisible to every observer:
  queries, node index, serialization, and the hash-once counter — which
  the python backend meets across batches too;
* snapshots recording the *resolved* backend name, and legacy snapshots
  (recording ``"numpy"``, with or without the removed
  ``scalar_tail_threshold`` key) restoring with identical answers;
* the kernel's neighbour scan over the bucket-major room layout at its
  edges — repeated address rows, full 254-room buckets, the ablation
  switches, a scan whose every room matches, a restored sketch that keeps
  ingesting — against the python backend and the full-scan oracles.
"""

from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import (
    NUMPY_AVAILABLE,
    resolve_backend_name,
    resolve_counter_backend_name,
)
from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.core.merge import merge_sketches
from repro.core.serialization import sketch_from_dict, sketch_to_dict
from repro.hashing.hash_functions import count_key_hashes

from scan_oracles import (
    addresses_of,
    neighbor_hashes_unindexed,
    reconstruct_sketch_edges_unindexed,
)


def _native_ready() -> bool:
    from repro.core._native import native_available

    return native_available()


requires_native = pytest.mark.skipif(
    not _native_ready(), reason="native kernel unavailable or disabled"
)

CONFIG = dict(matrix_width=16, fingerprint_bits=8, sequence_length=4,
              candidate_buckets=4)


def make(backend: str, **overrides) -> GSS:
    return GSS(GSSConfig(backend=backend, **{**CONFIG, **overrides}))


def stream(count: int = 300, nodes: int = 40):
    return [
        (f"s{(i * 7) % nodes}", f"d{(i * 11 + 3) % nodes}", float(1 + i % 5))
        for i in range(count)
    ]


def assert_same_answers(first: GSS, second: GSS, items) -> None:
    assert first.reconstruct_sketch_edges() == second.reconstruct_sketch_edges()
    assert sorted(first.buffer.edges()) == sorted(second.buffer.edges())
    assert first.matrix_edge_count == second.matrix_edge_count
    nodes = {item[0] for item in items} | {item[1] for item in items}
    for node in nodes:
        assert first.successor_hashes(node) == second.successor_hashes(node)
        assert first.precursor_hashes(node) == second.precursor_hashes(node)
        if first.node_index is not None:
            assert first.successor_query(node) == second.successor_query(node)
            assert first.precursor_query(node) == second.precursor_query(node)
    for source, destination, _ in items:
        assert first.edge_query(source, destination) == second.edge_query(
            source, destination
        )


def assert_scans_match(native: GSS, reference: GSS, nodes) -> None:
    """Neighbour scans and reconstruction agree with the python backend and
    with the full-scan oracles run over the native sketch's own buckets."""
    for node in nodes:
        node_hash = native.node_hash(node)
        for forward in (True, False):
            expected = neighbor_hashes_unindexed(native, node_hash, forward)
            assert native._neighbor_hashes(node_hash, forward) == expected
            assert reference._neighbor_hashes(node_hash, forward) == expected
    edges = native.reconstruct_sketch_edges()
    assert edges == reference.reconstruct_sketch_edges()
    assert edges == reconstruct_sketch_edges_unindexed(native)


def nodes_of(items):
    return {item[0] for item in items} | {item[1] for item in items}


class TestAvailabilityGates:
    @pytest.mark.parametrize("variable", ["REPRO_DISABLE_NATIVE"])
    def test_escape_hatches_disable_the_kernel(self, monkeypatch, variable):
        from repro.core import _native

        monkeypatch.setenv(variable, "1")
        assert _native.native_disabled()
        assert not _native.native_available()
        assert resolve_backend_name("auto") == "python"

    def test_explicit_native_degrades_with_warning_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        for requested in ("native", "numpy"):
            with pytest.warns(RuntimeWarning, match="falling back"):
                sketch = make(requested)
            assert sketch.backend_name == "python"
            sketch.update("a", "b", 1.0)
            assert sketch.edge_query("a", "b") == 1.0

    def test_auto_degrades_silently_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sketch = make("auto")
        assert sketch.backend_name == "python"

    def test_counter_backends_never_take_the_kernel(self):
        assert resolve_counter_backend_name("native") == (
            "numpy" if NUMPY_AVAILABLE else "python"
        )
        assert resolve_counter_backend_name("auto") == (
            "numpy" if NUMPY_AVAILABLE else "python"
        )

    @requires_native
    def test_warm_up_reports_ready(self):
        from repro.core._native import warm_up

        assert warm_up() is True


@requires_native
class TestKernelEnvelope:
    """Configs the kernel cannot pack run on the python backend instead."""

    OUTSIDE = [dict(fingerprint_bits=32), dict(rooms=255)]

    def check_python_fallback(self, sketch: GSS, overrides) -> None:
        assert sketch.backend_name == "python"
        items = stream(200)
        reference = make("python", **overrides)
        sketch.update_many(items[:120])
        reference.update_many(items[:120])
        for source, destination, weight in items[120:]:
            sketch.update(source, destination, weight)
            reference.update(source, destination, weight)
        assert_same_answers(sketch, reference, items)

    @pytest.mark.parametrize("requested", ["native", "numpy"])
    def test_wide_hash_range_falls_back_to_python(self, requested):
        with pytest.warns(RuntimeWarning, match="envelope"):
            sketch = make(requested, fingerprint_bits=32)
        self.check_python_fallback(sketch, dict(fingerprint_bits=32))

    @pytest.mark.parametrize("requested", ["native", "numpy"])
    def test_many_rooms_fall_back_to_python(self, requested):
        with pytest.warns(RuntimeWarning, match="envelope"):
            sketch = make(requested, rooms=255)
        self.check_python_fallback(sketch, dict(rooms=255))

    def test_auto_degrades_outside_envelope_without_warning(self):
        for overrides in self.OUTSIDE:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sketch = make("auto", **overrides)
            self.check_python_fallback(sketch, overrides)


#: kernel.c's ``SLOT_MISSING``: what ``gss_map_get`` answers for a key it
#: does not hold.
SLOT_MISSING = -2


@requires_native
class TestEdgeSlotMap:
    """The kernel's persistent edge->slot table, through its two exports."""

    def test_get_and_put(self):
        backend = make("native")._matrix
        lib, ctx = backend._lib, backend._ctx
        assert lib.gss_map_get(ctx, 123) == SLOT_MISSING
        assert lib.gss_map_put(ctx, 123, 5) == 0
        assert lib.gss_map_get(ctx, 123) == 5
        assert lib.gss_map_get(ctx, 456) == SLOT_MISSING
        assert lib.gss_map_put(ctx, 456, 9) == 0
        assert lib.gss_map_put(ctx, 789, -1) == 0
        assert lib.gss_map_put(ctx, 123, 7) == 0
        assert [lib.gss_map_get(ctx, key) for key in (123, 456, 789)] == [7, 9, -1]

    def test_max_uint64_key_side_slot(self):
        backend = make("native")._matrix
        lib, ctx = backend._lib, backend._ctx
        sentinel = (1 << 64) - 1
        assert lib.gss_map_get(ctx, sentinel) == SLOT_MISSING
        assert lib.gss_map_put(ctx, sentinel, 42) == 0
        assert lib.gss_map_get(ctx, sentinel) == 42
        assert lib.gss_map_get(ctx, sentinel - 1) == SLOT_MISSING
        assert lib.gss_map_put(ctx, sentinel, 43) == 0
        assert lib.gss_map_get(ctx, sentinel) == 43

    def test_map_survives_growth(self):
        backend = make("native")._matrix
        lib, ctx = backend._lib, backend._ctx
        # The table starts at 1024 slots, so 5000 keys grow it three times.
        for key in range(5000):
            assert lib.gss_map_put(ctx, key, key * 2) == 0
        assert all(lib.gss_map_get(ctx, key) == key * 2 for key in range(5000))
        assert lib.gss_map_get(ctx, 5000) == SLOT_MISSING


@requires_native
class TestTextPathEquivalence:
    """The kernel's text and per-key paths answer like the python reference."""

    def test_string_batches_match_python_exactly(self):
        items = stream()
        native = make("native")
        reference = make("python")
        for offset in range(0, len(items), 64):
            native.update_many(items[offset : offset + 64])
            reference.update_many(items[offset : offset + 64])
        assert_same_answers(native, reference, items)
        assert set(native.node_index.known_nodes()) == set(
            reference.node_index.known_nodes()
        )
        for node in reference.node_index.known_nodes():
            assert native.node_index.hash_of(node) == reference.node_index.hash_of(node)

    def test_multibyte_and_empty_ids_are_recorded_in_stream_order(self):
        # New nodes come back as byte offsets into the UTF-8 blob; multi-byte
        # and zero-length IDs must still map to the right batch items.
        items = [
            ("héllo", "", 1.0),
            ("日本語", "héllo", 2.0),
            ("", "wörld", 1.5),
            ("plain", "日本語", 1.0),
            ("wörld", "🙂", 3.0),
        ]
        native = make("native")
        reference = make("python")
        native.update_many(items[:2])
        reference.update_many(items[:2])
        native.update_many(items[2:])
        reference.update_many(items[2:])
        assert native.node_index.known_nodes() == reference.node_index.known_nodes()
        for node in reference.node_index.known_nodes():
            assert native.node_index.hash_of(node) == reference.node_index.hash_of(node)
        assert_same_answers(native, reference, items)

    def test_hash_once_counts_each_distinct_node_once(self):
        items = stream()
        distinct = {item[0] for item in items} | {item[1] for item in items}
        sketch = make("native")
        with count_key_hashes() as counter:
            sketch.update_many(items)
            sketch.update_many(items)  # all memoized: no extra hashing
        assert counter.count == len(distinct)

    @pytest.mark.parametrize("keep_node_index", [True, False])
    def test_non_string_ids_fall_back_identically(self, keep_node_index):
        items = [(i % 9, (i * 5 + 1) % 9, 1.0) for i in range(100)]
        native = make("native", keep_node_index=keep_node_index)
        reference = make("python", keep_node_index=keep_node_index)
        native.update_many(items[:60])
        reference.update_many(items[:60])
        native.update_many(items[60:])
        reference.update_many(items[60:])
        assert_same_answers(native, reference, items)

    def test_embedded_nul_and_mixed_batches_fall_back_identically(self):
        items = [
            ("a\x00b", "plain", 2.0),
            ("plain", "a\x00b", 1.0),
            ("", "empty-source-ok", 1.5),
            ("héllo", "wörld", 1.0),
            (7, "mixed-types", 1.0),
            ("\x00", "\x00\x00", 3.0),
        ]
        native = make("native")
        reference = make("python")
        native.update_many(items)
        reference.update_many(items)
        assert_same_answers(native, reference, items)

    def test_scalar_and_batched_updates_interleave(self):
        items = stream(120)
        native = make("native")
        reference = make("python")
        native.update_many(items[:50])
        reference.update_many(items[:50])
        for source, destination, weight in items[50:70]:
            native.update(source, destination, weight)
            reference.update(source, destination, weight)
        native.update_many(items[70:])
        reference.update_many(items[70:])
        assert_same_answers(native, reference, items)


#: Ablation-sized configs whose few small buckets fill quickly, so edges
#: spill to the buffer and buffered edges come back.
congested_configs = st.fixed_dictionaries(
    dict(
        matrix_width=st.integers(min_value=1, max_value=4),
        fingerprint_bits=st.sampled_from([4, 8]),
        rooms=st.integers(min_value=1, max_value=2),
        sequence_length=st.integers(min_value=1, max_value=4),
        candidate_buckets=st.integers(min_value=1, max_value=4),
        square_hashing=st.booleans(),
        sampling=st.booleans(),
    )
)
#: Node IDs of a small universe, so edges repeat: strings take the kernel's
#: text path in a batch, ints the resolver.
node_ids = st.integers(min_value=0, max_value=7).map(lambda n: f"n{n}") | st.integers(
    min_value=0, max_value=7
)
weights = st.sampled_from([1.0, 2.0, 5.0, -1.0, -2.0, 0.5])
#: A feed of scalar updates, hash-addressed updates and batches, interleaved.
feeds = st.lists(
    st.tuples(st.just("update"), node_ids, node_ids, weights)
    | st.tuples(st.just("update_by_hash"), node_ids, node_ids, weights)
    | st.tuples(st.just("update_many"), st.lists(st.tuples(node_ids, node_ids, weights), max_size=10)),
    min_size=10,
    max_size=50,
)


def _document(sketch: GSS) -> dict:
    """``to_dict`` without the field that names the backend."""
    document = sketch.to_dict()
    del document["config"]["backend"]
    return document


@requires_native
class TestScalarPathDifferential:
    """A native scalar insert is a one-row kernel batch; interleaved with
    hash-addressed updates and batches it must keep every room, buffer entry
    and answer of the python reference."""

    @settings(max_examples=80, deadline=None)
    @given(feed=feeds, overrides=congested_configs)
    def test_interleaved_feeds_match_python(self, feed, overrides):
        native = GSS(GSSConfig(backend="native", **overrides))
        reference = GSS(GSSConfig(backend="python", **overrides))
        items = []
        for operation, *arguments in feed:
            if operation == "update_many":
                [batch] = arguments
                items.extend(batch)
            else:
                items.append(tuple(arguments))
            for sketch in (native, reference):
                if operation == "update_by_hash":
                    source, destination, weight = arguments
                    sketch.update_by_hash(
                        sketch.node_hash(source), sketch.node_hash(destination), weight
                    )
                else:
                    getattr(sketch, operation)(*arguments)
        assert _document(native) == _document(reference)
        assert native.update_count == reference.update_count
        assert_same_answers(native, reference, items)


def keyed_stream(ids: str, count: int = 1000, nodes: int = 45):
    """:func:`stream` with ``str`` node IDs, ``int`` ones, or ``mixed`` (str
    sources, int destinations)."""
    items = stream(count, nodes)
    if ids == "str":
        return items
    return [
        (source if ids == "mixed" else int(source[1:]), nodes + int(destination[1:]), weight)
        for source, destination, weight in items
    ]


@pytest.mark.parametrize("ids", ["str", "int", "mixed"])
@pytest.mark.parametrize(
    "backend", ["python", pytest.param("native", marks=requires_native)]
)
def test_known_nodes_are_not_rehashed_across_batches(backend, ids):
    # A node the sketch has already recorded is not hashed again: string
    # batches on the kernel resolve through its node table, every other
    # batch through the GSS's node index — so batches need no memo.
    items = keyed_stream(ids)
    distinct = {item[0] for item in items} | {item[1] for item in items}
    sketch = make(backend)
    with count_key_hashes() as counter:
        sketch.update_many(items)
        assert counter.count == len(distinct)
        sketch.update_many(items)
        assert counter.count == len(distinct)


@pytest.mark.parametrize(
    "backend", ["python", pytest.param("native", marks=requires_native)]
)
def test_a_string_node_first_seen_in_a_mixed_batch_is_not_rehashed(backend):
    # The mixed batch records "a" where the kernel's text path resolves it,
    # so the all-string batch after it hashes nothing.
    sketch = make(backend)
    with count_key_hashes() as counter:
        sketch.update_many([("a", "b", 1.0), (7, "b", 1.0)])
        sketch.update_many([("a", "b", 1.0)])
    assert counter.count == 3


@pytest.mark.parametrize(
    "backend", ["python", pytest.param("native", marks=requires_native)]
)
def test_a_first_weight_of_negative_zero_is_stored_as_zero(backend):
    # Every batch path stores 0.0 + weight on first placement; the python
    # scalar path does too.
    scalar, batched = make(backend), make(backend)
    scalar.update("a", "b", -0.0)
    batched.update_many([("a", "b", -0.0)])
    for sketch in (scalar, batched):
        weight = sketch.edge_query("a", "b")
        assert weight == 0.0 and math.copysign(1.0, weight) == 1.0


@requires_native
class TestSerializationAndMerge:
    def test_snapshot_records_resolved_backend_name(self):
        sketch = make("auto")
        assert sketch.backend_name == "native"
        sketch.update_many(stream(50))
        document = sketch_to_dict(sketch)
        assert document["config"]["backend"] == "native"
        restored = sketch_from_dict(document)
        assert restored.backend_name == "native"
        assert restored.reconstruct_sketch_edges() == sketch.reconstruct_sketch_edges()

    def test_old_snapshot_without_new_config_keys_loads(self):
        items = stream(50)
        sketch = make("native")
        sketch.update_many(items)
        document = sketch_to_dict(sketch)
        # A snapshot written by the former numpy backend, before the
        # scalar_tail_threshold key existed.
        document["config"]["backend"] = "numpy"
        assert "scalar_tail_threshold" not in document["config"]
        restored = sketch_from_dict(document)
        assert restored.backend_name == "native"
        assert_same_answers(restored, sketch, items)

    def test_snapshot_with_an_overfull_bucket_is_rejected(self):
        # A bucket's l rooms are adjacent slots, so an extra room would
        # overwrite the next bucket: restore refuses it instead.
        sketch = make("python", matrix_width=4, rooms=1)
        sketch.update_many(stream(50))
        document = sketch_to_dict(sketch)
        entry = document["buckets"][0]
        entry["rooms"].append(list(entry["rooms"][0]))
        with pytest.raises(ValueError, match="already holds 1 rooms"):
            sketch_from_dict(document, backend="native")

    def test_mixed_backend_merge_includes_native(self):
        items = stream(240)
        parts = []
        for backend, chunk in zip(
            ("python", "numpy", "native"),
            (items[:80], items[80:160], items[160:]),
        ):
            part = make(backend, seed=5)
            part.update_many(chunk)
            parts.append(part)
        merged = merge_sketches(parts)
        reference = make("native", seed=5)
        reference.update_many(items)
        keys = {(source, destination) for source, destination, _ in items}
        for key in sorted(keys):
            assert merged.edge_query(*key) == reference.edge_query(*key)


@requires_native
class TestKernelScanEdges:
    """``gss_neighbor_scan`` (through ``gss_neighbor_hashes``) and the
    bucket-major reconstruction at the edges of the room layout
    (``scripts/native_sanitize.py`` runs these under ASan/UBSan, so an
    out-of-bounds slot or output write aborts)."""

    def check(self, items, **overrides) -> GSS:
        native = make("native", **overrides)
        reference = make("python", **overrides)
        assert native.backend_name == "native"
        native.update_many(items)
        reference.update_many(items)
        assert_scans_match(native, reference, nodes_of(items))
        return native

    def test_sequence_longer_than_matrix_width(self):
        overrides = dict(matrix_width=3, sequence_length=8, candidate_buckets=8)
        native = self.check(stream(), **overrides)
        # Eight addresses over three rows: every node revisits some row at
        # another index, and a room matches only at its own index.
        node_hash = native.node_hash("s0")
        assert len(set(addresses_of(native, node_hash))) < 8

    def test_full_254_room_buckets(self):
        items = [(f"s{i % 37}", f"d{i}", 1.0) for i in range(1500)]
        native = self.check(items, matrix_width=2, rooms=254)
        assert int(native._matrix._bucket_fill.max()) == 254
        assert native.buffer_edge_count > 0

    @pytest.mark.parametrize("switch", ["square_hashing", "sampling"])
    def test_ablation_switches(self, switch):
        self.check(stream(), matrix_width=6, **{switch: False})

    @pytest.mark.parametrize("forward", [True, False])
    def test_every_room_in_the_scanned_lines_matches(self, forward):
        # Only the hub's edges exist, so its r rows (columns) fill up with
        # rooms that all match it: the scan writes its whole r * m * l
        # output bound.
        width, rooms, lines = 8, 2, 4
        overrides = dict(matrix_width=width, rooms=rooms, sequence_length=lines,
                         sampling=False, fingerprint_bits=16)
        probe = make("native", **overrides)
        hub = next(
            name for name in (f"hub{i}" for i in range(1000))
            if len(set(addresses_of(probe, probe.node_hash(name)))) == lines
        )
        others = [f"x{i}" for i in range(40 * lines * width * rooms)]
        items = [(hub, other, 1.0) if forward else (other, hub, 1.0) for other in others]
        native = self.check(items, **overrides)
        bound = lines * width * rooms
        assert native.matrix_edge_count == bound
        node_hash = native.node_hash(hub)
        found = native._matrix.neighbor_hashes(node_hash, forward)
        chain = native.buffer.successors_of if forward else native.buffer.precursors_of
        assert len(found - set(chain(node_hash))) == bound

    def test_restored_sketch_keeps_ingesting(self):
        items = stream(400)
        first, rest = items[:200], items[200:] + items[:50]
        original = make("native", matrix_width=6)
        original.update_many(first)
        restored = GSS.from_dict(original.to_dict())
        assert restored.backend_name == "native"
        reference = make("python", matrix_width=6)
        reference.update_many(first)
        # Repeats of restored edges add to their rooms in place; new edges
        # land next to the restored rooms of their buckets.
        restored.update_many(rest)
        reference.update_many(rest)
        assert_scans_match(restored, reference, nodes_of(items))
        assert_same_answers(restored, reference, items)


class TestLegacySnapshots:
    def test_numpy_snapshot_with_scalar_tail_key_restores(self):
        items = stream(80)
        sketch = make("python")
        sketch.update_many(items)
        document = sketch_to_dict(sketch)
        # The shape a numpy-backend sketch with a tuned scalar tail wrote.
        document["config"]["backend"] = "numpy"
        document["config"]["scalar_tail_threshold"] = 13
        with warnings.catch_warnings():
            # Without the kernel, "numpy" falls back to python with a warning.
            warnings.simplefilter("ignore", RuntimeWarning)
            restored = sketch_from_dict(document)
        assert restored.backend_name == ("native" if _native_ready() else "python")
        assert not hasattr(restored.config, "scalar_tail_threshold")
        assert restored.update_count == sketch.update_count
        assert_same_answers(restored, sketch, items)
        assert "scalar_tail_threshold" not in sketch_to_dict(restored)["config"]


class TestCompileFlags:
    """The kernel build is strict by construction, and the sanitize mode
    is a first-class flavor of the same cache."""

    def test_default_flags_are_warning_strict(self, monkeypatch):
        from repro.core import _native

        # The default flavor, even when this suite itself runs sanitized.
        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        flags = _native.compile_flags()
        assert "-Wall" in flags and "-Wextra" in flags
        assert "-O3" in flags
        assert not any(flag.startswith("-fsanitize") for flag in flags)

    def test_sanitize_mode_selects_asan_ubsan_flags(self, monkeypatch):
        from repro.core import _native

        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "1")
        flags = _native.compile_flags()
        assert "-fsanitize=address,undefined" in flags
        assert "-fno-sanitize-recover=all" in flags
        assert "-Werror" in flags and "-Wall" in flags and "-Wextra" in flags

    def test_flag_flavors_key_separate_cache_entries(self, monkeypatch):
        from repro.core import _native

        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        default_tag = _native._source_tag()
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "1")
        assert _native._source_tag() != default_tag

    def test_sanitize_without_asan_preload_degrades_cleanly(self, monkeypatch):
        from repro.core import _native

        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "1")
        monkeypatch.delenv("LD_PRELOAD", raising=False)
        # Disabled, the loader would refuse before it looks for ASan.
        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        _native._reset_for_tests()
        try:
            with pytest.raises(_native.NativeUnavailable, match="ASan runtime"):
                _native.load_native()
            assert not _native.native_available()
        finally:
            # Drop the cached failure so later tests re-probe with the
            # default (non-sanitized) flavor.
            _native._reset_for_tests()
