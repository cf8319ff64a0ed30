"""A native GSS's kernel-owned left-over buffer and its one-call queries,
against the python backend.

On a native sketch the left-over buffer lives in the compiled kernel
(:class:`repro.core.buffer.KernelBuffer`): every kernel batch and scalar
update spills into it, and a query by string node ID is one kernel call that
reads the matrix, the buffer and the node table.  The laws, on a matrix so
small that most edges spill, against the python backend fed the same stream
(string, integer and NUL-bearing IDs; negative and ``-0.0`` weights; scalar,
batch and by-hash updates):

* the buffer answers the same — ``edges()`` order, ``successors_of``,
  ``precursors_of`` (as a set: the python buffer gives set order), ``get``,
  ``contains``, ``weight``, ``len``, ``memory_bytes`` — and so do
  ``reconstruct_sketch_edges`` (order included), ``to_dict`` (byte for
  byte), ``update_count`` and ``memory_bytes``;
* ``merge_into`` agrees in both directions, and the ``partitioned-gss``
  shards match the scalar-routed oracle;
* the one-call answers equal the component calls (``successor_hashes`` +
  ``node_index.expand``, ``node_hash`` + ``edge_query_by_hash``) and the
  python backend's, with the same ``count_key_hashes`` totals;
* a snapshot whose buffer is malformed is refused.

``tests/test_serialization.py::TestRestoredBuffer`` re-feeds restored
sketches.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buffer import KernelBuffer, LeftoverBuffer
from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.core.merge import merge_into
from repro.core.serialization import sketch_from_dict
from repro.hashing import count_key_hashes
from shard_oracle import ShardOracle, partitioned_gss


def _native_ready() -> bool:
    from repro.core._native import native_available

    return native_available()


pytestmark = pytest.mark.skipif(
    not _native_ready(), reason="native kernel unavailable or disabled"
)

#: 4 x 4 buckets of one room and M = 16: most distinct edges spill.
TINY = dict(matrix_width=4, fingerprint_bits=2, rooms=1, sequence_length=2, candidate_buckets=2)


def make(backend: str, **overrides) -> GSS:
    return GSS(GSSConfig(backend=backend, **{**TINY, **overrides}))


def document(sketch: GSS) -> str:
    """``to_dict`` as JSON, with the backend name (which differs) blanked."""
    doc = sketch.to_dict()
    doc["config"]["backend"] = "-"
    return json.dumps(doc)


node_ids = st.one_of(
    st.text(alphabet="ab\x00é", max_size=3),
    st.integers(min_value=-3, max_value=12),
)
weights = st.sampled_from([1.0, 2.5, -1.0, -0.0, 0.5, 3])
items = st.tuples(node_ids, node_ids, weights)
hash_items = st.tuples(st.integers(0, 15), st.integers(0, 15), weights)
#: A feed: steps applied in order — a batch by IDs (whole or one item at a
#: time) or a batch by hashes (whole or one item at a time).
steps = st.one_of(
    st.tuples(st.just("ids"), st.lists(items, max_size=12), st.booleans()),
    st.tuples(st.just("hashes"), st.lists(hash_items, max_size=6), st.booleans()),
)
feeds = st.lists(steps, max_size=6)


def apply(sketch: GSS, feed) -> GSS:
    for kind, batch, one_by_one in feed:
        if kind == "ids":
            if one_by_one:
                for item in batch:
                    sketch.update(*item)
            else:
                sketch.update_many(batch)
        elif one_by_one:
            for item in batch:
                sketch.update_by_hash(*item)
        else:
            sketch.update_many_by_hash(batch)
    return sketch


def fed(backend: str, feed, **overrides) -> GSS:
    return apply(make(backend, **overrides), feed)


def signs(values):
    """Floats with their sign made visible, so ``-0.0 != 0.0``."""
    return [(value, math.copysign(1.0, value)) for value in values]


def assert_same_buffer(native: GSS, reference: GSS) -> None:
    buffer, expected = native.buffer, reference.buffer
    assert isinstance(buffer, KernelBuffer) and isinstance(expected, LeftoverBuffer)
    edges = list(buffer.edges())
    assert edges == list(expected.edges())
    assert signs(weight for _, _, weight in edges) == signs(
        weight for _, _, weight in expected.edges()
    )
    assert len(buffer) == len(expected) and bool(buffer) == bool(expected)
    assert buffer.memory_bytes() == expected.memory_bytes()
    for node_hash in range(native.config.hash_range):
        assert buffer.successors_of(node_hash) == expected.successors_of(node_hash)
        assert sorted(buffer.precursors_of(node_hash)) == sorted(
            expected.precursors_of(node_hash)
        )
        for other in range(native.config.hash_range):
            assert buffer.contains(node_hash, other) == expected.contains(node_hash, other)
            assert buffer.get(node_hash, other, "absent") == expected.get(
                node_hash, other, "absent"
            )
            if expected.contains(node_hash, other):
                assert buffer.weight(node_hash, other) == expected.weight(node_hash, other)
            else:
                with pytest.raises(KeyError):
                    buffer.weight(node_hash, other)


def assert_same_sketch(native: GSS, reference: GSS) -> None:
    assert native.backend_name == "native" and reference.backend_name == "python"
    assert_same_buffer(native, reference)
    assert native.reconstruct_sketch_edges() == reference.reconstruct_sketch_edges()
    assert document(native) == document(reference)
    assert native.update_count == reference.update_count
    assert native.memory_bytes() == reference.memory_bytes()
    assert native.buffer_percentage == reference.buffer_percentage


def query_nodes(sketch: GSS):
    nodes = sketch.node_index.known_nodes() if sketch.node_index is not None else []
    return nodes + ["never", "a\x00never", 99]


def answers(sketch: GSS):
    """Every query answer over the sketch's nodes, and the key hashes they
    cost."""
    nodes = query_nodes(sketch)
    with count_key_hashes() as counter:
        found = [
            weight if weight is None else signs([weight])
            for weight in (
                sketch.edge_query(source, destination) for source in nodes for destination in nodes
            )
        ]
        if sketch.node_index is not None:
            found += [(sketch.successor_query(node), sketch.precursor_query(node)) for node in nodes]
    return found, counter.count


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(feed=feeds)
    def test_buffer_snapshot_and_answers_match_python(self, feed):
        native, reference = fed("native", feed), fed("python", feed)
        assert_same_sketch(native, reference)
        assert answers(native) == answers(reference)

    @settings(max_examples=25, deadline=None)
    @given(feed=feeds, more=feeds)
    def test_restores_and_merges_match_python(self, feed, more):
        native, reference = fed("native", feed), fed("python", feed)
        for doc in (native.to_dict(), reference.to_dict()):
            assert_same_sketch(
                apply(sketch_from_dict(doc, backend="native"), more),
                apply(sketch_from_dict(doc, backend="python"), more),
            )
        expected = merge_into(fed("python", more), reference)
        for target, source in (("native", reference), ("python", native)):
            merged = merge_into(fed(target, more), source)
            assert document(merged) == document(expected)
            assert merged.reconstruct_sketch_edges() == expected.reconstruct_sketch_edges()

    @settings(max_examples=25, deadline=None)
    @given(feed=feeds)
    def test_one_call_answers_equal_the_component_calls(self, feed):
        native = fed("native", feed)
        index = native.node_index
        for node in query_nodes(native):
            if not isinstance(node, str):
                continue
            with count_key_hashes() as fused:
                successors = native.successor_query(node)
                precursors = native.precursor_query(node)
                weight = native.edge_query(node, node)
            with count_key_hashes() as parts:
                assert successors == index.expand(native.successor_hashes(node))
                assert precursors == index.expand(native.precursor_hashes(node))
                by_hash = native.edge_query_by_hash(native.node_hash(node), native.node_hash(node))
            assert signs([weight or 0.0]) == signs([by_hash or 0.0])
            assert (weight is None) == (by_hash is None)
            assert fused.count == parts.count == 4

    @settings(max_examples=20, deadline=None)
    @given(feed=feeds)
    def test_without_an_index_the_same_sketch_is_built(self, feed):
        native = fed("native", feed, keep_node_index=False)
        reference = fed("python", feed, keep_node_index=False)
        assert_same_sketch(native, reference)
        assert answers(native) == answers(reference)

    @settings(max_examples=15, deadline=None)
    @given(feed=feeds)
    def test_partitioned_shards_match_the_oracle(self, feed):
        config = GSSConfig(backend="native", **TINY)
        oracle = ShardOracle(GSSConfig(**TINY), shards=2)
        with partitioned_gss(config, partitions=2) as summary:
            for kind, batch, one_by_one in feed:
                if kind != "ids":
                    continue
                oracle.update_many(batch)
                if one_by_one:
                    for item in batch:
                        summary.update(*item)
                else:
                    summary.update_many(batch)
            summary.flush()
            for shard, expected in zip(summary.shards, oracle.shards):
                assert_same_sketch(shard, expected)
            for node in query_nodes(oracle.shards[0]) + query_nodes(oracle.shards[1]):
                assert summary.successor_query(node) == oracle.successor_query(node)
                assert summary.precursor_query(node) == oracle.precursor_query(node)


class TestMalformedSnapshots:
    def test_a_buffer_hash_outside_the_hash_range_is_refused(self):
        for backend in ("python", "native"):
            doc = make(backend).to_dict()
            doc["buffer"] = [{"source": 16, "destination": 3, "weight": 1.0}]
            with pytest.raises(ValueError, match="outside"):
                sketch_from_dict(doc)

    def test_a_buffered_edge_that_repeats_a_room_is_refused(self):
        sketch = make("native")
        sketch.update_by_hash(5, 6, 1.0)
        doc = sketch.to_dict()
        doc["buffer"] = [{"source": 5, "destination": 6, "weight": 1.0}]
        with pytest.raises(ValueError, match="matrix room"):
            sketch_from_dict(doc)
