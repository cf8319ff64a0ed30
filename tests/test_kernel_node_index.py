"""A native GSS's reverse node index against the python backend's.

On a native sketch the kernel's node table is the only store of string node
IDs (:class:`repro.core.reverse_index.KernelNodeIndex`); only IDs it cannot
hold — non-``str`` IDs, and strings past its arena — live in a Python
:class:`~repro.core.reverse_index.NodeIndex`.  The laws, against the python
backend's plain ``NodeIndex`` fed the same stream:

* every index call answers the same — ``expand``, ``originals``,
  ``known_nodes`` order (first-seen, across ``str`` and ``int`` IDs),
  ``collision_count``, ``len``, ``in``, ``get``, ``hash_of`` — on a tiny
  hash range where IDs collide, with NUL-containing IDs;
* ``to_dict`` is the same document, byte for byte, and restores onto
  either backend; ``merge_into`` agrees in both directions; a sketch
  without an index places the same edges; the ``partitioned-gss`` shards
  match the scalar-routed oracle;
* a node restored under a hash other than ``H(v)`` keeps it on both
  backends, through ``update_many`` and ``update`` alike, and a record that
  conflicts is refused alike;
* with the kernel's arena full, new IDs go to the Python side and keep
  their first-seen place.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.core.merge import merge_into
from repro.core.reverse_index import KernelNodeIndex, NodeIndex
from repro.core.serialization import sketch_from_dict
from shard_oracle import ShardOracle, partitioned_gss


def _native_ready() -> bool:
    from repro.core._native import native_available

    return native_available()


pytestmark = pytest.mark.skipif(
    not _native_ready(), reason="native kernel unavailable or disabled"
)

#: M = 16: a few dozen IDs share every hash several times over.
TINY = dict(matrix_width=4, fingerprint_bits=2, sequence_length=2, candidate_buckets=2)


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
items = st.tuples(node_ids, node_ids, st.sampled_from([1.0, 2.5, -1.0]))
#: A feed: batches, each applied whole or one item at a time.
feeds = st.lists(st.tuples(st.lists(items, max_size=12), st.booleans()), max_size=6)


def fed(backend: str, feed, **overrides) -> GSS:
    sketch = make(backend, **overrides)
    for batch, one_by_one in feed:
        if one_by_one:
            for item in batch:
                sketch.update(*item)
        else:
            sketch.update_many(batch)
    return sketch


def assert_same_index(native: GSS, reference: GSS) -> None:
    index, expected = native.node_index, reference.node_index
    assert isinstance(index, KernelNodeIndex) and isinstance(expected, NodeIndex)
    hash_range = native.config.hash_range
    assert index.known_nodes() == expected.known_nodes()
    assert index.items() == expected.items()
    assert len(index) == len(expected)
    assert index.collision_count() == expected.collision_count()
    assert index.memory_bytes() == expected.memory_bytes()
    for node_hash in range(hash_range):
        assert index.originals(node_hash) == expected.originals(node_hash)
    everything = list(range(hash_range)) * 2
    assert index.expand(everything) == expected.expand(everything)
    assert index.expand([]) == set()
    probes = expected.known_nodes() + ["never", 99, "a\x00never"]
    for node in probes:
        assert (node in index) == (node in expected)
        assert index.get(node) == expected.get(node)
        if node in expected:
            assert index.hash_of(node) == expected.hash_of(node)
        else:
            with pytest.raises(KeyError):
                index.hash_of(node)
    for node in expected.known_nodes():
        assert native.successor_query(node) == reference.successor_query(node)
        assert native.precursor_query(node) == reference.precursor_query(node)


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(feed=feeds)
    def test_index_snapshot_and_merges_match_python(self, feed):
        native, reference = fed("native", feed), fed("python", feed)
        assert_same_index(native, reference)
        assert document(native) == document(reference)
        assert native.update_count == reference.update_count
        for doc, backend in ((native.to_dict(), "python"), (reference.to_dict(), "native")):
            restored = sketch_from_dict(doc, backend=backend)
            assert document(restored) == document(reference)
        expected = merge_into(fed("python", feed[:1]), reference)
        for target, source in (("native", reference), ("python", native)):
            merged = merge_into(fed(target, feed[:1]), source)
            assert document(merged) == document(expected)

    @settings(max_examples=20, deadline=None)
    @given(feed=feeds)
    def test_without_an_index_the_same_edges_are_placed(self, feed):
        native = fed("native", feed, keep_node_index=False)
        reference = fed("python", feed, keep_node_index=False)
        assert native.node_index is None
        assert document(native) == document(reference)

    @settings(max_examples=15, deadline=None)
    @given(feed=feeds)
    def test_partitioned_shards_match_the_oracle(self, feed):
        config = GSSConfig(backend="native", **TINY)
        oracle = ShardOracle(GSSConfig(**TINY), shards=2)
        with partitioned_gss(config, partitions=2) as summary:
            for batch, one_by_one in feed:
                oracle.update_many(batch)
                if one_by_one:
                    for item in batch:
                        summary.update(*item)
                else:
                    summary.update_many(batch)
            summary.flush()
            for shard, expected in zip(summary.shards, oracle.shards):
                assert shard.backend_name == "native"
                assert_same_index(shard, expected)
                assert document(shard) == document(expected)


def foreign_document() -> dict:
    """A snapshot recording ``"a"`` under a hash other than ``H("a")``."""
    sketch = make("python")
    sketch.update_many([("a", "b", 1.0), (5, "b", 2.0)])
    doc = sketch.to_dict()
    [entry] = [entry for entry in doc["node_index"] if entry["raw"] == "a"]
    entry["hash"] = (entry["hash"] + 1) % sketch.config.hash_range
    return doc


def apply(sketch: GSS, batch, one_by_one: bool) -> None:
    if one_by_one:
        for item in batch:
            sketch.update(*item)
    else:
        sketch.update_many(batch)


class TestRecordedHashes:
    @pytest.mark.parametrize("one_by_one", [False, True], ids=["update_many", "update"])
    @pytest.mark.parametrize("batch", [[("a", "c", 1.0)], [("a", "c", 1.0), (5, "a", 1.0)],
                                       [("z", "a", 1.0)]])
    def test_a_restored_foreign_hash_is_kept_by_both_backends(self, batch, one_by_one):
        native = sketch_from_dict(foreign_document(), backend="native")
        reference = sketch_from_dict(foreign_document(), backend="python")
        foreign = reference.node_index.get("a")
        assert foreign != reference.node_hash("a")
        assert native.node_index.get("a") == foreign
        apply(native, batch, one_by_one)
        apply(reference, batch, one_by_one)
        assert native.update_count == reference.update_count == 2 + len(batch)
        assert document(native) == document(reference)
        assert_same_index(native, reference)
        source, destination, weight = batch[0]
        hashes = [foreign if node == "a" else native.node_hash(node) for node in (source, destination)]
        assert native.edge_query_by_hash(*hashes) == weight

    def test_a_conflicting_record_is_refused_alike(self):
        sketches = [sketch_from_dict(foreign_document(), backend=backend)
                    for backend in ("native", "python")]
        hash_range = sketches[0].config.hash_range
        errors = []
        for sketch in sketches:
            index = sketch.node_index
            other = {node: (index.get(node) + 1) % hash_range for node in ("a", "b", 5)}
            pairs = [("new", 3), ("a", other["a"]), (77, 4), ("b", other["b"]), (5, other[5])]
            with pytest.raises(ValueError) as error:
                index.record_new_many(pairs)
            errors.append(str(error.value))
            for node in ("a", 5):
                with pytest.raises(ValueError):
                    index.record(node, other[node])
                index.record(node, index.get(node))
        assert errors[0] == errors[1] and "'a'" in errors[0]
        assert_same_index(*sketches)


def test_ids_come_back_as_plain_str():
    class Label(str):
        pass

    sketch = make("native")
    sketch.update_many([(Label("x"), Label("y"), 1.0)])
    [found] = sketch.successor_query("x")
    assert found == "y" and type(found) is str
    assert sketch.node_index.known_nodes() == ["x", "y"]


def test_a_full_arena_sends_new_ids_to_the_python_side(monkeypatch):
    first = [("a", "b", 1.0), (1, "c", 1.0)]
    later = [("d", 2, 1.0), ("a", "e\x00f", 2.0), ("g", "b", 1.0), (3, "d", 1.0)]
    native, reference = make("native"), make("python")
    native.update_many(first)
    reference.update_many(first)
    index = native.node_index
    # The kernel refuses every addition once its arena is full; only
    # lookups still work, and its text path declines (it would too).
    table = index._table
    monkeypatch.setattr(
        index, "_table",
        lambda mode, blob, lengths, hashes=None: (-2, None, None) if mode else table(mode, blob, lengths),
    )
    monkeypatch.setattr(native, "_ingest_text", None)
    native.update_many(later)
    reference.update_many(later)
    native.update("h", "a", 1.0)
    reference.update("h", "a", 1.0)
    assert "d" in index._others and "a" not in index._others
    assert_same_index(native, reference)
    assert document(native) == document(reference)
