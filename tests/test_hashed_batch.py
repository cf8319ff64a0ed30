"""Tests for the hash-once ingest pipeline (:mod:`repro.streaming.batch`).

The load-bearing invariant: every distinct key of a batch is hashed exactly
once, at the edge of the system, and the resulting columns flow through
routing (``ShardedSummary``, in-process or worker processes) into the matrix backends
without any layer re-hashing.  The :func:`repro.hashing.count_key_hashes`
instrumentation hook counts actual mixing passes (scalar and vectorized
leaves alike), which is what lets these tests *prove* the invariant instead
of asserting it structurally.
"""

from __future__ import annotations

import pytest

from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.hashing import count_key_hashes, hash_key
from repro.hashing.vectorized import NUMPY_AVAILABLE
from repro.streaming.batch import HashedBatch, HashSpec
from shard_oracle import partitioned_gss


SPEC = HashSpec(seed=7, hash_range=1 << 20)
ROUTED = SPEC.with_routing(97)


def items_fixture(count: int = 120):
    return [
        (f"s{i % 9}", f"d{(i * 5 + 1) % 13}", float(1 + i % 4)) for i in range(count)
    ]


class Edge:
    def __init__(self, source, destination, weight, timestamp=None):
        self.source = source
        self.destination = destination
        self.weight = weight
        if timestamp is not None:
            self.timestamp = timestamp


class TestHashSpec:
    def test_matches_ignores_routing_seed(self):
        assert SPEC.matches(ROUTED)
        assert ROUTED.matches(SPEC)
        assert not SPEC.matches(HashSpec(seed=8, hash_range=SPEC.hash_range))
        assert not SPEC.matches(HashSpec(seed=SPEC.seed, hash_range=64))

    def test_with_routing_keeps_node_hash_family(self):
        derived = SPEC.with_routing(5)
        assert derived.seed == SPEC.seed
        assert derived.hash_range == SPEC.hash_range
        assert derived.routing_seed == 5


class TestNormalizeOnlyMode:
    def test_bare_tuples_pass_through_untouched(self):
        raw = [("a", "b", 1.0), ("c", "d", 2.0, 17)]
        batch = HashedBatch.from_items(raw)
        assert batch.items() == raw
        assert not batch.hashed
        assert len(batch) == 2

    def test_edge_like_items_become_triples(self):
        batch = HashedBatch.from_items([Edge("a", "b", 3.0, timestamp=5)])
        assert batch.items() == [("a", "b", 3.0)]

    def test_keep_timestamps_yields_four_tuples(self):
        batch = HashedBatch.from_items(
            [Edge("a", "b", 3.0, timestamp=5), Edge("c", "d", 1.0)],
            keep_timestamps=True,
        )
        assert batch.items() == [("a", "b", 3.0, 5), ("c", "d", 1.0, None)]


class TestHashedMode:
    def test_columns_match_scalar_hashing(self):
        items = items_fixture()
        batch = HashedBatch.from_items(items, SPEC)
        assert batch.hashed
        for (source, destination, weight), sh, dh, w in zip(
            items,
            batch.source_hash_list(),
            batch.destination_hash_list(),
            batch.weight_list(),
        ):
            assert sh == hash_key(source, SPEC.seed) % SPEC.hash_range
            assert dh == hash_key(destination, SPEC.seed) % SPEC.hash_range
            assert w == weight

    def test_route_hashes_are_full_width_and_independent(self):
        batch = HashedBatch.from_items(items_fixture(), ROUTED)
        for source, route in zip(batch.sources, batch.route_hashes):
            assert int(route) == hash_key(source, 97)

    def test_hash_column_values_are_python_ints(self):
        batch = HashedBatch.from_items(items_fixture(), SPEC)
        for key, value in batch.node_hash_items():
            assert type(value) is int

    def test_edge_like_inputs_hash_identically_to_tuples(self):
        triples = items_fixture(40)
        edges = [Edge(*triple) for triple in triples]
        from_tuples = HashedBatch.from_items(triples, SPEC)
        from_edges = HashedBatch.from_items(edges, SPEC)
        assert from_tuples.source_hash_list() == from_edges.source_hash_list()
        assert from_tuples.destination_hash_list() == (
            from_edges.destination_hash_list()
        )

    def test_items_reconstitutes_triples(self):
        items = items_fixture(30)
        batch = HashedBatch.from_items(items, SPEC)
        assert batch.items() == items

    def test_tiny_batches_use_the_scalar_path_identically(self):
        # Below the vectorization threshold the columns are plain lists but
        # carry bit-identical hashes.
        batch = HashedBatch.from_items(items_fixture(3), ROUTED)
        assert len(batch) == 3
        assert batch.source_hash_list() == [
            hash_key(source, SPEC.seed) % SPEC.hash_range for source in batch.sources
        ]


class TestSplitByRoute:
    def test_partition_covers_batch_in_ascending_shard_order(self):
        batch = HashedBatch.from_items(items_fixture(), ROUTED)
        parts = batch.split_by_route(4)
        assert [shard for shard, _ in parts] == sorted({s for s, _ in parts})
        assert sum(len(sub) for _, sub in parts) == len(batch)

    def test_split_is_stable_within_shard(self):
        items = items_fixture(200)
        batch = HashedBatch.from_items(items, ROUTED)
        positions = {
            (source, destination, weight): index
            for index, (source, destination, weight) in enumerate(items)
        }
        for _, sub in batch.split_by_route(3):
            indexes = [positions[item] for item in sub.items()]
            assert indexes == sorted(indexes)

    def test_sub_batches_route_consistently_with_scalar_rule(self):
        batch = HashedBatch.from_items(items_fixture(), ROUTED)
        for shard, sub in batch.split_by_route(5):
            for source in sub.sources:
                assert hash_key(source, 97) % 5 == shard

    def test_split_requires_routing_hashes(self):
        batch = HashedBatch.from_items(items_fixture(), SPEC)
        with pytest.raises(ValueError, match="routing seed"):
            batch.split_by_route(2)

    def test_empty_batch_splits_to_nothing(self):
        assert HashedBatch.from_items([], ROUTED).split_by_route(3) == []


class TestMemoization:
    def test_memo_skips_keys_seen_in_earlier_batches(self):
        memo = {}
        first = items_fixture(60)
        with count_key_hashes() as counter:
            HashedBatch.from_items(first, SPEC, node_memo=memo)
        distinct = {key for s, d, _ in first for key in (s, d)}
        assert counter.count == len(distinct)
        with count_key_hashes() as counter:
            HashedBatch.from_items(first, SPEC, node_memo=memo)
        assert counter.count == 0

    def test_duplicate_keys_within_a_batch_hash_once(self):
        items = [("hot", f"d{i}", 1.0) for i in range(50)]
        with count_key_hashes() as counter:
            HashedBatch.from_items(items, ROUTED)
        # 51 node hashes ("hot" + 50 destinations) + 1 routing hash.
        assert counter.count == 52


class TestHashOnceThroughTheStack:
    """End-to-end: one hash pass per distinct key per routed batch."""

    def expected_hashes(self, items):
        nodes = {key for source, destination, _ in items for key in (source, destination)}
        sources = {source for source, _, _ in items}
        return len(nodes) + len(sources)

    def test_partitioned_update_many_hashes_once(self):
        deployment = partitioned_gss(
            GSSConfig(matrix_width=16, sequence_length=4, candidate_buckets=4),
            partitions=3,
        )
        items = items_fixture(200)
        with count_key_hashes() as counter:
            deployment.update_many(items)
        assert counter.count == self.expected_hashes(items)
        # Every key is memoized now: re-feeding the same stream chunk does
        # zero additional hash work anywhere in the stack.
        with count_key_hashes() as counter:
            deployment.update_many(items)
        assert counter.count == 0
        for source, destination, _ in items[:20]:
            assert deployment.edge_query(source, destination) is not None

    def test_gss_ingests_prehashed_batch_without_rehashing(self):
        config = GSSConfig(matrix_width=16, sequence_length=4, candidate_buckets=4)
        sketch = GSS(config)
        items = items_fixture(80)
        batch = HashedBatch.from_items(items, sketch.hash_spec())
        with count_key_hashes() as counter:
            sketch.update_many_hashed(batch)
        assert counter.count == 0

    def test_mismatched_spec_falls_back_to_one_rehash(self):
        config = GSSConfig(matrix_width=16, sequence_length=4, candidate_buckets=4)
        sketch = GSS(config)
        items = items_fixture(80)
        foreign = HashedBatch.from_items(items, HashSpec(seed=999, hash_range=64))
        sketch.update_many_hashed(foreign)
        reference = GSS(config)
        reference.update_many(items)
        for source, destination, _ in items:
            assert sketch.edge_query(source, destination) == reference.edge_query(
                source, destination
            )


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="needs the vectorized path")
class TestVectorizedParity:
    def test_array_and_list_splits_agree(self):
        # The same logical batch, built above and below the vectorization
        # threshold, must split identically.
        items = items_fixture(100)
        large = HashedBatch.from_items(items, ROUTED)
        split_large = {
            shard: sub.items() for shard, sub in large.split_by_route(4)
        }
        merged: dict = {}
        for index in range(0, len(items), 4):  # chunks below _VECTOR_MIN
            small = HashedBatch.from_items(items[index : index + 4], ROUTED)
            for shard, sub in small.split_by_route(4):
                merged.setdefault(shard, []).extend(sub.items())
        assert split_large == merged
