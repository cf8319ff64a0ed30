"""Tests for :mod:`repro.cluster.front_end`: the sharded ingest front ends.

Two front ends turn a batch into one ``columns`` message per shard — the
kernel's ``gss_route_text_batch`` (all-string batches, text or prehashed)
and the Python :func:`split_columns` (everything else).  The laws:

* on the batches both can take, they send every shard the same columns,
  and the same node pairs except that the kernel leaves out nodes it has
  already sent that shard — however the node's batches arrive;
* either way, both deployments of ``ShardedSummary`` leave every shard's
  ``to_dict`` — node index order included — equal to the scalar-routed
  :class:`ShardOracle`;
* a shard that refuses a message, or a message that never reaches its
  shard, costs no node its place in the shard's index;
* a malformed message raises ``ValueError`` before the shard is touched,
  and the shard serves the next request.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import SketchSpec
from repro.cluster import ClusterError, ShardedSummary
from repro.cluster.front_end import (
    MAX_KERNEL_SHARDS,
    KernelFrontEnd,
    ShardColumns,
    decode_columns,
    encode_columns,
    split_columns,
)
from repro.cluster.worker import Shard
from repro.core.config import GSSConfig
from repro.hashing.vectorized import NUMPY_AVAILABLE
from repro.streaming.batch import HashedBatch, HashSpec
from shard_oracle import ShardOracle, gss_params, partitioned_gss


def _native_ready() -> bool:
    from repro.core._native import native_available

    return native_available()


requires_native = pytest.mark.skipif(
    not _native_ready(), reason="native kernel unavailable or disabled"
)
requires_numpy = pytest.mark.skipif(not NUMPY_AVAILABLE, reason="needs NumPy")

#: Small shards, so a few dozen distinct edges overflow into the buffers.
CONFIG = GSSConfig(matrix_width=6, sequence_length=3, candidate_buckets=3)
SPEC = SketchSpec("gss", seed=CONFIG.seed, params=gss_params(CONFIG))
ROUTED = HashSpec(CONFIG.seed, CONFIG.hash_range, routing_seed=97)
WORKER_COUNTS = [1, 2, 3, 5]

# Node IDs: multi-byte and empty strings, drawn from a small pool so
# duplicates are common; a pool may also hold an ID with an embedded NUL
# or an int, which the kernel front end must refuse.
_names = st.text(alphabet=["a", "b", "é", "日", "😀"], max_size=3)
_odd_ids = st.sampled_from(["x\x00y", "\x00", 7, -3])


@st.composite
def batch_sequences(draw, odd: bool = True):
    pool = draw(st.lists(_names, min_size=1, max_size=8, unique=True))
    if odd and draw(st.booleans()):
        pool.append(draw(_odd_ids))
    item = st.tuples(
        st.sampled_from(pool),
        st.sampled_from(pool),
        st.sampled_from([1.0, 2.0, 0.5, -1.0]),
    )
    batch = st.lists(item, min_size=1, max_size=40)
    return draw(st.lists(batch, min_size=1, max_size=5))


def _as_list(column):
    return column if isinstance(column, list) else column.tolist()


def _plain(columns: ShardColumns):
    return tuple(
        _as_list(column) if index != 3 else list(column)
        for index, column in enumerate(columns)
    )


def _kernel_can_take(items) -> bool:
    return all(
        isinstance(node, str) and "\x00" not in node
        for source, destination, _ in items
        for node in (source, destination)
    )


def _expected_messages(python, sent):
    """The Python front end's messages with the nodes each shard was already
    sent filtered out — what the kernel router sends — updating ``sent``."""
    expected = []
    for shard, columns in python:
        sources, destinations, weights, nodes, hashes = _plain(columns)
        fresh = [(node, h) for node, h in zip(nodes, hashes) if node not in sent[shard]]
        sent[shard].update(node for node, _ in fresh)
        expected.append(
            (
                shard,
                (
                    sources,
                    destinations,
                    [float(weight) for weight in weights],
                    [node for node, _ in fresh],
                    [h for _, h in fresh],
                ),
            )
        )
    return expected


class TestFrontEndEquivalence:
    @requires_native
    @settings(max_examples=60, deadline=None)
    @given(batches=batch_sequences(), workers=st.sampled_from(WORKER_COUNTS))
    def test_kernel_and_python_front_ends_send_the_same_messages(self, batches, workers):
        kernel = KernelFrontEnd.create(ROUTED, workers)
        sent = [set() for _ in range(workers)]  # what the kernel has sent each shard
        for items in batches:
            python = list(split_columns(HashedBatch.from_items(items, ROUTED), workers))
            routed = kernel.route(items)
            if not _kernel_can_take(items):
                assert routed is None
                continue
            assert [(shard, _plain(c)) for shard, c in routed] == _expected_messages(
                python, sent
            )

    @requires_native
    @settings(max_examples=30, deadline=None)
    @given(
        batches=batch_sequences(odd=False),
        workers=st.sampled_from(WORKER_COUNTS),
        prehashed=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    def test_prehashed_and_text_batches_share_the_router(self, batches, workers, prehashed):
        oracle = ShardOracle(CONFIG, shards=workers)
        with partitioned_gss(CONFIG, partitions=workers) as summary:
            sent = _record_sent_nodes(summary)
            for items, hashed in zip(batches, prehashed):
                oracle.update_many(items)
                if hashed:
                    summary.update_many_hashed(
                        HashedBatch.from_items(items, summary.hash_spec())
                    )
                else:
                    summary.update_many(items)
            # Each shard was sent each of its nodes exactly once.
            for shard, nodes in enumerate(sent):
                assert sorted(nodes) == sorted(oracle.shards[shard]._node_index._hash_of)
            assert _shard_documents(summary) == [shard.to_dict() for shard in oracle.shards]

    def test_python_front_end_pairs_are_distinct_and_interleaved(self):
        items = [("a", "b", 1.0), ("b", "a", 1.0), ("c", "a", 1.0), ("a", "d", 1.0)]
        [(shard, columns)] = split_columns(HashedBatch.from_items(items, ROUTED), 1)
        assert shard == 0
        assert list(columns.nodes) == ["a", "b", "c", "d"]
        assert len(columns.node_hashes) == 4

    def test_more_shards_than_the_bitmask_holds_take_the_python_front_end(self):
        assert KernelFrontEnd.create(ROUTED, MAX_KERNEL_SHARDS + 1) is None


def _record_sent_nodes(summary):
    """Per shard, the list every node sent to it is appended to."""
    sent = [[] for _ in summary._handles]
    for nodes, handle in zip(sent, summary._handles):
        send = handle.send_columns

        def record(columns, nodes=nodes, send=send):
            nodes.extend(columns.nodes)
            send(columns)

        handle.send_columns = record
    return sent


def _shard_documents(summary):
    if summary.in_process:
        return [shard.to_dict() for shard in summary.shards]
    return summary.shard_snapshots()


def _feed(summary, oracle, batches):
    """Feed each batch to the oracle, and to ``summary`` in turn through
    ``update_many``, scalar ``update`` calls (still queued when the next
    ``update_many`` comes), ``update_many`` and, prehashed as a serve client
    ships it, ``update_many_hashed``."""
    for number, items in enumerate(batches):
        oracle.update_many(items)
        if number % 4 == 1:
            for item in items:
                summary.update(*item)
        elif number % 4 == 3:
            summary.update_many_hashed(HashedBatch.from_items(items, summary.hash_spec()))
        else:
            summary.update_many(items)


class TestDeploymentsEqualTheOracle:
    @settings(max_examples=40, deadline=None)
    @given(batches=batch_sequences(), workers=st.sampled_from(WORKER_COUNTS))
    def test_in_process_shards(self, batches, workers):
        oracle = ShardOracle(CONFIG, shards=workers)
        with partitioned_gss(CONFIG, partitions=workers) as summary:
            _feed(summary, oracle, batches)
            assert _shard_documents(summary) == [shard.to_dict() for shard in oracle.shards]

    @settings(max_examples=8, deadline=None)
    @given(batches=batch_sequences(), workers=st.sampled_from(WORKER_COUNTS))
    def test_worker_processes(self, batches, workers):
        oracle = ShardOracle(CONFIG, shards=workers)
        with ShardedSummary(SPEC, workers=workers, batch_size=16) as summary:
            _feed(summary, oracle, batches)
            assert _shard_documents(summary) == [shard.to_dict() for shard in oracle.shards]


def _malformed_messages():
    good = ShardColumns([1, 2], [3, 4], [1.0, 1.0], ["a"], [5])
    messages = [
        ("pair lists of unequal length", good._replace(node_hashes=[5, 6])),
        ("columns of unequal length", good._replace(weights=[1.0])),
    ]
    if NUMPY_AVAILABLE:
        blob = encode_columns(good)
        messages += [
            ("blob longer than its header says", blob + b"\x00"),
            ("blob shorter than its header says", blob[:-3]),
            ("blob shorter than a header", blob[:5]),
        ]
    return messages


class TestMalformedMessages:
    @requires_numpy
    def test_blob_round_trip(self):
        columns = ShardColumns([1, 2, 3], [4, 5, 6], [1.0, -2.0, 0.5], ["é", ""], [7, 8])
        assert _plain(decode_columns(encode_columns(columns))) == _plain(columns)

    @pytest.mark.parametrize("case", range(len(_malformed_messages())))
    def test_shard_refuses_before_touching_the_summary(self, case):
        reason, payload = _malformed_messages()[case]
        shard = Shard(SPEC, 0)
        shard.apply(("columns", ShardColumns([1], [2], [1.0], ["a"], [1])))
        before = shard.summary.to_dict()
        with pytest.raises(ValueError):
            shard.apply(("columns", payload))
        assert shard.summary.to_dict() == before, reason
        assert shard.apply(("call", "edge_query_by_hash", (1, 2))) == 1.0

    @pytest.mark.parametrize("in_process", [True, False], ids=["inline", "worker"])
    @pytest.mark.parametrize("case", range(len(_malformed_messages())))
    def test_deployment_serves_the_next_request(self, case, in_process):
        reason, payload = _malformed_messages()[case]
        with ShardedSummary(SPEC, workers=1, in_process=in_process) as summary:
            summary.update_many([("a", "b", 2.0), ("b", "c", 1.0)])
            before = _shard_documents(summary)
            error = ValueError if in_process else ClusterError
            with pytest.raises(error, match="ValueError|length|header|nodes"):
                summary._handles[0].request(("columns", payload))
            assert _shard_documents(summary) == before, reason
            assert summary.edge_query("a", "b") == 2.0
            summary.update("c", "a", 1.0)
            assert summary.successor_query("c") == {"a"}


def _routed_to(summary, shard, make):
    """The first of ``make(0)``, ``make(1)``, ... whose node routes to ``shard``."""
    return next(
        node for node in map(make, range(1000)) if summary.shard_of(node) == shard
    )


DEPLOYMENTS = pytest.mark.parametrize("in_process", [True, False], ids=["inline", "worker"])


class TestFailedMessages:
    def test_a_refused_pair_still_records_the_others(self):
        from repro.core.reverse_index import NodeIndex

        index = NodeIndex()
        index.record("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            index.record_new_many([("b", 2), ("a", 3), ("c", 4)])
        assert [index.get(node) for node in "abc"] == [1, 2, 4]

    @DEPLOYMENTS
    def test_nodes_of_a_refused_message_are_not_lost(self, in_process):
        with ShardedSummary(SPEC, workers=1, in_process=in_process) as summary:
            # A frame with a non-string ID takes the Python front end, which
            # ships the frame's own hashes: "a" lands under a wrong one.
            frame = HashedBatch.from_items([(7, "a", 1.0)], summary.hash_spec())
            frame.destination_hashes[0] = (
                frame.destination_hashes[0] + 1
            ) % summary.hash_spec().hash_range
            summary.update_many_hashed(frame)
            # The shard refuses the next message for "a", after recording "n".
            with pytest.raises((ValueError, ClusterError), match="already registered"):
                summary.update_many([("a", "n", 1.0)])
                summary.flush()
            summary.update_many([("x", "n", 1.0)])
            assert summary.successor_query("x") == {"n"}

    @DEPLOYMENTS
    def test_nodes_of_an_unsent_message_are_sent_again(self, in_process):
        with ShardedSummary(SPEC, workers=2, in_process=in_process) as summary:
            number = _routed_to(summary, 0, int)
            first = _routed_to(summary, 0, "a{}".format)
            second = _routed_to(summary, 1, "b{}".format)
            frame = HashedBatch.from_items([(number, "n", 1.0)], summary.hash_spec())
            frame.destination_hashes[0] = (
                frame.destination_hashes[0] + 1
            ) % summary.hash_spec().hash_range
            summary.update_many_hashed(frame)
            # Shard 0 refuses its message; in process, shard 1's is then
            # never sent, though the router had counted "m" as sent.
            with pytest.raises((ValueError, ClusterError), match="already registered"):
                summary.update_many([(first, "n", 1.0), (second, "m", 1.0)])
                summary.flush()
            summary.update_many([(second, "m", 1.0)])
            assert summary.successor_query(second) == {"m"}


class TestScalarOutbox:
    @DEPLOYMENTS
    def test_an_unroutable_batch_leaves_queued_updates_queued(self, in_process):
        with ShardedSummary(SPEC, workers=2, in_process=in_process) as summary:
            summary.update("a", "b", 1.0)
            # Refused by the front end, or (lists without NumPy) by the shard.
            with pytest.raises((TypeError, ValueError, ClusterError)):
                summary.update_many([("c", "d", "x")])
                summary.flush()
            assert summary.edge_query("a", "b") == 1.0

    @DEPLOYMENTS
    def test_an_unroutable_queued_update_does_not_block_later_ones(self, in_process):
        with ShardedSummary(SPEC, workers=2, in_process=in_process) as summary:
            summary.update("a", "b", "x")
            with pytest.raises((TypeError, ValueError, ClusterError)):
                summary.flush()
            summary.update("c", "d", 1.0)
            assert summary.edge_query("c", "d") == 1.0

    def test_reading_stats_sends_nothing(self):
        with ShardedSummary(SPEC, workers=2, in_process=True) as summary:
            summary.update("a", "b", 1.0)
            stats = summary.shard_ingest_stats()
            assert sorted(stats.items_routed) == [0, 1]
            assert [handle.items_routed for handle in summary._handles] == [0, 0]
            summary.flush()
            assert summary.shard_ingest_stats() == stats
