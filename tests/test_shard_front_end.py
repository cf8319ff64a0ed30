"""Tests for :mod:`repro.cluster.front_end`: the sharded ingest front ends.

Two front ends turn a batch into one ``columns`` message per shard — the
kernel's ``gss_route_text_batch`` (all-string batches) and the Python
:class:`PythonFrontEnd` (everything else), one router model.  The laws:

* the Python front end sends what a scalar reference sends: each item to
  shard ``hash_key(source, 97) % workers``, in stream order within a
  shard, and each node to each shard once, as Python ints, hashing each
  distinct node once and each distinct source once;
* on the batches the kernel takes, the two front ends send identical
  messages — batches and queued scalar updates alike;
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
    PythonFrontEnd,
    ShardColumns,
    decode_columns,
    encode_columns,
)
from repro.cluster.worker import Shard
from repro.core.config import GSSConfig
from repro.hashing import count_key_hashes
from repro.hashing.hash_functions import hash_key
from repro.hashing.vectorized import NUMPY_AVAILABLE
from repro.streaming.batch import HashSpec
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


class ScalarRouter:
    """The front ends' contract, item by item with scalar hashes: each item
    goes to shard ``hash_key(source, 97) % workers`` in stream order, and
    each node is sent to each shard the first time an item there names it."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.sent = [set() for _ in range(workers)]

    def route(self, items):
        parts = {}
        for source, destination, weight in items:
            shard = hash_key(source, ROUTED.routing_seed) % self.workers
            part = parts.setdefault(shard, ([], [], [], [], []))
            source_hash, destination_hash = (
                hash_key(node, ROUTED.seed) % ROUTED.hash_range
                for node in (source, destination)
            )
            part[0].append(source_hash)
            part[1].append(destination_hash)
            part[2].append(float(weight))
            for node, node_hash in ((source, source_hash), (destination, destination_hash)):
                if node not in self.sent[shard]:
                    self.sent[shard].add(node)
                    part[3].append(node)
                    part[4].append(node_hash)
        return sorted(parts.items())


class TestFrontEndEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(batches=batch_sequences(), workers=st.sampled_from(WORKER_COUNTS))
    def test_python_front_end_sends_what_the_scalar_router_sends(self, batches, workers):
        python = PythonFrontEnd(ROUTED, workers)
        reference = ScalarRouter(workers)
        nodes, sources = set(), set()
        for items in batches:
            with count_key_hashes() as counter:
                routed = python.route(items)
            expected = reference.route(items)
            assert [(shard, _plain(columns)) for shard, columns in routed] == expected
            for _, columns in routed:
                assert all(type(value) is int for value in columns.source_hashes)
                assert all(type(value) is int for value in columns.node_hashes)
            # One sketch hash per node and one routing hash per source, the
            # first time the router meets each: none on a repeat.
            new_nodes = {node for item in items for node in item[:2]} - nodes
            new_sources = {item[0] for item in items} - sources
            assert counter.count == len(new_nodes) + len(new_sources)
            nodes |= new_nodes
            sources |= new_sources

    @requires_native
    @settings(max_examples=60, deadline=None)
    @given(batches=batch_sequences(), workers=st.sampled_from(WORKER_COUNTS))
    def test_kernel_and_python_front_ends_send_the_same_messages(self, batches, workers):
        kernel = KernelFrontEnd.create(ROUTED, workers)
        python = PythonFrontEnd(ROUTED, workers)
        for items in batches:
            routed = kernel.route(items)
            if not _kernel_can_take(items):
                assert routed is None
                continue
            assert [(shard, _plain(c)) for shard, c in routed] == [
                (shard, _plain(c)) for shard, c in python.route(items)
            ]

    @requires_native
    @settings(max_examples=30, deadline=None)
    @given(
        batches=batch_sequences(odd=False),
        workers=st.sampled_from(WORKER_COUNTS),
        scalar=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    def test_scalar_and_batch_updates_share_the_router(self, batches, workers, scalar):
        oracle = ShardOracle(CONFIG, shards=workers)
        with partitioned_gss(CONFIG, partitions=workers) as summary:
            sent = _record_sent_nodes(summary)
            for items, one_by_one in zip(batches, scalar):
                oracle.update_many(items)
                if one_by_one:
                    for item in items:
                        summary.update(*item)
                else:
                    summary.update_many(items)
            summary.flush()
            # Each shard was sent each of its nodes exactly once.
            for shard, nodes in enumerate(sent):
                assert sorted(nodes) == sorted(oracle.shards[shard].node_index.known_nodes())
            assert _shard_documents(summary) == [shard.to_dict() for shard in oracle.shards]

    def test_python_front_end_pairs_are_distinct_and_interleaved(self):
        items = [("a", "b", 1.0), ("b", "a", 1.0), ("c", "a", 1.0), ("a", "d", 1.0)]
        [(shard, columns)] = PythonFrontEnd(ROUTED, 1).route(items)
        assert shard == 0
        assert list(columns.nodes) == ["a", "b", "c", "d"]
        assert len(columns.node_hashes) == 4

    def test_more_shards_than_the_bitmask_holds_take_the_python_front_end(self):
        assert KernelFrontEnd.create(ROUTED, MAX_KERNEL_SHARDS + 1) is None
        workers = MAX_KERNEL_SHARDS + 1
        items = [(f"s{i}", f"d{i}", 1.0) for i in range(300)]
        routed = PythonFrontEnd(ROUTED, workers).route(items)
        assert routed == ScalarRouter(workers).route(items)
        assert max(shard for shard, _ in routed) >= MAX_KERNEL_SHARDS


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
    ``update_many`` comes), ``update_many`` and ``update_many`` over an
    iterator."""
    for number, items in enumerate(batches):
        oracle.update_many(items)
        if number % 4 == 1:
            for item in items:
                summary.update(*item)
        elif number % 4 == 3:
            summary.update_many(iter(items))
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
    out_of_range = good._replace(
        destination_hashes=[3, CONFIG.hash_range + 4], nodes=["z"], node_hashes=[9]
    )
    messages = [
        ("pair lists of unequal length", good._replace(node_hashes=[5, 6])),
        ("columns of unequal length", good._replace(weights=[1.0])),
        (
            "a weight that is not a number, with a new node",
            good._replace(weights=[1.0, "x"], nodes=["z"], node_hashes=[9]),
        ),
        ("a hash outside the hash range, with a new node", out_of_range),
    ]
    if NUMPY_AVAILABLE:
        blob = encode_columns(good)
        messages += [
            ("blob longer than its header says", blob + b"\x00"),
            ("blob shorter than its header says", blob[:-3]),
            ("blob shorter than a header", blob[:5]),
            ("a hash outside the hash range, as a blob", encode_columns(out_of_range)),
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
            with pytest.raises(error, match="ValueError|length|header|nodes|weight|outside"):
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

#: Node IDs from names: strings take the kernel front end where it runs,
#: ints always take the Python one.
NODE_KINDS = pytest.mark.parametrize(
    "node",
    [str, lambda name: int.from_bytes(name.encode(), "big")],
    ids=["str-ids", "int-ids"],
)


def _register_under_a_wrong_hash(summary, shard, node):
    """Record ``node`` in ``shard``'s index under a hash it does not have,
    so the shard refuses the next message that sends it."""
    wrong = (hash_key(node, CONFIG.seed) + 1) % CONFIG.hash_range
    summary._handles[shard].request(("columns", ShardColumns([], [], [], [node], [wrong])))


class TestFailedMessages:
    def test_a_refused_pair_still_records_the_others(self):
        from repro.core.reverse_index import NodeIndex

        index = NodeIndex()
        index.record("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            index.record_new_many([("b", 2), ("a", 3), ("c", 4)])
        assert [index.get(node) for node in "abc"] == [1, 2, 4]

    @NODE_KINDS
    @DEPLOYMENTS
    def test_nodes_of_a_refused_message_are_not_lost(self, in_process, node):
        with ShardedSummary(SPEC, workers=1, in_process=in_process) as summary:
            _register_under_a_wrong_hash(summary, 0, node("a"))
            # The shard refuses the next message for "a", after recording "n".
            with pytest.raises((ValueError, ClusterError), match="already registered"):
                summary.update_many([(node("a"), node("n"), 1.0)])
                summary.flush()
            summary.update_many([(node("x"), node("n"), 1.0)])
            assert summary.successor_query(node("x")) == {node("n")}

    @NODE_KINDS
    @DEPLOYMENTS
    def test_nodes_of_an_unsent_message_are_sent_again(self, in_process, node):
        with ShardedSummary(SPEC, workers=2, in_process=in_process) as summary:
            first = _routed_to(summary, 0, lambda i: node(f"a{i}"))
            second = _routed_to(summary, 1, lambda i: node(f"b{i}"))
            _register_under_a_wrong_hash(summary, 0, node("n"))
            # Shard 0 refuses its message; in process, shard 1's is then
            # never sent, though the router had counted "m" as sent.
            with pytest.raises((ValueError, ClusterError), match="already registered"):
                summary.update_many([(first, node("n"), 1.0), (second, node("m"), 1.0)])
                summary.flush()
            summary.update_many([(second, node("m"), 1.0)])
            assert summary.successor_query(second) == {node("m")}


class TestScalarOutbox:
    @DEPLOYMENTS
    def test_an_unroutable_batch_leaves_queued_updates_queued(self, in_process):
        with ShardedSummary(SPEC, workers=2, in_process=in_process) as summary:
            summary.update("a", "b", 1.0)
            with pytest.raises(ValueError):
                summary.update_many([("c", "d", "x")])
            assert summary.edge_query("a", "b") == 1.0

    @NODE_KINDS
    @DEPLOYMENTS
    def test_reading_stats_sends_nothing(self, in_process, node):
        with ShardedSummary(SPEC, workers=2, in_process=in_process) as summary:
            for name in ("a", "b", "c", "a"):
                summary.update(node(name), node("z"), 1.0)
            queued = summary.shard_ingest_stats().items_routed
            assert sum(queued) == 4
            assert [handle.items_routed for handle in summary._handles] == [0, 0]
            summary.flush()
            assert summary.shard_ingest_stats().items_routed == queued
