"""Tests for :mod:`repro.cluster`: multi-process sharded ingestion/queries.

The load-bearing law is *deployment equivalence*: a ``ShardedSummary`` —
with worker processes (``sharded-gss``) or in-process shards
(``partitioned-gss``) — and the independent :class:`ShardOracle` with the
same shard count, shard configuration and routing seed answer every query
identically on the same stream: crossing process boundaries changes
throughput, never answers.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.api import (
    SketchSpec,
    StreamSession,
    build,
    from_dict,
    sketch_info,
)
from repro.cluster import ClusterError, ShardedSummary
from repro.core.config import GSSConfig
from repro.hashing import count_key_hashes
from repro.queries.primitives import UnsupportedQueryError
from shard_oracle import ShardOracle, partitioned_gss

#: Shard parameters shared by the deployments and the oracle.
SHARD_PARAMS = dict(matrix_width=24, sequence_length=4, candidate_buckets=4)


def inner_spec(**overrides) -> SketchSpec:
    return SketchSpec("gss", params={**SHARD_PARAMS, **overrides})


def shard_config() -> GSSConfig:
    return GSSConfig(**SHARD_PARAMS)


@pytest.fixture()
def cluster():
    summary = ShardedSummary(inner_spec(), workers=2)
    yield summary
    summary.close()


class TestConstruction:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ShardedSummary(inner_spec(), workers=0)

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            ShardedSummary(inner_spec(), workers=1, batch_size=0)

    def test_unsized_inner_spec_fails_the_build_handshake(self):
        with pytest.raises(ClusterError, match="SpecSizingError"):
            ShardedSummary(SketchSpec("gss"), workers=1)

    @pytest.mark.parametrize("in_process", [True, False])
    def test_rejects_a_shard_summary_without_hashed_ingest(self, in_process):
        # One data plane: shards ingest hashed batches only, so a sketch
        # without that path is refused — after its shards are stopped.
        running = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match="tcm"):
            ShardedSummary(
                SketchSpec("tcm", expected_edges=100), workers=1, in_process=in_process
            )
        assert set(multiprocessing.active_children()) <= running

    def test_registry_build_and_capabilities(self):
        with build("sharded-gss", memory_bytes=32 * 1024, params={"workers": 2}) as summary:
            assert isinstance(summary, ShardedSummary)
            assert summary.workers == 2
            assert summary.capabilities() == sketch_info("sharded-gss").capabilities

    def test_registry_splits_the_memory_budget_across_workers(self):
        budget = 64 * 1024
        with build("sharded-gss", memory_bytes=budget, params={"workers": 4}) as summary:
            per_shard = summary.shard_memory_bytes()
            assert len(per_shard) == 4
            assert len(set(per_shard)) == 1  # equal shards
            assert budget / 2 <= summary.memory_bytes() <= budget

    def test_registry_rejects_unknown_params(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            build("sharded-gss", memory_bytes=4096, params={"shards": 3})

    def test_context_manager_closes(self):
        with ShardedSummary(inner_spec(), workers=1) as summary:
            summary.update("a", "b")
        assert summary.closed
        with pytest.raises(ClusterError, match="closed"):
            summary.edge_query("a", "b")

    def test_close_is_idempotent(self, cluster):
        cluster.close()
        cluster.close()
        assert cluster.closed


class TestUpdatesAndQueries:
    def test_scalar_updates_visible_to_queries(self, cluster):
        cluster.update("a", "b", 2.0)
        cluster.update("a", "b", 1.0)
        assert cluster.edge_query("a", "b") == 3.0
        assert cluster.edge_query("ghost", "nothing") is None

    def test_update_many_returns_count_and_accepts_generators(self, cluster):
        count = cluster.update_many(
            (f"s{i % 3}", f"d{i % 5}", 1.0) for i in range(40)
        )
        assert count == 40
        assert cluster.update_count == 40

    def test_scalar_and_batched_ingestion_agree(self):
        items = [(f"n{i % 7}", f"n{(i * 3 + 1) % 9}", float(1 + i % 3)) for i in range(120)]
        with ShardedSummary(inner_spec(), workers=2, batch_size=16) as scalar:
            for source, destination, weight in items:
                scalar.update(source, destination, weight)
            with ShardedSummary(inner_spec(), workers=2) as batched:
                batched.update_many(items)
                for source, destination, _ in items:
                    assert scalar.edge_query(source, destination) == batched.edge_query(
                        source, destination
                    )

    def test_interleaved_scalar_and_batch_preserve_shard_order(self, cluster):
        # Scalar updates coalesce client-side; a following update_many must
        # not overtake them inside a shard (deletions make order observable
        # at the weight level only, but the invariant matters for windowed
        # inner sketches and is cheap to hold).
        cluster.update("a", "b", 5.0)
        cluster.update_many([("a", "b", -3.0)])
        assert cluster.edge_query("a", "b") == 2.0

    def test_flush_is_a_barrier(self, cluster):
        cluster.update_many([(f"s{i}", f"d{i}", 1.0) for i in range(50)])
        cluster.flush()
        stats = cluster.shard_ingest_stats()
        assert stats.total_items == 50

    def test_worker_exception_propagates_as_cluster_error(self):
        spec = inner_spec(keep_node_index=False)
        with ShardedSummary(spec, workers=1) as summary:
            summary.update("a", "b")
            # GSS without a node index refuses original-ID neighbor queries;
            # the worker's traceback must surface in the parent.
            with pytest.raises(ClusterError, match="keep_node_index"):
                summary.successor_query("a")

    def test_shard_stays_usable_after_a_worker_error(self):
        # Regression: an "err" reply must still be counted against the
        # pending-reply counter, or the next request on the shard would wait
        # for a reply the worker already sent and hang forever.
        spec = inner_spec(keep_node_index=False)
        with ShardedSummary(spec, workers=1) as summary:
            summary.update("a", "b", 2.0)
            with pytest.raises(ClusterError):
                summary.successor_query("a")
            assert summary.edge_query("a", "b") == 2.0
            with pytest.raises(ClusterError):
                summary.precursor_query("a")
            summary.update("a", "c", 1.0)
            summary.flush()
            assert summary.edge_query("a", "c") == 1.0

    def test_deletions_route_like_insertions(self, cluster):
        cluster.update("x", "y", 5.0)
        cluster.update("x", "y", -2.0)
        assert cluster.edge_query("x", "y") == 3.0


class TestPartitionedEquivalence:
    """Both deployments' answers == the shard oracle's answers, always."""

    @pytest.fixture()
    def fed(self, small_stream):
        oracle = ShardOracle(shard_config(), shards=3)
        deployments = [
            partitioned_gss(shard_config(), partitions=3),
            ShardedSummary(inner_spec(), workers=3, routing_seed=97),
        ]
        items = [(e.source, e.destination, e.weight) for e in small_stream]
        oracle.update_many(items)
        for summary in deployments:
            summary.update_many(items)
        yield oracle, deployments, small_stream
        for summary in deployments:
            summary.close()

    def test_edge_queries_identical(self, fed):
        oracle, deployments, stream = fed
        for summary in deployments:
            for key in list(stream.aggregate_weights())[:150]:
                assert summary.edge_query(*key) == oracle.edge_query(*key)
            assert summary.edge_query("ghost", "nothing") is None

    def test_topology_queries_identical(self, fed):
        oracle, deployments, stream = fed
        for summary in deployments:
            for node in stream.nodes()[:60]:
                assert summary.successor_query(node) == oracle.successor_query(node)
                assert summary.precursor_query(node) == oracle.precursor_query(node)

    def test_node_weights_identical(self, fed):
        oracle, deployments, stream = fed
        for summary in deployments:
            for node in stream.nodes()[:40]:
                assert summary.node_out_weight(node) == pytest.approx(
                    oracle.node_out_weight(node)
                )
                assert summary.node_in_weight(node) == pytest.approx(
                    oracle.node_in_weight(node)
                )

    def test_same_routing_hash_as_partitioned(self, fed):
        oracle, deployments, stream = fed
        for summary in deployments:
            for node in stream.nodes()[:60]:
                assert summary.shard_of(node) == oracle.shard_of(node)


def nasty_items():
    """Insertions, repeats, deletions and enough distinct edges to overflow
    a deliberately undersized shard matrix into the leftover buffer."""
    items = []
    for i in range(400):
        items.append((f"n{i % 29}", f"n{(i * 7 + 2) % 31}", float(1 + i % 5)))
    for i in range(0, 400, 7):
        items.append((f"n{i % 29}", f"n{(i * 7 + 2) % 31}", -1.0))
    return items


class TestTransports:
    """The worker pipes change throughput, never answers or stats.

    With NumPy each routed batch crosses the pipe as its hashed-batch blob;
    without NumPy, as the pickled batch object; in-process shards receive
    the batch object itself.  The same tests run on both interpreter
    configurations, so every payload is held to the shard oracle.
    """

    @pytest.mark.parametrize("transport", ["pipe"])
    def test_transport_property_reports_effective_plane(self, transport):
        # Not selectable any more, but the serve hello and /metrics report it.
        with ShardedSummary(inner_spec(), workers=1) as summary:
            assert summary.transport == transport

    def test_every_query_identical_across_transports_and_reference(self):
        # Deletions and buffer-overflow keys ride along: shard matrices of
        # width 8 cannot hold the ~400 distinct edges, so the leftover
        # buffer path crosses the pipes too.
        items = nasty_items()
        config = GSSConfig(matrix_width=8, sequence_length=4, candidate_buckets=4)
        oracle = ShardOracle(config, shards=2)
        oracle.update_many(items)
        assert sum(shard.buffer_edge_count for shard in oracle.shards) > 0
        keys = sorted({(source, destination) for source, destination, _ in items})
        nodes = sorted({key for pair in keys for key in pair})
        deployments = [
            partitioned_gss(config, partitions=2),
            ShardedSummary(inner_spec(matrix_width=8), workers=2),
        ]
        for summary in deployments:
            with summary:
                for start in range(0, len(items), 64):
                    summary.update_many(items[start : start + 64])
                for key in keys:
                    assert summary.edge_query(*key) == oracle.edge_query(*key), key
                for node in nodes:
                    assert summary.successor_query(node) == (
                        oracle.successor_query(node)
                    )
                    assert summary.precursor_query(node) == (
                        oracle.precursor_query(node)
                    )
                    assert summary.node_out_weight(node) == pytest.approx(
                        oracle.node_out_weight(node)
                    )
                    assert summary.node_in_weight(node) == pytest.approx(
                        oracle.node_in_weight(node)
                    )

    def test_ingest_stats_identical_across_transports(self):
        # max_pending_batches=1 plus a flush per chunk pins the worker
        # queue-depth high-water mark (otherwise timing-dependent: the
        # handles drain replies opportunistically) so all three observable
        # stats must match the oracle's routing exactly.  In-process shards
        # never queue a batch.
        items = [(f"s{i % 17}", f"d{i % 5}", 1.0) for i in range(300)]
        oracle = ShardOracle(shard_config(), shards=2)
        routed = [0, 0]
        for source, _, _ in items:
            routed[oracle.shard_of(source)] += 1
        deployments = [
            (partitioned_gss(shard_config(), partitions=2), 0),
            (ShardedSummary(inner_spec(), workers=2, max_pending_batches=1), 1),
        ]
        for summary, high_water in deployments:
            with summary:
                for start in range(0, len(items), 50):
                    summary.update_many(items[start : start + 50])
                    summary.flush()
                stats = summary.shard_ingest_stats()
            assert stats.items_routed == routed
            assert stats.queue_depth_high_water == high_water
            assert stats.routing_imbalance == max(routed) / (sum(routed) / 2)

    @pytest.mark.parametrize("transport", ["pipe"])
    def test_client_hashes_each_routed_batch_exactly_once(self, transport):
        # The end-to-end hash-once law, observed at the client: routing a
        # batch costs one node hash per distinct key plus one routing hash
        # per distinct source — never one hash per item per layer.  (The
        # workers consume the shipped columns; their processes do not hash.)
        # The case id names the data plane the count is taken on.
        items = [(f"s{i % 11}", f"d{i % 13}", 1.0) for i in range(500)]
        nodes = {key for source, destination, _ in items for key in (source, destination)}
        sources = {source for source, _, _ in items}
        with ShardedSummary(inner_spec(), workers=2) as summary:
            assert summary.transport == transport
            with count_key_hashes() as counter:
                summary.update_many(items)
            assert counter.count == len(nodes) + len(sources)
            with count_key_hashes() as counter:
                summary.update_many(items)
                summary.flush()
            assert counter.count == 0  # memoized across batches
            assert summary.edge_query("s1", "d1") is not None

    def test_interleaved_scalar_and_batch_preserve_order_on_all_transports(self):
        with ShardedSummary(inner_spec(), workers=2) as summary:
            summary.update("a", "b", 5.0)
            summary.update_many([("a", "b", -3.0)])
            assert summary.edge_query("a", "b") == 2.0

    def test_session_feed_equivalent_across_transports(self, small_stream):
        # The summary hashes its own batches: StreamSession hands the
        # deployment normalized items and its update_many hashes them once
        # at the routing boundary, so this exercises the session → routing →
        # handle → backend pipeline end to end, timestamps and all
        # (small_stream items carry timestamps; unwindowed summaries drop
        # them uniformly).
        oracle = ShardOracle(shard_config(), shards=2)
        for edge in small_stream:
            oracle.update(edge.source, edge.destination, edge.weight)
        deployments = [
            partitioned_gss(shard_config(), partitions=2),
            ShardedSummary(inner_spec(), workers=2),
        ]
        for summary in deployments:
            with summary:
                report = StreamSession(summary, batch_size=64).feed(small_stream)
                assert report.items == len(small_stream)
                for key in list(small_stream.aggregate_weights())[:100]:
                    assert summary.edge_query(*key) == oracle.edge_query(*key)


class TestStatsParity:
    def test_sketch_stats_equal_across_deployments(self):
        # nasty_items() overflows width-8 shards into their buffers, so every
        # stat below has a non-trivial value on both deployments.
        items = nasty_items()
        config = GSSConfig(matrix_width=8, sequence_length=4, candidate_buckets=4)
        oracle = ShardOracle(config, shards=2)
        oracle.update_many(items)
        inline = partitioned_gss(config, partitions=2)
        with inline, ShardedSummary(inner_spec(matrix_width=8), workers=2) as process:
            inline.update_many(items)
            process.update_many(items)
            assert process.buffer_edge_count > 0
            for stat in ("matrix_edge_count", "buffer_edge_count", "buffer_percentage"):
                assert getattr(process, stat) == getattr(inline, stat), stat
            assert process.shard_loads() == inline.shard_loads() == oracle.shard_loads()
            assert process.load_imbalance() == inline.load_imbalance()
            assert process.memory_bytes() == inline.memory_bytes()

    def test_only_in_process_shards_are_exposed_and_never_serialized(self):
        inline = partitioned_gss(shard_config(), partitions=2)
        inline.update("a", "b", 2.0)
        assert inline.shards[inline.shard_of("a")].edge_query("a", "b") == 2.0
        for snapshot in (inline.to_dict, inline.snapshot_metadata, inline.shard_snapshots):
            with pytest.raises(UnsupportedQueryError):
                snapshot()
        with ShardedSummary(inner_spec(), workers=1) as process:
            with pytest.raises(UnsupportedQueryError):
                process.shards


class TestDeadShard:
    """A dead shard fails its calls with ClusterError; the others still answer."""

    @pytest.mark.parametrize("kind", ["inline", "process"])
    def test_calls_routed_to_a_dead_shard_raise_cluster_error(self, kind):
        if kind == "inline":
            summary = partitioned_gss(shard_config(), partitions=2)
        else:
            summary = ShardedSummary(inner_spec(), workers=2)
        with summary:
            nodes = [f"n{i}" for i in range(40)]
            dead = next(node for node in nodes if summary.shard_of(node) == 1)
            live = next(node for node in nodes if summary.shard_of(node) == 0)
            summary.update_many([(dead, live, 1.0), (live, dead, 2.0)])
            summary.flush()
            handle = summary._handles[1]
            if kind == "inline":
                handle.kill()
            else:
                handle.process.terminate()
                handle.process.join(timeout=5)
            calls = {
                "edge_query": lambda: summary.edge_query(dead, live),
                "precursor_query": lambda: summary.precursor_query(live),
                "update_many": lambda: summary.update_many([(dead, live, 1.0)]),
            }
            for name, call in calls.items():
                started = time.perf_counter()
                with pytest.raises(ClusterError, match=r"shard (worker )?1\b"):
                    call()
                assert time.perf_counter() - started < 5, name
            assert summary.edge_query(live, dead) == 2.0
            assert summary.successor_query(live) == {dead}


class TestIngestStats:
    def test_items_routed_cover_every_item(self, cluster):
        cluster.update_many([(f"s{i % 11}", f"d{i}", 1.0) for i in range(200)])
        stats = cluster.shard_ingest_stats()
        assert len(stats.items_routed) == 2
        assert stats.total_items == 200
        assert stats.routing_imbalance >= 1.0
        assert stats.queue_depth_high_water >= 1

    def test_empty_cluster_stats_do_not_divide_by_zero(self, cluster):
        stats = cluster.shard_ingest_stats()
        assert stats.items_routed == [0, 0]
        assert stats.routing_imbalance == 1.0
        assert stats.queue_depth_high_water == 0


class TestSerialization:
    def test_to_dict_from_dict_round_trip(self, cluster):
        items = [(f"n{i % 9}", f"n{(i * 5 + 2) % 9}", float(1 + i % 2)) for i in range(80)]
        cluster.update_many(items)
        document = cluster.to_dict()
        assert document["sketch"] == "sharded-gss"
        restored = from_dict(document)  # registry dispatch on the tag
        try:
            assert restored.update_count == cluster.update_count
            assert restored.shard_ingest_stats().items_routed == (
                cluster.shard_ingest_stats().items_routed
            )
            for source, destination, _ in items:
                assert restored.edge_query(source, destination) == cluster.edge_query(
                    source, destination
                )
        finally:
            restored.close()

    def test_from_dict_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="not a sharded-gss snapshot"):
            ShardedSummary.from_dict({"sketch": "gss"})

    def test_from_dict_rejects_shard_count_mismatch(self, cluster):
        document = cluster.to_dict()
        document["shards"] = document["shards"][:1]
        with pytest.raises(ValueError, match="shard documents"):
            ShardedSummary.from_dict(document)


class TestStreamSessionIntegration:
    def test_session_feeds_cluster_and_surfaces_shard_stats(self, small_stream):
        with build(
            "sharded-gss",
            expected_edges=max(1, small_stream.statistics().distinct_edges),
            params={"workers": 2},
        ) as summary:
            report = StreamSession(summary, batch_size=128).feed(small_stream)
            assert report.items == len(small_stream)
            assert sum(report.shard_items) == len(small_stream)
            assert report.queue_depth_high_water >= 1
            assert report.routing_imbalance >= 1.0
            # The session's trailing flush() barrier means every item has
            # been applied by the time the report exists.
            assert summary.shard_ingest_stats().total_items == len(small_stream)

    def test_session_auto_sizes_cluster_spec_from_stream(self, small_stream):
        session = StreamSession(SketchSpec("sharded-gss", params={"workers": 2}))
        session.feed(small_stream)
        try:
            truth = small_stream.aggregate_weights()
            for key, weight in list(truth.items())[:50]:
                assert session.summary.edge_query(*key) >= weight
        finally:
            session.summary.close()
