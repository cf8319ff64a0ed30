"""Tests for :mod:`repro.serve`: the asyncio network front end.

The load-bearing laws:

* **wire fidelity** — every value survives the frame protocol bit-for-bit
  (JSON shortest-repr floats round-trip IEEE doubles; sets keep their type);
* **served equivalence** — a single ingest feed through the server produces
  a summary answering every query identically to an in-process
  ``ShardedSummary`` fed the same stream directly;
* **whole-frame ingest** — a malformed ingest frame gets one ``error``
  reply, leaves no state, and the connection keeps serving;
* **lossless backpressure** — busy replies slow a client down but never
  lose, reorder, or double-apply a frame;
* **snapshot consistency** — a checkpoint racing concurrent ingest captures
  a pre- or post-barrier state, never a partial mix across shards.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import SketchSpec, build, from_dict
from repro.serve import (
    ServeClient,
    ServeClientError,
    ServeConfig,
    fetch_http_metrics,
    serve_in_thread,
)
from repro.serve import protocol
from repro.serve.loadgen import (
    LoadGenConfig,
    partition_by_shard,
    run_load_test,
    synthetic_stream,
)

#: Small inner shards so cluster spin-up stays cheap.
SHARD_PARAMS = dict(matrix_width=24, sequence_length=4, candidate_buckets=4)


def make_spec(workers: int = 2) -> SketchSpec:
    return SketchSpec(
        "sharded-gss", params={"workers": workers, **SHARD_PARAMS}
    )


@pytest.fixture(scope="module")
def shared_server():
    """One default-config server shared by the read-mostly tests."""
    cluster = build(make_spec())
    handle = serve_in_thread(cluster, ServeConfig(close_summary=False))
    yield handle
    handle.stop()
    cluster.close()


@pytest.fixture()
def client(shared_server):
    with ServeClient(shared_server.host, shared_server.port) as connection:
        yield connection


class TestProtocolFraming:
    def test_frame_round_trip(self):
        frame = protocol.pack_frame(protocol.FRAME_JSON, b'{"op":"hello"}')
        buffer = bytearray(frame)

        def read_exact(count):
            data = bytes(buffer[:count])
            del buffer[:count]
            return data

        kind, payload = protocol.read_frame(read_exact)
        assert kind == protocol.FRAME_JSON
        assert payload == b'{"op":"hello"}'
        assert not buffer

    def test_empty_payload(self):
        frame = protocol.pack_frame(protocol.FRAME_JSON, b"")
        view = memoryview(frame)
        state = {"cursor": 0}

        def read_exact(count):
            start = state["cursor"]
            state["cursor"] += count
            return bytes(view[start : start + count])

        assert protocol.read_frame(read_exact) == (protocol.FRAME_JSON, b"")

    def test_oversized_payload_refused_on_send(self):
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.pack_frame(
                protocol.FRAME_JSON, b"x" * (protocol.MAX_FRAME_BYTES + 1)
            )

    def test_oversized_length_prefix_refused_on_read(self):
        header = struct.pack("!BI", protocol.FRAME_JSON, protocol.MAX_FRAME_BYTES + 1)

        def read_exact(count):
            return header[:count]

        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.read_frame(read_exact)

    def test_malformed_json_payload(self):
        with pytest.raises(protocol.ProtocolError, match="malformed"):
            protocol.decode_json_payload(b"{nope")
        with pytest.raises(protocol.ProtocolError, match="objects"):
            protocol.decode_json_payload(b"[1, 2]")

    def test_set_values_keep_their_type(self):
        encoded = protocol.encode_value({"b", "a"})
        assert set(encoded["__set__"]) == {"a", "b"}
        assert protocol.decode_value(encoded) == {"a", "b"}
        assert protocol.decode_value(3.5) == 3.5
        assert protocol.decode_value(None) is None
        # A genuine dict with other keys is not mistaken for a tagged set.
        assert protocol.decode_value({"__set__": [1], "x": 2}) == {
            "__set__": [1],
            "x": 2,
        }


class TestServeBasics:
    def test_hello_negotiation(self, client):
        assert client.server_info["protocol"] == protocol.PROTOCOL_VERSION
        assert client.workers == 2
        assert client.credits >= 1
        assert client.retry_after > 0
        assert client.routing_seed == 97
        assert "hash_spec" not in client.server_info

    def test_read_your_writes_without_flush(self, client):
        client.ingest([("ryw-a", "ryw-b", 2.5)])
        assert client.edge_query("ryw-a", "ryw-b") == 2.5
        assert client.successor_query("ryw-a") == {"ryw-b"}
        assert client.precursor_query("ryw-b") == {"ryw-a"}

    def test_query_answer_types(self, client):
        client.ingest([("typ-a", "typ-b", 1.0), ("typ-a", "typ-c", 2.0)])
        client.flush()
        successors = client.successor_query("typ-a")
        assert isinstance(successors, set)
        assert successors == {"typ-b", "typ-c"}
        assert client.edge_query("typ-missing", "typ-nope") is None
        assert client.node_out_weight("typ-a") == 3.0
        assert client.node_in_weight("typ-b") == 1.0
        assert isinstance(client.memory_bytes(), int)

    def test_unknown_op_is_an_error_reply(self, client):
        with pytest.raises(ServeClientError, match="unknown op"):
            client._round_trip({"op": "frobnicate"})

    def test_only_allowed_methods_are_callable(self, client):
        with pytest.raises(ServeClientError, match="method"):
            client._round_trip({"op": "call", "method": "to_dict", "args": []})
        with pytest.raises(ServeClientError, match="method"):
            client._round_trip({"op": "call", "method": "__class__", "args": []})

    def test_metrics_count_ingest(self, client):
        before = client.metrics()
        client.ingest([(f"met-{i}", "met-x", 1.0) for i in range(37)])
        client.drain()
        after = client.metrics()
        assert after["ingest_items"] - before["ingest_items"] == 37
        assert after["update_count"] >= 37
        assert after["inflight_batches"] == 0
        assert list(after["shards"]["items_routed"])
        assert after["connections_open"] >= 1

    def test_http_metrics_on_same_port(self, shared_server, client):
        client.ingest([("http-a", "http-b", 1.0)])
        client.drain()
        document = fetch_http_metrics(shared_server.host, shared_server.port)
        assert document["server"] == "repro-serve"
        assert document["ingest_items"] >= 1
        assert document["credits_per_connection"] >= 1
        assert "shards" in document

    def test_http_healthz_and_404(self, shared_server):
        def http_get(path):
            with socket.create_connection(
                (shared_server.host, shared_server.port), timeout=5
            ) as sock:
                sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode("ascii"))
                chunks = []
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break
                    chunks.append(data)
            return b"".join(chunks)

        assert b" 200 " in http_get("/healthz").split(b"\r\n", 1)[0]
        assert b" 404 " in http_get("/nope").split(b"\r\n", 1)[0]

    def test_handle_metrics_document(self, shared_server):
        document = shared_server.metrics_document()
        assert document["server"] == "repro-serve"


def assert_equivalent(client: ServeClient, reference, stream) -> None:
    """Every query answer bit-identical between the served and direct paths."""
    nodes = sorted({edge[0] for edge in stream})[:40]
    for source, destination, _ in stream[:150]:
        assert client.edge_query(source, destination) == reference.edge_query(
            source, destination
        )
    for node in nodes:
        assert client.successor_query(node) == reference.successor_query(node)
        assert client.precursor_query(node) == reference.precursor_query(node)
        assert client.node_out_weight(node) == reference.node_out_weight(node)
        assert client.node_in_weight(node) == reference.node_in_weight(node)


class TestServedEquivalence:
    """One feed through the server == the same stream fed in process."""

    def test_json_ingest_equivalent(self):
        stream = synthetic_stream(2500, nodes=250, seed=13)
        cluster = build(make_spec())
        reference = build(make_spec())
        handle = serve_in_thread(cluster, ServeConfig(close_summary=False))
        try:
            with ServeClient(handle.host, handle.port, batch_size=256) as feed:
                feed.ingest(stream)
                feed.flush()
                reference.update_many(stream)
                reference.flush()
                assert_equivalent(feed, reference, stream)
        finally:
            handle.stop()
            cluster.close()
            reference.close()


# -- raw ingest documents ------------------------------------------------------

#: A small pool, so documents reuse nodes across frames and examples.
_ids = st.sampled_from(["a", "b", "é", "", 3, -2, 0.5])
_good_item = st.tuples(_ids, _ids, st.sampled_from([1.0, 2.5, -1.0, 3])).map(list)
_not_scalars = st.sampled_from([["a", 1], [], {"k": "v"}, None, True])
_bad_item = st.one_of(
    st.lists(_ids, max_size=2),  # too few fields
    st.tuples(_ids, _ids, st.just(1.0), _ids).map(list),  # too many
    st.tuples(_ids, _ids, st.sampled_from(["x", "1.5", None, True, [1.0]])).map(list),
    st.tuples(_not_scalars, _ids, st.just(1.0)).map(list),
    st.tuples(_ids, _not_scalars, st.just(1.0)).map(list),
    st.sampled_from(["a-b-1", 5, None, {"source": "a"}]),  # not a list
)
_good_document = st.lists(_good_item, max_size=6).map(
    lambda items: (True, {"op": "ingest", "items": items})
)
_bad_document = st.one_of(
    st.just({"op": "ingest"}),
    st.sampled_from([None, "items", 3, {"a": 1}]).map(
        lambda items: {"op": "ingest", "items": items}
    ),
    st.tuples(
        st.lists(_good_item, max_size=3), _bad_item, st.lists(_good_item, max_size=3)
    ).map(lambda parts: {"op": "ingest", "items": [*parts[0], parts[1], *parts[2]]}),
).map(lambda document: (False, document))
_documents = st.lists(st.one_of(_good_document, _bad_document), min_size=1, max_size=6)


class TestIngestFrames:
    """An ingest frame is taken whole or refused whole."""

    def test_tuple_ids_are_refused_at_ingest(self, client):
        # JSON turns the tuples into lists, which no query could name: the
        # frame is refused instead of stored out of the queries' reach.
        client.ingest([(("tup", 1), ("tup", 2), 1.0)])
        with pytest.raises(ServeClientError, match="strings or numbers"):
            client.drain()
        client.ingest([("tup-a", "tup-b", 1.0)])
        assert client.successor_query("tup-a") == {"tup-b"}
        assert client.precursor_query("tup-b") == {"tup-a"}

    @staticmethod
    def feed_documents(client, reference, documents) -> None:
        """Send each document raw; the reference gets only the accepted."""
        for accepted, document in documents:
            client._send_frame(protocol.pack_json(document))
            reply = client._read_reply()
            if accepted:
                assert reply == {"op": "ok", "applied": len(document["items"])}
                reference.update_many(
                    [(s, d, float(w)) for s, d, w in document["items"]]
                )
            else:
                assert reply["op"] == "error", (document, reply)
        nodes = ["a", "b", "é", "", 3, -2, 0.5]
        for node in nodes:
            assert client.successor_query(node) == reference.successor_query(node)
            assert client.precursor_query(node) == reference.precursor_query(node)
            for other in nodes:
                assert client.edge_query(node, other) == reference.edge_query(
                    node, other
                )

    def fuzz(self, served, reference, documents_of) -> None:
        handle = serve_in_thread(served, ServeConfig(close_summary=False))
        try:
            with ServeClient(handle.host, handle.port) as client:

                @settings(max_examples=25, deadline=None)
                @given(documents=_documents)
                def check(documents):
                    self.feed_documents(client, reference, documents)
                    assert documents_of(served) == documents_of(reference)

                check()
        finally:
            handle.stop()

    def test_fuzzed_documents_over_a_served_gss(self):
        params = dict(memory_bytes=4096)
        self.fuzz(build("gss", **params), build("gss", **params), lambda s: s.to_dict())

    def test_fuzzed_documents_over_a_two_worker_cluster(self):
        cluster = build(make_spec())
        reference = build(
            SketchSpec("partitioned-gss", params={"partitions": 2, **SHARD_PARAMS})
        )
        try:
            self.fuzz(
                cluster,
                reference,
                lambda s: (
                    [shard.to_dict() for shard in s.shards]
                    if s.in_process
                    else s.shard_snapshots()
                ),
            )
        finally:
            cluster.close()
            reference.close()


class TestBackpressure:
    def test_busy_replies_lose_nothing(self):
        stream = synthetic_stream(6000, nodes=200, seed=5)
        cluster = build(make_spec())
        reference = build(make_spec())
        handle = serve_in_thread(
            cluster,
            # More per-connection credits than the global admission cap: the
            # client's window alone cannot avoid the bounce, so the busy
            # machinery must carry the load.
            ServeConfig(
                close_summary=False, credits=4, max_inflight=2, retry_after=0.002
            ),
        )
        try:
            with ServeClient(
                handle.host, handle.port, batch_size=32, max_busy_retries=1000
            ) as feed:
                feed.ingest(stream)
                feed.drain()
                metrics = feed.metrics()
                assert metrics["busy_replies"] > 0, "tiny window must bounce"
                assert feed.busy_retries > 0
                assert metrics["ingest_items"] == len(stream)
                assert metrics["inflight_batches"] == 0
                feed.flush()
                reference.update_many(stream)
                reference.flush()
                # Bounced-and-resent frames arrive in their original order:
                # the summary is bit-identical to the uncontended feed.
                assert_equivalent(feed, reference, stream)
        finally:
            handle.stop()
            cluster.close()
            reference.close()

    def test_busy_reply_carries_retry_hint(self):
        cluster = build(make_spec())
        handle = serve_in_thread(
            cluster,
            ServeConfig(
                close_summary=False, credits=1, max_inflight=1, retry_after=0.123
            ),
        )
        try:
            with ServeClient(handle.host, handle.port) as feed:
                assert feed.server_info["retry_after"] == 0.123
                assert feed.credits == 1
        finally:
            handle.stop()
            cluster.close()


class TestSnapshotConsistency:
    """Checkpoints racing ingest see pre- or post-barrier state, never a mix."""

    @staticmethod
    def paired_keys(cluster):
        """One key homed on each shard (the cross-shard atomicity probes)."""
        key0 = next(f"p{i}" for i in range(1000) if cluster.shard_of(f"p{i}") == 0)
        key1 = next(f"p{i}" for i in range(1000) if cluster.shard_of(f"p{i}") == 1)
        return key0, key1

    def test_cluster_barrier_never_splits_a_batch(self):
        cluster = build(make_spec())
        key0, key1 = self.paired_keys(cluster)
        stop = threading.Event()
        errors = []

        def writer():
            round_number = 0
            while not stop.is_set() and round_number < 400:
                # One locked update_many: both shards move together.
                cluster.update_many(
                    [(key0, f"t{round_number}", 1.0), (key1, f"t{round_number}", 1.0)]
                )
                round_number += 1

        def checkpointer():
            try:
                for _ in range(25):
                    shard0, shard1 = (
                        from_dict(doc) for doc in cluster.shard_snapshots()
                    )
                    weight0 = shard0.node_out_weight(key0)
                    weight1 = shard1.node_out_weight(key1)
                    assert weight0 == weight1, (
                        f"partial checkpoint: shard0 saw {weight0}, "
                        f"shard1 saw {weight1}"
                    )
            except Exception as error:  # noqa: BLE001
                errors.append(error)
            finally:
                stop.set()

        threads = [
            threading.Thread(target=writer, daemon=True),
            threading.Thread(target=checkpointer, daemon=True),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        cluster.close()
        assert not errors, errors[0]

    def test_served_checkpoint_races_ingest(self, tmp_path):
        from repro.cluster import load_checkpoint

        cluster = build(make_spec())
        key0, key1 = self.paired_keys(cluster)
        handle = serve_in_thread(
            cluster,
            ServeConfig(close_summary=False, checkpoint_dir=str(tmp_path)),
        )
        errors = []
        done = threading.Event()

        def feed():
            try:
                with ServeClient(handle.host, handle.port, batch_size=2) as writer:
                    for round_number in range(300):
                        writer.ingest_batch(
                            [
                                (key0, f"t{round_number}", 1.0),
                                (key1, f"t{round_number}", 1.0),
                            ]
                        )
                    writer.drain()
            except Exception as error:  # noqa: BLE001
                errors.append(error)
            finally:
                done.set()

        def checkpoints():
            try:
                with ServeClient(handle.host, handle.port) as control:
                    while not done.is_set():
                        control.checkpoint()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=feed, daemon=True),
            threading.Thread(target=checkpoints, daemon=True),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        try:
            assert not errors, errors[0]
            restored = load_checkpoint(tmp_path)
            try:
                # Whatever moment the final checkpoint captured, both halves
                # of every paired batch are in or out together.
                assert restored.node_out_weight(key0) == restored.node_out_weight(key1)
            finally:
                restored.close()
        finally:
            handle.stop()
            cluster.close()


class TestGracefulShutdown:
    def test_stop_drains_checkpoints_and_closes(self, tmp_path):
        from repro.cluster import load_checkpoint

        cluster = build(make_spec())
        handle = serve_in_thread(
            cluster, ServeConfig(checkpoint_dir=str(tmp_path), close_summary=True)
        )
        with ServeClient(handle.host, handle.port) as feed:
            feed.ingest([(f"gs-{i}", "gs-x", 1.0) for i in range(100)])
            feed.drain()
        handle.stop()
        assert cluster.closed
        assert (tmp_path / "manifest.json").exists()
        restored = load_checkpoint(tmp_path)
        try:
            assert restored.update_count == 100
            assert restored.edge_query("gs-1", "gs-x") == 1.0
        finally:
            restored.close()

    def test_stopped_server_refuses_connections(self):
        cluster = build(make_spec())
        handle = serve_in_thread(cluster, ServeConfig(close_summary=False))
        host, port = handle.host, handle.port
        handle.stop()
        cluster.close()
        with pytest.raises((ConnectionError, OSError, ServeClientError)):
            ServeClient(host, port, timeout=2.0)

    def test_handle_context_manager(self):
        cluster = build(make_spec())
        with serve_in_thread(cluster, ServeConfig(close_summary=True)) as handle:
            with ServeClient(handle.host, handle.port) as feed:
                feed.update("ctx-a", "ctx-b", 1.0)
        assert cluster.closed


class TestLoadgen:
    def test_synthetic_stream_deterministic(self):
        assert synthetic_stream(100, 50, seed=3) == synthetic_stream(100, 50, seed=3)
        assert synthetic_stream(100, 50, seed=3) != synthetic_stream(100, 50, seed=4)

    def test_partition_by_shard_preserves_order(self):
        stream = synthetic_stream(500, 60, seed=9)
        parts = partition_by_shard(stream, routing_seed=97, workers=3)
        assert sum(len(part) for part in parts) == len(stream)
        # Per-shard relative order is original stream order.
        for part in parts:
            positions = [stream.index(item) for item in part[:10]]
            assert positions == sorted(positions)

    def test_run_load_test_verify_mode(self):
        cluster = build(make_spec())
        reference = build(make_spec())
        handle = serve_in_thread(cluster, ServeConfig(close_summary=False))
        try:
            report = run_load_test(
                LoadGenConfig(
                    host=handle.host,
                    port=handle.port,
                    total_items=3000,
                    nodes=200,
                    query_clients=2,
                    batch_size=128,
                    verify=True,
                    verify_sample=120,
                ),
                reference=reference,
            )
        finally:
            handle.stop()
            cluster.close()
            reference.close()
        assert report["mode"] == "verify"
        assert report["clients"]["ingest"] == 2  # one per shard
        assert report["items_sent"] == 3000
        assert report["errored_frames"] == 0
        assert report["verify"]["ok"], report["verify"]["mismatch_examples"]
        assert report["query"]["count"] > 0
        assert report["query"]["p50_ms"] is not None

    def test_verify_mode_requires_reference(self):
        with pytest.raises(ValueError, match="reference"):
            run_load_test(LoadGenConfig(verify=True))

    def test_verify_mode_rejects_duration(self):
        with pytest.raises(ValueError, match="duration"):
            run_load_test(
                LoadGenConfig(verify=True, duration=1.0), reference=object()
            )
