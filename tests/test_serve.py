"""Tests for :mod:`repro.serve`: the asyncio network front end.

The load-bearing laws:

* **wire fidelity** — every value survives the frame protocol bit-for-bit
  (JSON shortest-repr floats round-trip IEEE doubles; sets keep their type);
* **served equivalence** — a single ingest feed through the server produces
  a summary answering every query identically to an in-process
  ``ShardedSummary`` fed the same stream directly;
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

from repro.api import SketchSpec, build, from_dict
from repro.hashing.vectorized import NUMPY_AVAILABLE
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
from repro.streaming.batch import HashedBatch, HashSpec

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

    def test_hash_spec_wire_round_trip(self):
        spec = HashSpec(seed=3, hash_range=1 << 12, routing_seed=97)
        assert protocol.spec_from_wire(protocol.spec_to_wire(spec)) == spec
        assert protocol.spec_to_wire(None) is None
        assert protocol.spec_from_wire(None) is None


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="binary frames need NumPy")
class TestBinaryIngestFrames:
    SPEC = HashSpec(seed=1, hash_range=1 << 12, routing_seed=97)

    def batch(self, count: int = 5) -> HashedBatch:
        items = [(f"s{i}", f"d{i}", float(i + 1)) for i in range(count)]
        return HashedBatch.from_items(items, self.SPEC)

    def test_round_trip_preserves_hashes_and_routes(self):
        batch = self.batch()
        frame = protocol.encode_ingest_frame(batch)
        state = {"cursor": 0}

        def read_exact(count):
            start = state["cursor"]
            state["cursor"] += count
            return frame[start : start + count]

        kind, payload = protocol.read_frame(read_exact)
        assert kind == protocol.FRAME_HBATCH
        decoded = protocol.decode_ingest_payload(payload, self.SPEC)
        assert len(decoded) == len(batch)
        assert decoded.source_hash_list() == batch.source_hash_list()
        assert decoded.destination_hash_list() == batch.destination_hash_list()
        assert decoded.weight_list() == batch.weight_list()
        assert decoded.route_hashes is not None
        assert list(decoded.route_hashes) == list(batch.route_hashes)

    #: Malformed payload defect -> the ProtocolError message it must raise.
    MALFORMED = {
        "routes-exceed-rows": "route column",
        "keys-short-of-header": "declares 3 rows",
        "columns-past-payload": "does not hold",
        "truncated-header": "shorter than its header",
    }

    @pytest.mark.parametrize("defect", list(MALFORMED))
    def test_route_count_mismatch_rejected(self, defect):
        import pickle

        import numpy as np

        from repro.core.config import GSSConfig
        from repro.core.gss import GSS
        from repro.streaming.batch import encode_hashed_batch

        sketch = GSS(GSSConfig(matrix_width=16))
        spec = sketch.hash_spec().with_routing(97)
        items = [(f"s{i}", f"d{i}", float(i + 1)) for i in range(3)]
        two = encode_hashed_batch(HashedBatch.from_items(items[:2], spec))
        three = encode_hashed_batch(HashedBatch.from_items(items, spec))
        no_routes = struct.pack("=Q", 0)
        if defect == "routes-exceed-rows":
            payload = (
                struct.pack("=Q", 3) + np.zeros(3, dtype=np.uint64).tobytes() + two
            )
        elif defect == "keys-short-of-header":
            # Three rows of hash columns, but only two keys per side.
            keys = pickle.dumps((["s0", "s1"], ["d0", "d1"]))
            columns = three[16 : 16 + 24 * 3]
            payload = no_routes + struct.pack("=QQ", 3, len(keys)) + columns + keys
        elif defect == "columns-past-payload":
            # The header promises three rows; the payload ends after two.
            keys = three[16 + 24 * 3 :]
            columns = two[16 : 16 + 24 * 2]
            payload = no_routes + three[:16] + columns + keys
        else:
            payload = no_routes + three[:8]
        with pytest.raises(protocol.ProtocolError, match=self.MALFORMED[defect]):
            sketch.update_many_hashed(protocol.decode_ingest_payload(payload, spec))
        assert sketch.update_count == 0
        assert sketch.matrix_edge_count == 0

    def test_batch_without_routes_travels(self):
        spec = HashSpec(seed=1, hash_range=1 << 12)  # no routing seed
        batch = HashedBatch.from_items([("a", "b", 1.0)], spec)
        frame = protocol.encode_ingest_frame(batch)
        payload = frame[protocol.HEADER_SIZE :]
        decoded = protocol.decode_ingest_payload(payload, spec)
        assert decoded.route_hashes is None
        assert decoded.items() == [("a", "b", 1.0)]


class TestServeBasics:
    def test_hello_negotiation(self, client):
        assert client.server_info["protocol"] == protocol.PROTOCOL_VERSION
        assert client.workers == 2
        assert client.credits >= 1
        assert client.retry_after > 0
        assert client.hash_spec is not None
        assert client.hash_spec.routing_seed is not None
        assert client.binary_ingest == NUMPY_AVAILABLE

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

    def run_equivalence(self, force_json: bool) -> None:
        stream = synthetic_stream(2500, nodes=250, seed=13)
        cluster = build(make_spec())
        reference = build(make_spec())
        handle = serve_in_thread(cluster, ServeConfig(close_summary=False))
        try:
            with ServeClient(handle.host, handle.port, batch_size=256) as feed:
                if force_json:
                    feed.binary_ingest = False
                feed.ingest(stream)
                feed.flush()
                reference.update_many(stream)
                reference.flush()
                assert_equivalent(feed, reference, stream)
        finally:
            handle.stop()
            cluster.close()
            reference.close()

    @pytest.mark.skipif(not NUMPY_AVAILABLE, reason="binary path needs NumPy")
    def test_binary_ingest_equivalent(self):
        self.run_equivalence(force_json=False)

    def test_json_ingest_equivalent(self):
        self.run_equivalence(force_json=True)


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
