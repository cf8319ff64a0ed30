"""Tests for whole-cluster checkpoint/recovery (:mod:`repro.cluster.checkpoint`).

The production law: checkpoint → kill every worker → restore → resume the
stream, and the final answers match an uninterrupted run exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SketchSpec
from repro.cluster import (
    CheckpointError,
    ShardedSummary,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
)
from repro.cluster.checkpoint import MANIFEST_NAME

SHARD_PARAMS = dict(matrix_width=20, sequence_length=4, candidate_buckets=4)


def make_cluster(workers: int = 2) -> ShardedSummary:
    return ShardedSummary(SketchSpec("gss", params=SHARD_PARAMS), workers=workers)


def stream_items(count: int = 160):
    return [
        (f"n{i % 13}", f"n{(i * 7 + 3) % 17}", float(1 + i % 4)) for i in range(count)
    ]


class TestCheckpointLayout:
    def test_manifest_and_one_file_per_shard(self, tmp_path):
        with make_cluster(workers=3) as cluster:
            cluster.update_many(stream_items())
            manifest_path = save_checkpoint(cluster, tmp_path / "ckpt")
        manifest = read_manifest(tmp_path / "ckpt")
        assert manifest_path.name == MANIFEST_NAME
        assert manifest["workers"] == 3
        assert len(manifest["shards"]) == 3
        for entry in manifest["shards"]:
            assert (tmp_path / "ckpt" / entry["file"]).exists()
        # No stray temp files from the atomic-write protocol.
        assert not list((tmp_path / "ckpt").glob("*.tmp"))

    def test_manifest_records_routing_and_counts(self, tmp_path):
        with make_cluster() as cluster:
            cluster.update_many(stream_items(100))
            save_checkpoint(cluster, tmp_path)
            stats = cluster.shard_ingest_stats()
        manifest = read_manifest(tmp_path)
        assert manifest["update_count"] == 100
        assert [entry["items_routed"] for entry in manifest["shards"]] == (
            stats.items_routed
        )

    def test_shard_files_restore_standalone(self, tmp_path):
        from repro.api import from_dict

        with make_cluster() as cluster:
            cluster.update_many(stream_items(60))
            save_checkpoint(cluster, tmp_path)
        document = json.loads((tmp_path / "shard-0.json").read_text())
        shard = from_dict(document)  # an ordinary GSS snapshot
        assert shard.update_count >= 0


class TestRecovery:
    def test_kill_mid_stream_then_restore_matches_uninterrupted(self, tmp_path):
        items = stream_items(300)
        half = len(items) // 2

        with make_cluster() as uninterrupted:
            uninterrupted.update_many(items)
            expected = {
                (source, destination): uninterrupted.edge_query(source, destination)
                for source, destination, _ in items
            }

        interrupted = make_cluster()
        interrupted.update_many(items[:half])
        save_checkpoint(interrupted, tmp_path)
        interrupted.kill()  # crash: no graceful shutdown, no extra flush

        restored = load_checkpoint(tmp_path)
        try:
            assert restored.update_count == half
            restored.update_many(items[half:])
            assert restored.update_count == len(items)
            for key, weight in expected.items():
                assert restored.edge_query(*key) == weight
        finally:
            restored.close()

    def test_kill_with_batches_in_flight_restores_from_checkpoint(self, tmp_path):
        # Batches queued after the checkpoint are still in the worker pipes
        # when the workers die; they are lost with them.  The checkpoint (a
        # flush barrier) defines the resume point, and replaying the stream
        # from there answers like an uninterrupted run.
        items = stream_items(300)
        half = len(items) // 2

        with make_cluster() as uninterrupted:
            uninterrupted.update_many(items)
            expected = {
                (source, destination): uninterrupted.edge_query(source, destination)
                for source, destination, _ in items
            }

        interrupted = make_cluster()
        interrupted.update_many(items[:half])
        save_checkpoint(interrupted, tmp_path)
        interrupted.update_many(items[half:])  # queued, never flushed
        interrupted.kill()  # crash: the in-flight batches die with the workers

        restored = load_checkpoint(tmp_path)
        try:
            assert restored.update_count == half
            restored.update_many(items[half:])
            for key, weight in expected.items():
                assert restored.edge_query(*key) == weight
        finally:
            restored.close()

    def test_restore_preserves_topology_answers(self, tmp_path):
        items = stream_items(120)
        with make_cluster() as cluster:
            cluster.update_many(items)
            nodes = sorted({source for source, _, _ in items})
            expected = {node: cluster.successor_query(node) for node in nodes}
            precursors = {node: cluster.precursor_query(node) for node in nodes}
            save_checkpoint(cluster, tmp_path)
        restored = load_checkpoint(tmp_path)
        try:
            for node in nodes:
                assert restored.successor_query(node) == expected[node]
                assert restored.precursor_query(node) == precursors[node]
        finally:
            restored.close()

    def test_checkpoint_is_resumable_multiple_times(self, tmp_path):
        # The same checkpoint can seed several recoveries (e.g. replayed on
        # different machines); each restore is independent.
        with make_cluster() as cluster:
            cluster.update_many(stream_items(80))
            save_checkpoint(cluster, tmp_path)
            reference = cluster.edge_query("n1", "n10")
        for _ in range(2):
            restored = load_checkpoint(tmp_path)
            try:
                assert restored.edge_query("n1", "n10") == reference
            finally:
                restored.close()


class TestManifestValidation:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no manifest"):
            read_manifest(tmp_path / "nope")

    def test_invalid_json_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            read_manifest(tmp_path)

    def test_foreign_format_raises(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "other"}))
        with pytest.raises(CheckpointError, match="format"):
            read_manifest(tmp_path)

    def test_shard_count_mismatch_raises(self, tmp_path):
        with make_cluster() as cluster:
            cluster.update("a", "b")
            save_checkpoint(cluster, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["shards"] = manifest["shards"][:1]
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="shard files"):
            read_manifest(tmp_path)

    def test_missing_shard_file_raises(self, tmp_path):
        with make_cluster() as cluster:
            cluster.update("a", "b")
            save_checkpoint(cluster, tmp_path)
        (tmp_path / "shard-1.json").unlink()
        with pytest.raises(CheckpointError, match="missing shard snapshot"):
            load_checkpoint(tmp_path)
