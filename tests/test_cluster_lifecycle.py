"""Tests for graceful cluster shutdown: ``ShardedSummary.shutdown`` and the
signal-handler wiring of :mod:`repro.cluster.lifecycle`.

The law: a shutdown — explicit call or SIGINT/SIGTERM — drains every
in-flight batch, checkpoints when asked, and releases every worker process
without ``resource_tracker`` warnings.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.api import SketchSpec, build
from repro.cluster import (
    DEFAULT_SHUTDOWN_SIGNALS,
    install_signal_handlers,
    load_checkpoint,
)

SHARD_PARAMS = dict(matrix_width=24, sequence_length=4, candidate_buckets=4)


def make_cluster(workers: int = 2):
    return build(
        SketchSpec("sharded-gss", params={"workers": workers, **SHARD_PARAMS})
    )


class TestShutdown:
    def test_shutdown_drains_and_checkpoints(self, tmp_path):
        cluster = make_cluster()
        cluster.update_many([(f"s{i}", "t", 1.0) for i in range(200)])
        # No explicit flush: shutdown itself must drain the outboxes.
        cluster.shutdown(checkpoint_dir=tmp_path)
        assert cluster.closed
        assert (tmp_path / "manifest.json").exists()
        restored = load_checkpoint(tmp_path)
        try:
            assert restored.update_count == 200
            assert restored.edge_query("s1", "t") == 1.0
        finally:
            restored.close()

    def test_shutdown_without_checkpoint_just_closes(self):
        cluster = make_cluster()
        cluster.update("a", "b", 1.0)
        cluster.shutdown()
        assert cluster.closed

    def test_shutdown_is_idempotent(self, tmp_path):
        cluster = make_cluster()
        cluster.shutdown(checkpoint_dir=tmp_path)
        cluster.shutdown(checkpoint_dir=tmp_path)  # no error, no double work
        assert cluster.closed


class TestSignalHandlers:
    def test_install_and_restore(self):
        cluster = make_cluster()
        try:
            originals = {
                signum: signal.getsignal(signum)
                for signum in DEFAULT_SHUTDOWN_SIGNALS
            }
            restore = install_signal_handlers(cluster)
            for signum in DEFAULT_SHUTDOWN_SIGNALS:
                assert signal.getsignal(signum) is not originals[signum]
            restore()
            for signum in DEFAULT_SHUTDOWN_SIGNALS:
                assert signal.getsignal(signum) is originals[signum]
        finally:
            cluster.close()

    @pytest.mark.skipif(os.name != "posix", reason="POSIX signals")
    def test_sigterm_drains_checkpoints_and_exits(self, tmp_path):
        """A real SIGTERM to a real process: drain, checkpoint, clean exit."""
        checkpoint_dir = tmp_path / "ckpt"
        script = textwrap.dedent(
            f"""
            import signal, sys, time
            from repro.api import SketchSpec, build
            from repro.cluster import install_signal_handlers

            cluster = build(SketchSpec(
                "sharded-gss",
                params=dict(workers=2, matrix_width=24,
                            sequence_length=4, candidate_buckets=4),
            ))
            install_signal_handlers(cluster, {str(checkpoint_dir)!r})
            cluster.update_many([(f"k{{i}}", "t", 1.0) for i in range(500)])
            print("READY", flush=True)
            while True:
                time.sleep(0.1)
            """
        )
        src_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            assert process.stdout.readline().strip() == "READY"
            process.send_signal(signal.SIGTERM)
            _, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        # The handler re-raises the signal after the drain: killed-by-SIGTERM
        # is the honest exit status for supervisors.
        assert process.returncode == -signal.SIGTERM, (process.returncode, stderr)
        assert "resource_tracker" not in stderr, stderr
        assert "Traceback" not in stderr, stderr
        assert (checkpoint_dir / "manifest.json").exists()
        restored = load_checkpoint(checkpoint_dir)
        try:
            # The un-flushed tail of the stream survived the signal.
            assert restored.update_count == 500
            assert restored.edge_query("k499", "t") == 1.0
        finally:
            restored.close()
