"""Graceful-shutdown plumbing for bare :class:`ShardedSummary` users.

A cluster owns real child processes, so dying on an unhandled
``KeyboardInterrupt`` means items still sitting in client-side outboxes are
lost and no checkpoint is written.  :func:`install_signal_handlers` fixes
both for script-style users::

    cluster = build(SketchSpec("sharded-gss", expected_edges=100_000))
    restore = install_signal_handlers(cluster, checkpoint_dir="ckpt/")
    try:
        ...  # long-running ingest
    finally:
        restore()
        cluster.shutdown(checkpoint_dir="ckpt/")

On SIGINT or SIGTERM the handler drains in-flight batches, checkpoints when a
directory was given, closes every worker, restores the previously-installed
handlers and re-raises the signal so the process still terminates with the
conventional status.  The asyncio front end
(:mod:`repro.serve`) uses ``loop.add_signal_handler`` instead — this module
is for plain synchronous scripts.
"""

from __future__ import annotations

import signal
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Union

__all__ = ["DEFAULT_SHUTDOWN_SIGNALS", "install_signal_handlers"]

#: The signals a graceful cluster teardown intercepts by default.
DEFAULT_SHUTDOWN_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def install_signal_handlers(
    cluster,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    *,
    signals: Iterable[signal.Signals] = DEFAULT_SHUTDOWN_SIGNALS,
) -> Callable[[], None]:
    """Drain/checkpoint/close ``cluster`` on the given signals.

    Returns a zero-argument ``restore()`` callable that puts the previous
    handlers back; call it when the cluster is shut down by other means (it
    is idempotent, and the handler restores the originals itself before
    re-raising).  Only the main thread of the main interpreter may install
    signal handlers — callers on other threads should drive
    :meth:`ShardedSummary.shutdown` directly.
    """
    signals = tuple(signals)
    originals: Dict[int, object] = {}

    def restore() -> None:
        while originals:
            number, previous = originals.popitem()
            signal.signal(number, previous)

    def handler(signum, frame) -> None:
        # Restore first: a second signal during the drain kills the process
        # the ordinary way instead of re-entering the teardown.
        restore()
        cluster.shutdown(checkpoint_dir=checkpoint_dir)
        # Re-raise so the process exits with the conventional signal status
        # (and KeyboardInterrupt still reaches the main thread for SIGINT).
        signal.raise_signal(signum)

    try:
        for number in signals:
            originals[int(number)] = signal.signal(number, handler)
    except ValueError:  # not the main thread
        restore()
        raise
    return restore
