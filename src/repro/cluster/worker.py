"""The shard worker process of :mod:`repro.cluster`.

Each worker owns one registry-built summary structure (any sketch the
:mod:`repro.api` factory can build — the default cluster uses GSS shards) and
serves a tiny message protocol over a :class:`multiprocessing.Pipe`:

============== ============================== ==================================
request        payload                        reply payload
============== ============================== ==================================
``batch``      list of update triples         number of items applied
``hbatch``     a hashed-batch blob, or a      number of items applied
               pickled ``HashedBatch``
               without NumPy
``call``       (method name, args tuple)      the method's return value
``snapshot``   —                              the summary's ``to_dict`` document
``obs_enable`` —                              ``True`` (telemetry now recording)
``obs``        —                              the worker registry's snapshot
                                              document, or ``None`` when
                                              telemetry is disabled
``stop``       —                              ``"stopped"`` (worker exits)
============== ============================== ==================================

At startup the worker either builds a fresh summary from ``spec`` or — on the
checkpoint-restore path — restores one directly from a snapshot document,
and answers the handshake with ``("ready", info)`` where ``info`` reports
the summary's :meth:`hash_spec` (or ``None`` when the summary has no hashed
ingest path) — that is how the client discovers whether it may ship
precomputed hash columns.  Every request gets exactly one reply, ``("ok", payload)`` or
``("err", traceback text)``, in request order — the pipe is FIFO, which is
what lets the parent pipeline batch requests without waiting and still know
that a ``call`` sent afterwards observes every prior batch.

The module is import-light on purpose: :mod:`repro.api` is imported inside
:func:`worker_main` (i.e. in the child process) so that ``repro.cluster`` can
be imported by the registry without creating an import cycle.
"""

from __future__ import annotations

import traceback
from typing import Any, Dict, Optional

from repro.streaming.batch import decode_hashed_batch


def _ingest(summary, hashed_ingest, batch) -> int:
    """Feed one HashedBatch through the summary's best available path."""
    if hashed_ingest is not None:
        return hashed_ingest(batch)
    return summary.update_many(batch.items())


def _enable_worker_obs(worker_id: int):
    """Install a *fresh* per-process registry and return its instruments.

    Fresh matters: under the ``fork`` start method the child inherits the
    parent's registry object, and recording into it would double-count
    everything once the parent merges worker snapshots back in.
    """
    from repro.obs import trace
    from repro.obs.registry import MetricsRegistry

    registry = trace.enable(MetricsRegistry())
    items = registry.counter(
        "repro_worker_items_total",
        "Stream items applied by each shard worker process.",
        shard=worker_id,
    )
    return registry, items


def worker_main(
    conn,
    spec,
    worker_id: int,
    snapshot: Optional[Dict] = None,
    backend: Optional[str] = None,
    obs_enabled: bool = False,
) -> None:
    """Run one shard worker until ``stop`` or a closed pipe.

    ``conn`` is the worker end of a duplex pipe, ``spec`` the
    :class:`~repro.api.registry.SketchSpec` of this shard's summary and
    ``worker_id`` the shard index (used only for error messages).  When
    ``snapshot`` is given the summary is restored from it instead of built
    from the spec (``backend`` optionally re-targets the restored matrix
    backend) — the cluster's checkpoint-recovery path.  With
    ``obs_enabled`` (or on a later ``obs_enable`` request) the worker
    records spans/counters into a process-local registry whose snapshot the
    parent collects over this same pipe (the ``obs`` request) and merges
    into the cluster-wide telemetry view.
    """
    from repro.api.registry import build, from_dict
    from repro.obs import trace as obs_trace

    obs_items = None
    if obs_enabled:
        _, obs_items = _enable_worker_obs(worker_id)
    try:
        if snapshot is not None:
            summary = from_dict(snapshot, backend=backend)
        else:
            summary = build(spec)
        hash_spec = None
        hashed_ingest = getattr(summary, "update_many_hashed", None)
        spec_of = getattr(summary, "hash_spec", None)
        if callable(hashed_ingest) and callable(spec_of):
            hash_spec = spec_of()
        else:
            hashed_ingest = None
        conn.send(("ok", ("ready", {"hash_spec": hash_spec})))
    except Exception:
        _send_error(conn, worker_id, traceback.format_exc())
        conn.close()
        return
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            # The parent vanished (hard kill or interpreter exit); there is
            # nobody left to answer, so the worker just goes away too.
            break
        operation = request[0]
        try:
            if operation == "stop":
                conn.send(("ok", "stopped"))
                break
            elif operation == "batch":
                with obs_trace.span("worker.ingest", shard=worker_id):
                    applied = summary.update_many(request[1])
                if obs_items is not None:
                    obs_items.inc(applied)
                conn.send(("ok", applied))
            elif operation == "hbatch":
                batch = request[1]
                with obs_trace.span("worker.ingest", shard=worker_id):
                    if isinstance(batch, bytes):
                        batch = decode_hashed_batch(batch, 0, len(batch), hash_spec)
                    applied = _ingest(summary, hashed_ingest, batch)
                if obs_items is not None:
                    obs_items.inc(applied)
                conn.send(("ok", applied))
            elif operation == "call":
                method, args = request[1], request[2]
                with obs_trace.span("worker.query", shard=worker_id):
                    value = getattr(summary, method)(*args)
                conn.send(("ok", value))
            elif operation == "snapshot":
                with obs_trace.span("worker.snapshot", shard=worker_id):
                    document = summary.to_dict()
                conn.send(("ok", document))
            elif operation == "obs_enable":
                if obs_items is None:
                    _, obs_items = _enable_worker_obs(worker_id)
                conn.send(("ok", True))
            elif operation == "obs":
                registry = obs_trace.active()
                conn.send(
                    ("ok", registry.snapshot() if registry is not None else None)
                )
            else:
                _send_error(conn, worker_id, f"unknown request {operation!r}")
        except Exception:
            _send_error(conn, worker_id, traceback.format_exc())
    conn.close()


def _send_error(conn, worker_id: int, detail: Any) -> None:
    try:
        conn.send(("err", f"shard worker {worker_id}: {detail}"))
    except (OSError, ValueError):  # pragma: no cover - parent already gone
        pass
