"""The shard worker process of :mod:`repro.cluster`.

Each worker owns one registry-built summary structure (any sketch the
:mod:`repro.api` factory can build — the default cluster uses GSS shards) and
serves a tiny message protocol over a :class:`multiprocessing.Pipe`:

============== ============================== ==================================
request        payload                        reply payload
============== ============================== ==================================
``columns``    one shard's hash columns and   number of items applied
               new node pairs: a columns
               blob, or a pickled
               ``ShardColumns`` without
               NumPy
``call``       (method name, args tuple)      the method's return value (an
                                              attribute's value when it is
                                              not callable)
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
ingest path, which the client refuses) — the hash family the client builds
the batches it ships under.  Every request gets exactly one reply, ``("ok", payload)`` or
``("err", traceback text)``, in request order — the pipe is FIFO, which is
what lets the parent pipeline batch requests without waiting and still know
that a ``call`` sent afterwards observes every prior batch.

The data and query requests are applied by :class:`Shard`, which an
in-process cluster also holds directly (one per shard, no pipe), so both
deployments answer through the same code.  A ``columns`` request (see
:mod:`repro.cluster.front_end`) carries the shard's ``(H(s), H(d),
weight)`` columns in stream order and the ``(node, H(v))`` pairs to record;
the shard records the pairs with one ``record_new_many`` call of its node
index and places the columns with one batch ingest call — no per-item keys
and no per-item loop.  A malformed message raises :class:`ValueError` before the
summary is touched.

The module is import-light on purpose: :mod:`repro.api` is imported inside
:class:`Shard` (i.e. when a shard is built) so that ``repro.cluster`` can be
imported by the registry without creating an import cycle.
"""

from __future__ import annotations

import traceback
from typing import Any, Dict, Optional

from repro.cluster.front_end import checked_columns, decode_columns
from repro.obs import trace as obs_trace


class Shard:
    """One shard's summary and the data/query requests applied to it.

    Shared by both deployments: a worker process runs one inside
    :func:`worker_main`, and an in-process cluster holds one per shard
    handle.  The summary is built from ``spec`` with the registry's
    ``build``, or restored from ``snapshot`` with its ``from_dict``
    (``backend`` optionally re-targets the restored matrix backend).
    :attr:`hash_spec` is the summary's hash spec when it has a column
    ingest path (``hash_spec`` + ``ingest_columns``), else ``None`` — a
    :class:`~repro.cluster.ShardedSummary` refuses such a shard, so every
    shard it keeps ingests ``columns`` requests.
    """

    def __init__(
        self,
        spec,
        worker_id: int,
        snapshot: Optional[Dict] = None,
        backend: Optional[str] = None,
    ) -> None:
        from repro.api.registry import build, from_dict

        self.worker_id = worker_id
        if snapshot is not None:
            self.summary = from_dict(snapshot, backend=backend)
        else:
            self.summary = build(spec)
        spec_of = getattr(self.summary, "hash_spec", None)
        hashed = callable(getattr(self.summary, "ingest_columns", None))
        self.hash_spec = spec_of() if hashed and callable(spec_of) else None
        #: Items-applied counter, set when the worker's telemetry is on.
        self.obs_items = None

    def apply(self, request) -> Any:
        """Apply one ``columns``/``call``/``snapshot`` request and return its
        reply payload."""
        operation = request[0]
        if operation == "call":
            method, args = request[1], request[2]
            with obs_trace.span("worker.query", shard=self.worker_id):
                value = getattr(self.summary, method)
                # Properties (matrix_edge_count, ...) come back as values.
                return value(*args) if callable(value) else value
        if operation == "snapshot":
            with obs_trace.span("worker.snapshot", shard=self.worker_id):
                return self.summary.to_dict()
        if operation != "columns":
            raise ValueError(f"unknown request {operation!r}")
        payload = request[1]
        with obs_trace.span("worker.ingest", shard=self.worker_id):
            if isinstance(payload, bytes):
                columns = decode_columns(payload)
            else:
                columns = checked_columns(payload)
            applied = self.summary.ingest_columns(*columns)
        if self.obs_items is not None:
            self.obs_items.inc(applied)
        return applied


def _enable_worker_obs(worker_id: int):
    """Install a *fresh* per-process registry; return its items counter.

    Fresh matters: under the ``fork`` start method the child inherits the
    parent's registry object, and recording into it would double-count
    everything once the parent merges worker snapshots back in.
    """
    from repro.obs.registry import MetricsRegistry

    return obs_trace.enable(MetricsRegistry()).counter(
        "repro_worker_items_total",
        "Stream items applied by each shard worker process.",
        shard=worker_id,
    )


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
    obs_items = _enable_worker_obs(worker_id) if obs_enabled else None
    try:
        shard = Shard(spec, worker_id, snapshot, backend)
        shard.obs_items = obs_items
        conn.send(("ok", ("ready", {"hash_spec": shard.hash_spec})))
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
            elif operation == "obs_enable":
                if shard.obs_items is None:
                    shard.obs_items = _enable_worker_obs(worker_id)
                conn.send(("ok", True))
            elif operation == "obs":
                registry = obs_trace.active()
                conn.send(
                    ("ok", registry.snapshot() if registry is not None else None)
                )
            else:
                conn.send(("ok", shard.apply(request)))
        except Exception:
            _send_error(conn, worker_id, traceback.format_exc())
    conn.close()


def _send_error(conn, worker_id: int, detail: Any) -> None:
    try:
        conn.send(("err", f"shard worker {worker_id}: {detail}"))
    except (OSError, ValueError):  # pragma: no cover - parent already gone
        pass
