"""Sharded ingestion and fan-out queries, in-process or over worker processes.

The GSS paper argues the summary supports high-speed streams because updates
are hash-local and that it "can also be used in existing distributed graph
systems"; the same property makes it shard cleanly.  :class:`ShardedSummary`
models that deployment once, for two kinds of shard handle:

* edges are routed to one of ``workers`` shards by hashing the source node
  (source-cut routing, the scheme Pregel-style systems use for out-edges);
* each shard owns any registry-buildable summary (GSS by default, with its
  own matrix backend), held either in a worker *process* or, for the
  registry's ``partitioned-gss``, in the caller's process — both kinds apply
  requests through the same :class:`~repro.cluster.worker.Shard`, so the two
  deployments answer every query identically;
* the shard summary must expose a column ingest path (``hash_spec`` +
  ``ingest_columns``, as GSS has): the parent hashes every batch exactly
  once — ``H(v)`` once per distinct node and the routing hash once per
  distinct source, memoized across batches — and sends each shard one
  ``columns`` message (:mod:`repro.cluster.front_end`): its ``(H(s), H(d),
  weight)`` columns in stream order plus the ``(node, H(v))`` pairs to
  record, with no per-item keys;
* an all-string batch — also one that arrives hashed off the network,
  whose hash columns are then left unused — takes the kernel front end:
  one ``gss_route_text_batch`` call hashes, routes and scatters it, and
  each shard is sent only the nodes it has never been sent.  Everything
  else (no kernel, non-string or NUL-containing IDs, more than 64 shards)
  takes the Python front end, which sends a shard its sub-batch's
  distinct node pairs — same message, same answers.  A message that
  fails to reach its shard replaces the router, so every node is sent
  again once;
* a worker receives the message down its pipe as one columns blob, or as
  the pickled :class:`~repro.cluster.front_end.ShardColumns` when NumPy is
  unavailable, and an in-process shard receives the columns themselves;
* scalar :meth:`ShardedSummary.update` calls are coalesced into one outbox
  that is routed like an ``update_many`` batch when it fills, before the
  next batch, and at every query or flush — so per-shard order is stream
  order;
* worker ingestion is pipelined: batches are queued without waiting, a
  bounded number of batches may be in flight per worker (back-pressure), and
  every query acts as a per-shard barrier because the pipes are FIFO;
* queries are capability-gated fan-out: edge / successor / node-out-weight
  route to the single owning shard, precursor and node-in-weight scatter to
  every shard and merge the answers;
* a worker-process cluster checkpoints through the shards' ``to_dict``
  snapshots (see :mod:`repro.cluster.checkpoint`) and restores mid-stream.

The class satisfies the :class:`repro.api.GraphSummary` protocol and is
registered in the factory as ``"sharded-gss"`` (worker processes) and
``"partitioned-gss"`` (in-process shards), so :class:`StreamSession`, the
conformance laws, the CLI and the experiment runners drive it unchanged.
"""

from __future__ import annotations

import multiprocessing
import threading
from time import perf_counter
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.cluster.front_end import (
    KernelFrontEnd,
    ShardColumns,
    encode_columns,
    split_columns,
)
from repro.cluster.worker import Shard, worker_main
from repro.hashing.hash_functions import hash_key
from repro.hashing.vectorized import NUMPY_AVAILABLE
from repro.obs import trace as obs_trace
from repro.obs.registry import MetricsRegistry, merge_snapshots
from repro.queries.primitives import (
    Capabilities,
    ShardIngestStats,
    SummaryShims,
    UnsupportedQueryError,
)
from repro.streaming.batch import HashedBatch, HashSpec

__all__ = ["ClusterError", "ShardedSummary", "DEFAULT_ROUTING_SEED"]

#: Default seed of the shard-routing hash, for both the in-process and the
#: worker-process deployment.
DEFAULT_ROUTING_SEED = 97

SNAPSHOT_FORMAT_VERSION = 1


class ClusterError(RuntimeError):
    """A shard worker failed (build error, query error, or dead process)."""


def _pick_context(start_method: Optional[str]):
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    # fork starts workers in milliseconds and needs no pickling of the spec;
    # platforms without it (Windows, some macOS configurations) fall back to
    # their default (spawn), which works but pays interpreter start-up.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class _WorkerHandle:
    """Parent-side bookkeeping for one shard worker process.

    Tracks the number of outstanding replies (every request gets exactly one,
    in order), the items routed to the shard, and the high-water mark of
    in-flight batches — the cluster's observable queue-depth metric.
    """

    def __init__(
        self,
        context,
        spec,
        worker_id: int,
        max_pending: int,
        snapshot=None,
        snapshot_backend=None,
        obs_enabled: bool = False,
    ) -> None:
        parent_end, child_end = context.Pipe(duplex=True)
        self.worker_id = worker_id
        self.max_pending = max_pending
        #: Parent-side obs instruments, attached by the cluster when its
        #: telemetry is on (``None`` keeps the data plane at one branch).
        self.obs_queue_wait = None
        self.obs_items = None
        self.process = context.Process(
            target=worker_main,
            args=(
                child_end,
                spec,
                worker_id,
                snapshot,
                snapshot_backend,
                obs_enabled,
            ),
            daemon=True,
            name=f"repro-shard-{worker_id}",
        )
        self.process.start()
        child_end.close()
        self.conn = parent_end
        self.pending = 0
        self.items_routed = 0
        self.high_water = 0
        self.closed = False
        self.info: Dict = {}
        ready = self._read_reply()  # build handshake
        if isinstance(ready, tuple) and ready and ready[0] == "ready":
            self.info = ready[1] if len(ready) > 1 else {}
        elif ready != "ready":  # pragma: no cover - defensive
            raise ClusterError(
                f"shard worker {worker_id} sent {ready!r} instead of ready"
            )

    # -- low-level protocol --------------------------------------------------

    def _recv(self):
        try:
            return self.conn.recv()
        except (EOFError, OSError) as error:
            raise ClusterError(
                f"shard worker {self.worker_id} died (pipe closed): {error!r}"
            ) from None

    def _send(self, message: Tuple) -> None:
        try:
            self.conn.send(message)
        except OSError as error:
            raise ClusterError(
                f"shard worker {self.worker_id} died (pipe closed): {error!r}"
            ) from None

    def _read_reply(self):
        """Read one uncounted reply (the build handshake only)."""
        kind, payload = self._recv()
        if kind == "err":
            raise ClusterError(str(payload))
        return payload

    def _take_reply(self):
        """Consume one counted reply; raise on worker errors.

        ``pending`` is decremented *before* the error check: an ``err``
        reply is still a reply, and forgetting to count it would leave the
        handle expecting one more message than the worker will ever send —
        every later request on the shard would block forever.
        """
        kind, payload = self._recv()
        self.pending -= 1
        if kind == "err":
            raise ClusterError(str(payload))
        return payload

    def _post(self, message: Tuple, item_count: int) -> None:
        """Queue one data-plane message without waiting for it to be applied.

        Replies already sitting in the pipe are drained opportunistically,
        and the number of in-flight batches is bounded by ``max_pending`` so
        a slow shard exerts back-pressure instead of buffering unboundedly.
        """
        self._send(message)
        self.pending += 1
        self.items_routed += item_count
        if self.obs_items is not None:
            self.obs_items.inc(item_count)
        if self.pending > self.high_water:
            self.high_water = self.pending
        while self.pending and self.conn.poll():
            self._take_reply()
        if self.pending > self.max_pending:
            # The back-pressure stall: how long routing blocked on this
            # shard draining its queue — the cluster's queue-wait series.
            waited = perf_counter() if self.obs_queue_wait is not None else None
            while self.pending > self.max_pending:
                self._take_reply()
            if waited is not None:
                self.obs_queue_wait.observe(perf_counter() - waited)

    def send_columns(self, columns: ShardColumns) -> None:
        """Queue one shard's share of a batch (a ``columns`` message).

        With NumPy the columns travel as one blob — raw column bytes plus
        the pickled new-node list.  Without NumPy the
        :class:`ShardColumns` of lists is pickled.  The worker applies both
        forms identically.
        """
        payload = encode_columns(columns) if NUMPY_AVAILABLE else columns
        self._post(("columns", payload), len(columns.weights))

    def send_request(self, message: Tuple) -> None:
        """Send a request whose reply will be collected later (fan-out)."""
        self._send(message)
        self.pending += 1

    def collect(self):
        """Drain replies until the most recently sent request's arrives.

        Valid because replies come back in request order: once ``pending``
        reaches zero the reply just read belongs to the last request sent.
        """
        payload = None
        while self.pending:
            payload = self._take_reply()
        return payload

    def request(self, message: Tuple):
        """Round-trip one request (draining queued batch replies first)."""
        self.send_request(message)
        return self.collect()

    def drain(self) -> None:
        """Block until every queued batch has been applied by the worker."""
        while self.pending:
            self._take_reply()

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.request(("stop",))
        except ClusterError:
            pass  # a dead worker is already stopped
        finally:
            self.process.join(timeout=5)
            if self.process.is_alive():  # pragma: no cover - defensive
                self.process.terminate()
                self.process.join(timeout=5)
            self.conn.close()

    def kill(self) -> None:
        """Hard-terminate the worker without flushing (crash simulation)."""
        if self.closed:
            return
        self.closed = True
        self.process.terminate()
        self.process.join(timeout=5)
        self.conn.close()


class _InlineHandle:
    """One shard held in the caller's process, behind :class:`_WorkerHandle`'s
    interface.

    Every message is applied on the spot by the handle's :class:`Shard`, so
    nothing is ever in flight (``pending`` and ``high_water`` stay 0) and
    shard exceptions propagate unchanged.  A stopped or killed handle raises
    :class:`ClusterError` naming the shard, like a dead worker.
    """

    pending = 0
    high_water = 0

    def __init__(self, spec, worker_id: int, snapshot=None, snapshot_backend=None) -> None:
        self.worker_id = worker_id
        self.obs_items = None
        self.items_routed = 0
        self.shard: Optional[Shard] = Shard(spec, worker_id, snapshot, snapshot_backend)
        self.info: Dict = {"hash_spec": self.shard.hash_spec}
        self._reply = None

    def request(self, message: Tuple):
        if self.shard is None:
            raise ClusterError(f"shard {self.worker_id} is gone (stopped or killed)")
        operation = message[0]
        if operation == "obs_enable":
            return True
        if operation == "obs":
            # Inline spans already record into the caller's registry; a
            # snapshot of it would be merged in a second time.
            return None
        return self.shard.apply(message)

    def _post(self, message: Tuple, item_count: int) -> None:
        self.request(message)
        self.items_routed += item_count
        if self.obs_items is not None:
            self.obs_items.inc(item_count)

    def send_columns(self, columns: ShardColumns) -> None:
        self._post(("columns", columns), len(columns.weights))

    def send_request(self, message: Tuple) -> None:
        self._reply = self.request(message)

    def collect(self):
        reply, self._reply = self._reply, None
        return reply

    def drain(self) -> None:
        """Nothing is ever queued."""

    def stop(self) -> None:
        self.shard = None

    kill = stop


class ShardedSummary(SummaryShims):
    """A graph-stream summary sharded in-process or across worker processes.

    Parameters
    ----------
    inner_spec:
        :class:`~repro.api.registry.SketchSpec` every shard is built from.
        The spec must carry sizing (a budget, expected edges, or an explicit
        size parameter); the registry's ``sharded-gss`` and
        ``partitioned-gss`` builders do the budget-splitting arithmetic.
        The sketch must have a column ingest path (``hash_spec`` +
        ``ingest_columns``, as GSS has); any other raises
        :class:`ValueError`, after the shards it started are stopped.
    workers:
        Number of shards.
    routing_seed:
        Seed of the source-node routing hash (default
        :data:`DEFAULT_ROUTING_SEED`).
    batch_size:
        Scalar ``update`` calls are coalesced client-side into batches of
        this size before being routed.
    max_pending_batches:
        Bound on in-flight batches per worker (ingestion back-pressure).
    start_method:
        Optional :mod:`multiprocessing` start method override.
    shard_snapshots / snapshot_backend:
        Restore path (used by :meth:`from_dict` / checkpoint recovery): one
        snapshot document per worker, rebuilt inside each worker during the
        start-up handshake instead of building a fresh sketch.
    in_process:
        Hold the shards in the caller's process instead of worker processes
        (the registry's ``partitioned-gss``).  Such a deployment exposes
        :attr:`shards`, merges with :func:`~repro.core.merge.merge_sketches`
        and has no snapshot format.

    Examples
    --------
    >>> from repro.api import SketchSpec
    >>> cluster = ShardedSummary(SketchSpec("gss", memory_bytes=4096), workers=2)
    >>> cluster.update("a", "b", 2.0)
    >>> cluster.edge_query("a", "b")
    2.0
    >>> cluster.close()
    """

    def __init__(
        self,
        inner_spec,
        workers: int = 2,
        *,
        routing_seed: int = DEFAULT_ROUTING_SEED,
        batch_size: int = 1024,
        max_pending_batches: int = 16,
        start_method: Optional[str] = None,
        shard_snapshots: Optional[List[Dict]] = None,
        snapshot_backend: Optional[str] = None,
        in_process: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if max_pending_batches < 1:
            raise ValueError("max_pending_batches must be at least 1")
        if shard_snapshots is not None and len(shard_snapshots) != workers:
            raise ValueError(
                f"{len(shard_snapshots)} shard snapshots for {workers} workers"
            )
        self.inner_spec = inner_spec
        self.workers = workers
        self.batch_size = batch_size
        self.in_process = in_process
        self._routing_seed = routing_seed
        self._update_count = 0
        self._closed = False
        # Reentrant guard serializing every pipe-touching operation.  A bare
        # cluster used from one thread never contends on it; the network
        # front end (repro.serve) and any multi-threaded caller rely on it
        # for two guarantees: (a) pipe messages never interleave, and
        # (b) barrier() / shard_snapshots() hold it across *all* shards, so
        # a concurrent query observes either the whole pre-checkpoint state
        # or the whole post-checkpoint state — never a partial mix.
        self._lock = threading.RLock()
        # Cluster telemetry: adopted from the globally-enabled registry when
        # one is active at construction time, or installed later through
        # :meth:`enable_obs` (the serve front end's path).  Workers record
        # into their own process-local registries; the parent caches their
        # snapshots on every flush so :meth:`obs_snapshot` never has to touch
        # a pipe.  In-process shards record into the caller's registry.
        self._obs = obs_trace.active()
        self._obs_worker_cache: Optional[Dict] = None
        self._handles: List[Union[_WorkerHandle, _InlineHandle]] = []
        context = None if in_process else _pick_context(start_method)
        try:
            for worker_id in range(workers):
                # On the restore path each worker rebuilds its summary from
                # its snapshot during the handshake, instead of building a
                # fresh sketch only to throw it away.
                snapshot = shard_snapshots[worker_id] if shard_snapshots else None
                if in_process:
                    handle = _InlineHandle(
                        inner_spec, worker_id, snapshot, snapshot_backend
                    )
                else:
                    handle = _WorkerHandle(
                        context,
                        inner_spec,
                        worker_id,
                        max_pending_batches,
                        snapshot=snapshot,
                        snapshot_backend=snapshot_backend,
                        obs_enabled=self._obs is not None,
                    )
                self._handles.append(handle)
        except Exception:
            self.close()
            raise
        # The shards report their summary's hash spec in the build
        # handshake; the client hashes every batch exactly once under it
        # (node + routing hashes, vectorized when NumPy is available) and
        # ships the columns — the hash-once ingest pipeline.
        shard_spec: Optional[HashSpec] = self._handles[0].info.get("hash_spec")
        if shard_spec is None:
            self.close()
            raise ValueError(
                f"cannot shard {getattr(inner_spec, 'sketch', inner_spec)!r}: "
                "its summary has no hashed ingest path (hash_spec + "
                "ingest_columns)"
            )
        if self._obs is not None:
            self._attach_obs_instruments()
        self._client_spec = shard_spec.with_routing(routing_seed)
        # The front ends (repro.cluster.front_end): the kernel's, when it
        # can run here, and the Python one's cross-batch hash memos.
        self._kernel = KernelFrontEnd.create(self._client_spec, workers)
        self._node_memo: Dict[Hashable, int] = {}
        self._route_memo: Dict[Hashable, int] = {}
        # Client-side coalescing buffer for scalar updates.
        self._outbox: List[Tuple[Hashable, Hashable, float]] = []

    # -- routing -------------------------------------------------------------

    def shard_of(self, node: Hashable) -> int:
        """Index of the shard process that owns the out-edges of ``node``."""
        return hash_key(node, seed=self._routing_seed) % self.workers

    @property
    def transport(self) -> str:
        """The data-plane transport: ``"pipe"`` (one per worker process), or
        ``"inline"`` for in-process shards."""
        return "inline" if self.in_process else "pipe"

    def hash_spec(self) -> HashSpec:
        """Shard node-hash family plus this cluster's routing seed.

        The spec :meth:`update_many` hashes each batch under.  A caller that
        ships prehashed batches — the serve client's ``FRAME_HBATCH`` —
        builds them under it so :meth:`update_many_hashed` takes them
        without re-hashing them as a batch.
        """
        return self._client_spec

    # -- updates -------------------------------------------------------------

    def update(self, source: Hashable, destination: Hashable, weight: float = 1.0) -> None:
        """Queue one stream item (coalesced client-side, routed in batches)."""
        with self._lock:
            self._ensure_open()
            self._outbox.append((source, destination, weight))
            self._update_count += 1
            if len(self._outbox) >= self.batch_size:
                self._send_outbox()

    def update_many(self, items: Iterable[Tuple[Hashable, Hashable, float]]) -> int:
        """Hash a batch once, split it by shard, and queue each shard's part.

        Returns the number of items routed.  The call does *not* wait for the
        workers to apply the batches — :meth:`flush` (or any query) is the
        barrier — which is what lets routing and shard ingestion overlap
        across processes.  Queued scalar updates are routed first, as a
        batch of their own, so a batch that cannot be routed costs them
        nothing.
        """
        with self._lock:
            self._ensure_open()
            batch = items if isinstance(items, list) else list(items)
            self._send_outbox()
            self._route(batch)
            self._update_count += len(batch)
            return len(batch)

    def update_many_hashed(self, batch: HashedBatch) -> int:
        """Route a prepared :class:`HashedBatch` to its owning shards.

        A batch built under this cluster's :meth:`hash_spec` — a serve
        client's ``FRAME_HBATCH`` — takes the kernel front end by its IDs
        when they are all strings, like :meth:`update_many`'s batches (the
        router hashes only nodes it has never met, and takes no hash off the
        wire), and is otherwise split by its route column with no hash work.
        Any other batch is re-hashed once through :meth:`update_many`, since
        batches may arrive off the network.
        """
        with self._lock:
            self._ensure_open()
            if (
                not batch.hashed
                or batch.spec is None
                or not batch.spec.matches(self._client_spec)
                or batch.spec.routing_seed != self._routing_seed
                or batch.route_hashes is None
            ):
                return self.update_many(batch.items())
            self._send_outbox()
            with obs_trace.span("cluster.route", registry=self._obs):
                parts = None
                if self._kernel is not None:
                    parts = self._kernel.route_batch(batch)
                count = self._send(
                    split_columns(batch, self.workers) if parts is None else parts
                )
            self._update_count += count
            return count

    def _route(self, items: List) -> None:
        """Hash and route ``items`` through the kernel front end, or the
        Python one where the kernel cannot take them (lock held)."""
        if not items:
            return
        parts = self._kernel.route(items) if self._kernel is not None else None
        if parts is None:
            parts = split_columns(
                HashedBatch.from_items(
                    items,
                    self._client_spec,
                    node_memo=self._node_memo,
                    route_memo=self._route_memo,
                ),
                self.workers,
            )
        with obs_trace.span("cluster.route", registry=self._obs):
            self._send(parts)

    def _send(self, parts: Iterable[Tuple[int, ShardColumns]]) -> int:
        """Queue each shard's columns (the Python split runs lazily, inside
        the caller's ``cluster.route`` span); return the items sent.

        A message that fails to reach its shard leaves the router believing
        it sent that message's nodes, so any failure here replaces the
        router: the next batches send every node again once.
        """
        count = 0
        try:
            for shard, columns in parts:
                self._handles[shard].send_columns(columns)
                count += len(columns.weights)
        except BaseException:
            if self._kernel is not None:
                self._kernel = KernelFrontEnd.create(self._client_spec, self.workers)
            raise
        return count

    def _send_outbox(self) -> None:
        """Route the queued scalar updates (lock held).  The outbox empties
        first: a queued update that cannot be routed is dropped with its
        error rather than kept to fail every later call."""
        if self._outbox:
            items, self._outbox = self._outbox, []
            self._route(items)

    def ingest(self, edges) -> "ShardedSummary":
        """Feed an iterable of :class:`~repro.streaming.edge.StreamEdge`."""
        self.update_many((edge.source, edge.destination, edge.weight) for edge in edges)
        return self

    def flush(self) -> None:
        """Barrier: push client buffers out and wait for every queued batch.

        After ``flush`` returns, every shard has applied every item routed so
        far — the state a checkpoint snapshots and a throughput measurement
        must include.
        """
        with self._lock:
            self._ensure_open()
            self._send_outbox()
            for handle in self._handles:
                handle.drain()
            if self._obs is not None:
                # The flush barrier is the natural collection point: every
                # worker is idle, so its snapshot covers all routed items.
                self._collect_worker_obs()

    # -- query primitives ----------------------------------------------------

    def _ask_one(self, shard: int, method: str, *args):
        """Route one query to one shard (pending batches apply first: FIFO)."""
        with self._lock:
            self._ensure_open()
            self._send_outbox()
            return self._handles[shard].request(("call", method, args))

    def _ask_all(self, method: str, *args) -> List:
        """Scatter one query to every shard, then gather in shard order."""
        with self._lock:
            self._ensure_open()
            self._send_outbox()
            for handle in self._handles:
                handle.send_request(("call", method, args))
            return [handle.collect() for handle in self._handles]

    def edge_query(self, source: Hashable, destination: Hashable) -> Optional[float]:
        """Edge query served by the single shard owning ``source``."""
        return self._ask_one(self.shard_of(source), "edge_query", source, destination)

    def successor_query(self, node: Hashable) -> Set[Hashable]:
        """Successor query served by the single shard owning ``node``."""
        return self._ask_one(self.shard_of(node), "successor_query", node)

    def precursor_query(self, node: Hashable) -> Set[Hashable]:
        """Precursor query: fans out to every shard and unions the answers."""
        merged: Set[Hashable] = set()
        for answer in self._ask_all("precursor_query", node):
            merged.update(answer)
        return merged

    def node_out_weight(self, node: Hashable) -> float:
        """Total out-going weight, served by the owning shard."""
        return self._ask_one(self.shard_of(node), "node_out_weight", node)

    def node_in_weight(self, node: Hashable) -> float:
        """Total in-coming weight, gathered from every shard."""
        return float(sum(self._ask_all("node_in_weight", node)))

    # -- introspection -------------------------------------------------------

    @property
    def update_count(self) -> int:
        """Number of stream items routed into the cluster."""
        return self._update_count

    def shard_ingest_stats(self) -> ShardIngestStats:
        """Cumulative per-shard routing stats (see :class:`ShardIngestStats`).

        ``items_routed`` counts every item handed to each shard (including
        items still in worker queues, and scalar updates still queued in the
        client, by the shard they will go to); ``queue_depth_high_water`` is
        the largest number of batches that were in flight to any single
        worker at once — the observable measure of routing imbalance and
        worker lag.  Reading them sends nothing.
        """
        with self._lock:
            routed = [handle.items_routed for handle in self._handles]
            if self._outbox:
                queued = HashedBatch.from_items(
                    self._outbox,
                    self._client_spec,
                    node_memo=self._node_memo,
                    route_memo=self._route_memo,
                )
                for shard, sub_batch in queued.split_by_route(self.workers):
                    routed[shard] += len(sub_batch)
        high_water = max((handle.high_water for handle in self._handles), default=0)
        return ShardIngestStats(items_routed=routed, queue_depth_high_water=high_water)

    def shard_memory_bytes(self) -> List[int]:
        """Per-shard memory footprint under the paper's C layout."""
        return [int(value) for value in self._ask_all("memory_bytes")]

    def memory_bytes(self) -> int:
        """Total memory of all shard summaries (the comparison unit)."""
        return sum(self.shard_memory_bytes())

    @property
    def matrix_edge_count(self) -> int:
        """Distinct sketch edges stored in the shard matrices."""
        return sum(self._ask_all("matrix_edge_count"))

    @property
    def buffer_edge_count(self) -> int:
        """Distinct sketch edges stored in the shard buffers."""
        return sum(self._ask_all("buffer_edge_count"))

    @property
    def buffer_percentage(self) -> float:
        """Fraction of stored sketch edges that had to go to shard buffers."""
        with self._lock:
            buffered = self.buffer_edge_count
            total = self.matrix_edge_count + buffered
        return buffered / total if total else 0.0

    def shard_loads(self) -> List[int]:
        """Number of sketch edges (matrix + buffer) stored per shard.

        Source-cut routing follows the node-popularity skew of the stream, so
        the spread of this list quantifies the load imbalance a real
        distributed deployment would see.
        """
        with self._lock:
            matrix = self._ask_all("matrix_edge_count")
            buffered = self._ask_all("buffer_edge_count")
        return [stored + spilled for stored, spilled in zip(matrix, buffered)]

    def load_imbalance(self) -> float:
        """Max shard load over the mean shard load (1.0 = perfectly even).

        An all-zero load vector (nothing stored yet) reports a perfectly
        even 1.0 instead of dividing by zero.
        """
        loads = self.shard_loads()
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 1.0

    @property
    def shards(self) -> List:
        """The shard summaries, after a flush (in-process deployments only).

        Read-only use intended; e.g. ``merge_sketches(deployment.shards)``
        collapses a GSS deployment into one sketch.
        """
        if not self.in_process:
            raise UnsupportedQueryError(
                "the shards of a worker-process deployment live in the workers"
            )
        with self._lock:
            self.flush()
            return [handle.shard.summary for handle in self._handles]

    # -- telemetry -----------------------------------------------------------

    def _attach_obs_instruments(self) -> None:
        """Bind per-shard queue instruments to the handles (lock not needed:
        called from ``__init__`` or under :meth:`enable_obs`'s lock)."""
        for handle in self._handles:
            handle.obs_queue_wait = self._obs.histogram(
                "repro_cluster_queue_wait_seconds",
                "Time routing spent blocked on shard back-pressure.",
                shard=handle.worker_id,
            )
            handle.obs_items = self._obs.counter(
                "repro_cluster_items_routed_total",
                "Stream items routed to each shard by the parent.",
                shard=handle.worker_id,
            )

    def enable_obs(self, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Turn cluster telemetry on after construction (idempotent).

        Records into ``registry`` when given, else the globally-enabled
        trace registry, else a fresh private one.  Workers are switched on
        over the control pipes; the serve front end calls this so a cluster
        built before :func:`repro.obs.trace.enable` still reports.
        """
        with self._lock:
            self._ensure_open()
            if registry is not None:
                self._obs = registry
            elif self._obs is None:
                self._obs = obs_trace.active() or MetricsRegistry()
            self._attach_obs_instruments()
            for handle in self._handles:
                handle.request(("obs_enable",))
            return self._obs

    def _collect_worker_obs(self) -> None:
        """Refresh the cached merge of worker registries (lock held)."""
        snapshots = [handle.request(("obs",)) for handle in self._handles]
        self._obs_worker_cache = merge_snapshots(*snapshots)

    def _set_obs_gauges(self) -> None:
        """Publish point-in-time queue depths into the parent registry."""
        for handle in self._handles:
            self._obs.gauge(
                "repro_cluster_queue_depth",
                "Batches currently in flight to each shard worker.",
                shard=handle.worker_id,
            ).set(handle.pending)
            self._obs.gauge(
                "repro_cluster_queue_depth_high_water",
                "Largest number of batches ever in flight to each shard.",
                shard=handle.worker_id,
            ).set(handle.high_water)
        self._obs.gauge(
            "repro_cluster_update_count",
            "Stream items routed into the cluster since start.",
        ).set(self._update_count)

    def obs_snapshot(self, refresh: bool = False) -> Optional[Dict]:
        """Merged telemetry view: parent registry ⊕ cached worker snapshots.

        ``None`` when telemetry is off.  Worker snapshots are refreshed on
        every :meth:`flush`; pass ``refresh=True`` to pull them on demand
        (costs one pipe round-trip per worker).  The default path touches no
        pipes, so a metrics scrape can never block behind ingestion.
        """
        if self._obs is None:
            return None
        with self._lock:
            if refresh and not self._closed:
                self._collect_worker_obs()
            self._set_obs_gauges()
            parent = self._obs.snapshot()
            return merge_snapshots(parent, self._obs_worker_cache)

    def capabilities(self) -> Capabilities:
        """The inner sketch's capabilities, minus single-sketch-only features
        (hash-level paths, window expiry).  An in-process deployment merges
        (its :attr:`shards` are plain sketches) but has no snapshot format;
        a worker-process one is the reverse."""
        from repro.api.registry import sketch_info

        inner = sketch_info(self.inner_spec.sketch).capabilities
        return Capabilities(
            edge_queries=inner.edge_queries,
            successor_queries=inner.successor_queries,
            precursor_queries=inner.precursor_queries,
            node_out_weights=inner.node_out_weights,
            node_in_weights=inner.node_in_weights,
            deletions=inner.deletions,
            batched_updates=True,
            serializable=inner.serializable and not self.in_process,
            mergeable=inner.mergeable and self.in_process,
            windowed=False,
            by_hash=False,
            triangle_estimates=False,
        )

    # -- persistence ---------------------------------------------------------

    def shard_snapshots(self) -> List[Dict]:
        """Snapshot every shard (after a flush) in shard order.

        The cluster lock is held across the flush *and* the collection of
        every shard's snapshot — the checkpoint read barrier: a query issued
        from another thread while a checkpoint is in progress blocks until
        the snapshots are consistent, so it can never observe a state where
        some shards have flushed batches the others have not.
        """
        self._ensure_serializable()
        with self._lock:
            self.flush()
            self._ensure_open()
            for handle in self._handles:
                handle.send_request(("snapshot",))
            return [handle.collect() for handle in self._handles]

    def snapshot_metadata(self) -> Dict:
        """The cluster's topology/bookkeeping state, without the shard data.

        The single source of the snapshot fields: :meth:`to_dict` embeds the
        shard snapshots next to it, and the checkpoint manifest
        (:mod:`repro.cluster.checkpoint`) stores it alongside per-shard
        files.
        """
        self._ensure_serializable()
        stats = self.shard_ingest_stats()
        return {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "sketch": "sharded-gss",
            "workers": self.workers,
            "routing_seed": self._routing_seed,
            "batch_size": self.batch_size,
            "update_count": self._update_count,
            "shard_items_routed": stats.items_routed,
            "inner_spec": {
                "sketch": self.inner_spec.sketch,
                "memory_bytes": self.inner_spec.memory_bytes,
                "expected_edges": self.inner_spec.expected_edges,
                "backend": self.inner_spec.backend,
                "seed": self.inner_spec.seed,
                "params": dict(self.inner_spec.params),
            },
        }

    def to_dict(self) -> Dict:
        """One self-contained snapshot document for the whole cluster.

        Embeds every shard's own snapshot plus the routing/bookkeeping state,
        so :meth:`from_dict` rebuilds a cluster that answers every query
        identically and continues ingesting from the same stream position.
        """
        document = self.snapshot_metadata()
        document["shards"] = self.shard_snapshots()
        return document

    @classmethod
    def from_dict(cls, document: Dict, backend: Optional[str] = None) -> "ShardedSummary":
        """Rebuild a cluster from a :meth:`to_dict` document.

        ``backend`` optionally re-targets every shard onto a different matrix
        backend (threaded through the shards' own ``from_dict``).
        """
        from repro.api.registry import SketchSpec

        if document.get("sketch") != "sharded-gss":
            raise ValueError(
                f"not a sharded-gss snapshot (sketch={document.get('sketch')!r})"
            )
        if document.get("format_version") != SNAPSHOT_FORMAT_VERSION:
            raise ValueError(
                "unsupported sharded-gss snapshot version "
                f"{document.get('format_version')!r}"
            )
        shards = document["shards"]
        if len(shards) != document["workers"]:
            raise ValueError(
                f"snapshot names {document['workers']} workers but carries "
                f"{len(shards)} shard documents"
            )
        inner = dict(document["inner_spec"])
        if backend is not None:
            inner["backend"] = backend
        spec = SketchSpec(
            inner["sketch"],
            memory_bytes=inner.get("memory_bytes"),
            expected_edges=inner.get("expected_edges"),
            backend=inner.get("backend", "python"),
            seed=inner.get("seed", 0),
            params=inner.get("params", {}),
        )
        cluster = cls(
            spec,
            workers=document["workers"],
            routing_seed=document["routing_seed"],
            batch_size=document.get("batch_size", 1024),
            shard_snapshots=shards,
            snapshot_backend=backend,
        )
        cluster._update_count = document.get("update_count", 0)
        for handle, routed in zip(
            cluster._handles, document.get("shard_items_routed", [])
        ):
            handle.items_routed = routed
        return cluster

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether the cluster's worker processes have been shut down."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise ClusterError("the cluster has been closed")

    def _ensure_serializable(self) -> None:
        # An in-process snapshot must never pass for a sharded-gss one.
        if self.in_process:
            raise UnsupportedQueryError(
                "an in-process deployment (partitioned-gss) has no snapshot "
                "format (capabilities().serializable is False)"
            )

    def close(self) -> None:
        """Flush nothing, stop every worker, and release the pipes.

        Pending batches a worker has already received are applied before its
        ``stop`` request (FIFO), but items still in client buffers are
        dropped — call :meth:`flush` (or checkpoint) first when the state
        matters.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for handle in self._handles:
                try:
                    handle.stop()
                except Exception:  # pragma: no cover - best-effort teardown
                    pass

    def shutdown(self, checkpoint_dir: Optional[Union[str, "Path"]] = None) -> None:
        """Graceful stop: drain in-flight batches, checkpoint, release workers.

        Unlike :meth:`close` — which drops whatever still sits in the
        client-side outboxes — ``shutdown`` first pushes every buffered item
        out and waits for the workers to apply it, then (when
        ``checkpoint_dir`` is given) writes a consistent checkpoint, and only
        then stops the workers.  This is
        what SIGINT/SIGTERM handlers should call (see
        :func:`repro.cluster.install_signal_handlers`).  Idempotent: a
        second call (or a call on an already-closed cluster) is a no-op.
        """
        with self._lock:
            if self._closed:
                return
            self.flush()
            if checkpoint_dir is not None:
                # Imported here: repro.cluster.checkpoint imports this module.
                from repro.cluster.checkpoint import save_checkpoint

                save_checkpoint(self, checkpoint_dir)
            self.close()

    def kill(self) -> None:
        """Hard-terminate every worker without flushing (crash simulation)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for handle in self._handles:
                handle.kill()

    def __enter__(self) -> "ShardedSummary":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass
