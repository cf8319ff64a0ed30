"""The asyncio TCP front end over one summary — :class:`SummaryServer`.

Architecture
------------

One acceptor serves three kinds of traffic on a single port:

* **protocol connections** — length-prefixed frames (see
  :mod:`repro.serve.protocol`).  Each connection gets a reader coroutine and
  a writer coroutine joined by a FIFO reply queue, so replies always leave
  in request order even though ingest batches are applied asynchronously;
* **HTTP probes** — a request starting with ``GET``/``HEAD`` is answered as
  plain HTTP (``/metrics``, ``/healthz``) and closed, so ``curl`` and
  scrapers need no custom client;
* **signals** — SIGINT/SIGTERM trigger the graceful drain: stop accepting,
  let connections finish, flush the summary, checkpoint when a directory is
  configured, close the cluster (stopping its workers).

The summary itself (typically a :class:`~repro.cluster.ShardedSummary`) is
**not** asyncio-aware — its worker pipes block, and they are single-consumer.
All summary work therefore funnels through a one-thread executor: the event
loop stays free to accept frames and answer ``/metrics`` while batches grind
through the cluster, and summary operations retain a global total order —
which is exactly what makes reads snapshot-consistent during a checkpoint
(the checkpoint holds the cluster lock across every shard; queries serialize
before or after it, never between two shards' snapshots).

Backpressure
------------

Admission control bounds server memory instead of letting slow workers grow
an unbounded backlog:

* per connection, at most ``credits`` ingest frames may be admitted-but-
  unapplied (the credit window, advertised in the hello frame);
* globally, at most ``max_inflight`` batches may sit in the executor queue.

An ingest frame over either bound receives an explicit ``busy`` reply with a
``retry_after`` hint — and the connection enters *busy mode*: every further
ingest frame is also rejected until the client sends a ``resume`` op.  The
sticky rejection is what preserves stream order: a rejected batch can never
be overtaken by a later batch that happened to arrive when a slot was free.
The bundled client turns this into drain → pause → resume → resend, so a
well-behaved feed loses nothing and stays ordered (the load generator and
the serve tests assert byte-identical answers under sustained busy
pressure).
"""

from __future__ import annotations

import asyncio
import signal as signal_module
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Set, Union

from repro.obs.export import render_prometheus
from repro.serve import protocol
from repro.serve.metrics import (
    ServerMetrics,
    collect_obs_snapshot,
    http_response,
    http_text_response,
    render_metrics,
)

__all__ = ["ServeConfig", "ServerHandle", "SummaryServer", "serve_in_thread"]

_CLOSE = object()  # writer-queue sentinel

#: Query methods a client may invoke; everything else is rejected so the
#: wire protocol can never reach lifecycle methods like ``close``/``kill``.
ALLOWED_CALLS = frozenset(
    {
        "edge_query",
        "successor_query",
        "precursor_query",
        "node_in_weight",
        "node_out_weight",
        "memory_bytes",
    }
)


@dataclass
class ServeConfig:
    """Tunables of one :class:`SummaryServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off server.port
    #: Per-connection ingest credit window (admitted-but-unapplied frames).
    credits: int = 8
    #: Global bound on batches sitting in the summary executor queue.
    max_inflight: int = 64
    #: Retry hint (seconds) carried by ``busy`` replies.
    retry_after: float = 0.05
    #: Checkpoint target for the ``checkpoint`` op and the graceful drain.
    checkpoint_dir: Optional[Union[str, Path]] = None
    #: How long the graceful drain waits for open connections.
    drain_timeout: float = 10.0
    #: Whether shutdown also closes the summary (the CLI wants this; tests
    #: that keep querying the summary after stopping the server do not).
    close_summary: bool = True
    #: Whether to enable cluster telemetry on the served summary and expose
    #: the merged instrument snapshot (JSON ``obs`` key, Prometheus text).
    #: The server's own request counters/histograms record either way (they
    #: live in a private registry and cost a few attribute bumps per frame).
    obs: bool = True


class _Connection:
    """Per-connection state: the FIFO reply queue and the credit window."""

    __slots__ = ("writer", "queue", "admitted", "busy_mode", "closing")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue()
        self.admitted = 0  # ingest frames admitted but not yet replied to
        self.busy_mode = False
        self.closing = False


class SummaryServer:
    """Serve one summary to many concurrent network clients.

    Parameters
    ----------
    summary:
        Any :class:`~repro.api.GraphSummary`.  Ingest frames carry node IDs
        and are fed to its ``update_many``, so it hashes each batch once
        itself.  A sharded summary's ``routing_seed`` is advertised in the
        hello frame.
    config:
        A :class:`ServeConfig` (defaults are loopback + ephemeral port).
    """

    def __init__(self, summary, config: Optional[ServeConfig] = None) -> None:
        self.summary = summary
        self.config = config or ServeConfig()
        if self.config.credits < 1:
            raise ValueError("credits must be at least 1")
        if self.config.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.metrics = ServerMetrics()
        if self.config.obs:
            # Turn on the served summary's own telemetry (cluster routing
            # instruments, worker spans) so /metrics shows the whole stack.
            enable_obs = getattr(summary, "enable_obs", None)
            if callable(enable_obs):
                enable_obs()
        # One thread: the cluster pipes are single-consumer and the global
        # total order over summary operations is the consistency argument.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-summary"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connections: Set[_Connection] = set()
        self._closing = False
        self._stopped: Optional[asyncio.Event] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (returns once the socket is listening)."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )

    @property
    def port(self) -> int:
        """The actually-bound port (useful with the ephemeral default)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    def install_signal_handlers(self) -> None:
        """Route SIGINT/SIGTERM to the graceful drain (main thread only)."""
        assert self._loop is not None, "start() first"
        for signum in (signal_module.SIGINT, signal_module.SIGTERM):
            self._loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.shutdown())
            )

    async def wait_stopped(self) -> None:
        """Block until a shutdown (signal- or call-initiated) completes."""
        assert self._stopped is not None, "start() first"
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, drain connections, flush, close.

        Safe to call more than once; later calls wait for the first.
        """
        if self._closing:
            await self.wait_stopped()
            return
        self._closing = True
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        # Let open connections finish their business for a bounded time.
        deadline = self._loop.time() + self.config.drain_timeout
        while self._connections and self._loop.time() < deadline:
            await asyncio.sleep(0.02)
        for connection in list(self._connections):
            connection.closing = True
            connection.queue.put_nowait(_CLOSE)
        # In-flight executor work drains here: flush is queued behind it.
        try:
            if self.config.close_summary:
                shutdown = getattr(self.summary, "shutdown", None)
                if callable(shutdown):
                    await self._run(shutdown, self.config.checkpoint_dir)
                else:
                    await self._run(self._flush_and_checkpoint)
                    close = getattr(self.summary, "close", None)
                    if callable(close):
                        await self._run(close)
            else:
                await self._run(self._flush_and_checkpoint)
        finally:
            # shutdown(wait=True) joins the summary worker thread; parking
            # the join on the default executor keeps the loop free to
            # finish draining connection writers during teardown.
            await self._loop.run_in_executor(None, self._executor.shutdown)
            self._stopped.set()

    def _flush_and_checkpoint(self) -> None:
        flush = getattr(self.summary, "flush", None)
        if callable(flush):
            flush()
        if self.config.checkpoint_dir is not None:
            self._checkpoint()

    def _checkpoint(self) -> str:
        from repro.cluster.checkpoint import save_checkpoint

        path = save_checkpoint(self.summary, self.config.checkpoint_dir)
        self.metrics.checkpoints.inc()
        return str(path)

    def _run(self, fn, *args):
        """Queue one summary operation on the single executor thread."""
        return self._loop.run_in_executor(self._executor, fn, *args)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections_total.inc()
        self.metrics.connections_open.inc()
        connection = _Connection(writer)
        self._connections.add(connection)
        writer_task = asyncio.ensure_future(self._write_replies(connection))
        try:
            header = await reader.readexactly(protocol.HEADER_SIZE)
            if header[:4] in (b"GET ", b"HEAD"):
                await self._serve_http(reader, writer, header)
                return
            while True:
                kind, length = protocol.unpack_header(header)
                if length > protocol.MAX_FRAME_BYTES:
                    raise protocol.ProtocolError(
                        f"frame of {length} bytes exceeds the protocol limit"
                    )
                payload = await reader.readexactly(length) if length else b""
                self.metrics.frames_received.inc()
                self._dispatch_frame(connection, kind, payload)
                if connection.closing:
                    break
                header = await reader.readexactly(protocol.HEADER_SIZE)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            BrokenPipeError,
        ):
            pass  # client went away; nothing to answer
        except protocol.ProtocolError as error:
            self.metrics.errors.inc()
            connection.queue.put_nowait(
                protocol.pack_json({"op": "error", "error": str(error)})
            )
        finally:
            connection.queue.put_nowait(_CLOSE)
            try:
                await writer_task
            except Exception:  # pragma: no cover - writer already logged
                pass
            self._connections.discard(connection)
            self.metrics.connections_open.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _write_replies(self, connection: _Connection) -> None:
        """Drain the FIFO reply queue onto the socket, strictly in order."""
        while True:
            item = await connection.queue.get()
            if item is _CLOSE:
                return
            payload = item if isinstance(item, (bytes, bytearray)) else await item
            try:
                connection.writer.write(payload)
                await connection.writer.drain()
            except (ConnectionError, BrokenPipeError):
                # Keep consuming so pending reply tasks still settle their
                # metrics; nothing can be delivered any more.
                continue

    # -- frame dispatch ------------------------------------------------------

    def _dispatch_frame(
        self, connection: _Connection, kind: int, payload: bytes
    ) -> None:
        # One timestamp at frame decode: every reply path below observes
        # reply-ready minus this, the server-side per-op latency the load
        # generator diffs against its client-side percentiles.
        started = time.perf_counter()
        if kind != protocol.FRAME_JSON:
            raise protocol.ProtocolError(f"unknown frame kind {kind}")
        document = protocol.decode_json_payload(payload)
        self._dispatch_op(connection, document, started)

    def _dispatch_op(
        self, connection: _Connection, document: dict, started: float
    ) -> None:
        operation = document.get("op")
        if operation == "ingest":
            self._ingest(connection, document, started)
        elif operation == "call":
            self._call(connection, document, started)
        elif operation == "hello":
            connection.queue.put_nowait(protocol.pack_json(self._hello()))
        elif operation == "resume":
            connection.busy_mode = False
            connection.queue.put_nowait(protocol.pack_json({"op": "ok"}))
        elif operation == "flush":
            self.metrics.flushes.inc()
            self._enqueue_result(
                connection, self._flush_op, op="flush", started=started
            )
        elif operation == "checkpoint":
            if self.config.checkpoint_dir is None:
                self.metrics.errors.inc()
                connection.queue.put_nowait(
                    protocol.pack_json(
                        {"op": "error", "error": "server has no --checkpoint-dir"}
                    )
                )
            else:
                self._enqueue_result(
                    connection, self._checkpoint, op="checkpoint", started=started
                )
        elif operation == "metrics":
            connection.queue.put_nowait(
                protocol.pack_json({"op": "ok", "metrics": self._metrics_document()})
            )
        elif operation == "close":
            connection.closing = True
            connection.queue.put_nowait(protocol.pack_json({"op": "bye"}))
        else:
            self.metrics.errors.inc()
            connection.queue.put_nowait(
                protocol.pack_json(
                    {"op": "error", "error": f"unknown op {operation!r}"}
                )
            )

    def _hello(self) -> dict:
        return {
            "op": "hello",
            "protocol": protocol.PROTOCOL_VERSION,
            "server": "repro-serve",
            "routing_seed": getattr(self.summary, "routing_seed", None),
            "credits": self.config.credits,
            "retry_after": self.config.retry_after,
            "workers": getattr(self.summary, "workers", None),
            "transport": getattr(self.summary, "transport", None),
        }

    def _flush_op(self) -> None:
        flush = getattr(self.summary, "flush", None)
        if callable(flush):
            flush()

    def _metrics_document(self) -> dict:
        document = render_metrics(
            self.metrics,
            self.summary,
            credits=self.config.credits,
            max_inflight=self.config.max_inflight,
            transport=getattr(self.summary, "transport", None),
        )
        if self.config.obs:
            # Additive: every pre-existing key above is untouched; the full
            # instrument snapshot rides along for repro's own tooling
            # (`python -m repro obs`) and the Prometheus renderer.
            document["obs"] = self._obs_document()
        return document

    def _obs_document(self) -> dict:
        return collect_obs_snapshot(self.metrics, self.summary)

    # -- ingest path ---------------------------------------------------------

    def _ingest(
        self, connection: _Connection, document: dict, started: float
    ) -> None:
        self.metrics.ingest_frames.inc()
        if (
            connection.busy_mode
            or self.metrics.inflight.value >= self.config.max_inflight
            or connection.admitted >= self.config.credits
        ):
            # Sticky rejection: once one frame bounces, every later ingest
            # frame bounces too (until `resume`), so a retried batch can
            # never be applied out of order.
            connection.busy_mode = True
            self.metrics.busy_replies.inc()
            connection.queue.put_nowait(
                protocol.pack_json(
                    {"op": "busy", "retry_after": self.config.retry_after}
                )
            )
            return
        self.metrics.admit()
        connection.admitted += 1
        future = self._run(self._apply_items, document)

        async def settle() -> bytes:
            try:
                applied = await future
            except Exception as error:  # noqa: BLE001 - reported to the client
                self.metrics.errors.inc()
                return protocol.pack_json(
                    {"op": "error", "error": f"{type(error).__name__}: {error}"}
                )
            else:
                self.metrics.ingest_items.inc(applied)
                return protocol.pack_json({"op": "ok", "applied": applied})
            finally:
                self.metrics.settle()
                connection.admitted -= 1
                # Single-threaded event loop: the observe cannot race the
                # /metrics renderer or another settle coroutine.
                self.metrics.observe_request(
                    "ingest", time.perf_counter() - started
                )

        connection.queue.put_nowait(asyncio.ensure_future(settle()))

    def _apply_items(self, document: dict) -> int:
        """Executor-side: check an ingest frame whole, then feed it to
        ``update_many`` (a refused frame touches nothing)."""
        return self.summary.update_many(protocol.ingest_items(document))

    # -- query path ----------------------------------------------------------

    def _call(
        self, connection: _Connection, document: dict, started: float
    ) -> None:
        method = document.get("method")
        if method not in ALLOWED_CALLS:
            self.metrics.errors.inc()
            connection.queue.put_nowait(
                protocol.pack_json(
                    {"op": "error", "error": f"method {method!r} is not servable"}
                )
            )
            return
        self.metrics.queries.inc()
        args = [protocol.decode_value(value) for value in document.get("args", [])]
        bound = getattr(self.summary, method)
        self._enqueue_result(connection, bound, *args, op=method, started=started)

    def _enqueue_result(
        self,
        connection: _Connection,
        fn,
        *args,
        op: Optional[str] = None,
        started: Optional[float] = None,
    ) -> None:
        """Run ``fn`` on the executor; reply ``ok``/``error`` in FIFO order.

        With ``op``/``started`` the reply is also timed into the per-op
        latency histogram (frame decode → reply ready, queue wait included —
        that is the latency a client actually experiences server-side).
        """
        future = self._run(fn, *args)

        async def settle() -> bytes:
            try:
                value = await future
            except Exception as error:  # noqa: BLE001 - reported to the client
                self.metrics.errors.inc()
                return protocol.pack_json(
                    {"op": "error", "error": f"{type(error).__name__}: {error}"}
                )
            finally:
                if op is not None:
                    self.metrics.observe_request(
                        op, time.perf_counter() - started
                    )
            return protocol.pack_json(
                {"op": "ok", "value": protocol.encode_value(value)}
            )

        connection.queue.put_nowait(asyncio.ensure_future(settle()))

    # -- HTTP sidecar --------------------------------------------------------

    async def _serve_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        prefix: bytes,
    ) -> None:
        """Answer one plain HTTP request (``/metrics``, ``/healthz``).

        ``/metrics`` content-negotiates: the JSON document by default, the
        Prometheus text exposition (format 0.0.4) when the request carries
        ``Accept: text/plain`` — so ``curl`` keeps its JSON and a Prometheus
        scraper gets what it expects from the same endpoint.
        """
        try:
            line = prefix + await asyncio.wait_for(reader.readline(), timeout=5.0)
            accept = ""
            while True:  # drain headers so Accept can be honoured
                header = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if header in (b"", b"\r\n", b"\n"):
                    break
                name, _, value = header.decode("latin-1", "replace").partition(":")
                if name.strip().lower() == "accept":
                    accept = value.strip().lower()
        except asyncio.TimeoutError:
            return
        parts = line.decode("latin-1", "replace").split()
        path = parts[1] if len(parts) >= 2 else "/"
        if path.startswith("/metrics"):
            if "text/plain" in accept:
                response = http_text_response(
                    render_prometheus(self._obs_document())
                )
            else:
                response = http_response(self._metrics_document())
        elif path.startswith("/healthz"):
            response = http_response({"status": "ok"})
        else:
            response = http_response(
                {"error": f"unknown path {path!r}"}, status="404 Not Found"
            )
        try:
            writer.write(response)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass


# -- background-thread embedding ---------------------------------------------


class ServerHandle:
    """A :class:`SummaryServer` running on a dedicated event-loop thread.

    Returned by :func:`serve_in_thread`; used by the load generator's
    self-host mode and the serve tests.
    """

    def __init__(self, server: SummaryServer, loop, thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def metrics_document(self) -> dict:
        return self.server._metrics_document()

    def stop(self, timeout: float = 30.0) -> None:
        """Run the graceful drain and join the loop thread."""
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), self._loop
            )
            future.result(timeout=timeout)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(
    summary, config: Optional[ServeConfig] = None
) -> ServerHandle:
    """Start a :class:`SummaryServer` on a fresh daemon thread.

    Blocks until the socket is listening, so ``handle.port`` is valid
    immediately.  Signal handlers are *not* installed (not the main thread);
    stop through :meth:`ServerHandle.stop` or as a context manager.
    """
    started = threading.Event()
    failure: list = []
    holder: dict = {}

    async def _main() -> None:
        server = SummaryServer(summary, config)
        try:
            await server.start()
        except Exception as error:  # pragma: no cover - bind failures
            failure.append(error)
            started.set()
            return
        holder["server"] = server
        holder["loop"] = asyncio.get_running_loop()
        started.set()
        await server.wait_stopped()

    thread = threading.Thread(
        target=lambda: asyncio.run(_main()), name="repro-serve", daemon=True
    )
    thread.start()
    started.wait()
    if failure:
        raise failure[0]
    return ServerHandle(holder["server"], holder["loop"], thread)
