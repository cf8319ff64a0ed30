"""The bundled synchronous client — :class:`ServeClient`.

Speaks the frame protocol of :mod:`repro.serve.protocol` over one TCP
connection.  The client is deliberately synchronous (plain sockets): ingest
feeds and load generators run it from ordinary threads, and the pipelining
the protocol needs — a window of unacknowledged ingest frames — is explicit
state here rather than an event loop.

Hash-once over the network: the server's hello frame advertises the
cluster's :class:`~repro.streaming.batch.HashSpec` (node hash family plus
routing seed).  :meth:`ingest` builds each chunk into a
:class:`~repro.streaming.batch.HashedBatch` against that spec — with
cross-batch memos, so a key seen twice is hashed once — and ships the
columns in a binary frame.  Server and workers never hash those keys again.
When either side lacks NumPy the same chunks travel as JSON item lists and
the server hashes them (the documented degrade).

Backpressure: up to ``credits`` (server-granted) ingest frames may be in
flight.  On a ``busy`` reply the client stops sending, drains every
outstanding reply — the server's sticky busy mode guarantees the remainder
are ``busy`` too, preserving order — sleeps the server's ``retry_after``
hint, sends ``resume``, and resends the bounced frames in their original
order.  :meth:`drain` blocks until every sent frame is applied; every query
drains first, so a query observes everything the same client ingested
before it (read-your-writes).
"""

from __future__ import annotations

import json
import socket
import time
from collections import deque
from typing import Hashable, Iterable, List, Optional, Set, Tuple

from repro.serve import protocol
from repro.streaming.batch import HashedBatch, HashSpec

__all__ = [
    "ServeClient",
    "ServeClientError",
    "ServerBusy",
    "fetch_http_metrics",
    "fetch_http_metrics_text",
]


class ServeClientError(RuntimeError):
    """The server reported an error, or the connection broke."""


class ServerBusy(ServeClientError):
    """Raised only when ``max_busy_retries`` is exhausted."""


class ServeClient:
    """One protocol connection to a :class:`~repro.serve.SummaryServer`.

    Parameters
    ----------
    host, port:
        The server address.
    batch_size:
        Items per ingest frame built by :meth:`ingest`.
    max_busy_retries:
        Rounds of busy-backoff per frame before :class:`ServerBusy` is
        raised (a round = drain + sleep + resume + resend).
    timeout:
        Socket timeout in seconds.

    Examples
    --------
    ::

        with ServeClient("127.0.0.1", 8750) as client:
            client.ingest([("a", "b", 1.0), ("a", "c", 2.0)])
            client.flush()
            client.edge_query("a", "b")   # -> 1.0
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        batch_size: int = 1024,
        max_busy_retries: int = 200,
        timeout: float = 30.0,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.batch_size = batch_size
        self.max_busy_retries = max_busy_retries
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rwb")
        self._closed = False
        #: Frames sent but not yet acknowledged: (frame bytes, item count).
        self._outstanding: deque = deque()
        self._node_memo: dict = {}
        self._route_memo: dict = {}
        # Counters the load generator reports.
        self.items_sent = 0
        self.frames_sent = 0
        self.busy_retries = 0

        hello = self._round_trip({"op": "hello"})
        if hello.get("op") != "hello":
            raise ServeClientError(f"unexpected hello reply: {hello!r}")
        self.server_info = hello
        self.credits = max(1, int(hello.get("credits", 1)))
        self.retry_after = float(hello.get("retry_after", 0.05))
        self.workers: Optional[int] = hello.get("workers")
        self.hash_spec: Optional[HashSpec] = protocol.spec_from_wire(
            hello.get("hash_spec")
        )
        self.binary_ingest = bool(
            hello.get("binary_ingest")
            and protocol.binary_ingest_supported()
            and self.hash_spec is not None
        )

    # -- low-level frame IO --------------------------------------------------

    def _read_exact(self, count: int) -> bytes:
        data = self._file.read(count)
        if data is None or len(data) != count:
            raise ServeClientError("server closed the connection")
        return data

    def _send_frame(self, frame: bytes) -> None:
        try:
            self._file.write(frame)
            self._file.flush()
        except (BrokenPipeError, ConnectionError, OSError) as error:
            raise ServeClientError(f"connection lost: {error}") from None

    def _read_reply(self) -> dict:
        try:
            kind, payload = protocol.read_frame(self._read_exact)
        except (ConnectionError, OSError, protocol.ProtocolError) as error:
            raise ServeClientError(f"connection lost: {error}") from None
        if kind != protocol.FRAME_JSON:
            raise ServeClientError(f"unexpected reply frame kind {kind}")
        return protocol.decode_json_payload(payload)

    def _round_trip(self, document: dict) -> dict:
        """Send one op and read its reply (no outstanding frames allowed)."""
        self._send_frame(protocol.pack_json(document))
        reply = self._read_reply()
        if reply.get("op") == "error":
            raise ServeClientError(reply.get("error", "unknown server error"))
        return reply

    # -- ingest pipeline -----------------------------------------------------

    def _encode_batch(self, items: List[Tuple[Hashable, Hashable, float]]) -> Tuple[bytes, int]:
        """Build one ingest frame: hashed+binary when negotiated, JSON else."""
        if self.binary_ingest:
            batch = HashedBatch.from_items(
                items,
                self.hash_spec,
                node_memo=self._node_memo,
                route_memo=self._route_memo,
            )
            return protocol.encode_ingest_frame(batch), len(batch)
        return (
            protocol.pack_json({"op": "ingest", "items": [list(item) for item in items]}),
            len(items),
        )

    def _consume_ack(self) -> None:
        """Read one ingest acknowledgement; run the busy-recovery dance."""
        reply = self._read_reply()
        operation = reply.get("op")
        if operation == "ok":
            self._outstanding.popleft()
            return
        if operation == "error":
            self._outstanding.popleft()
            raise ServeClientError(reply.get("error", "ingest failed"))
        if operation != "busy":
            raise ServeClientError(f"unexpected ingest reply: {reply!r}")
        # Busy: the oldest outstanding frame was rejected, and the server's
        # sticky busy mode rejects every later one — drain them all into a
        # retry list (their order is their stream order), back off, resume,
        # resend.
        retry_after = float(reply.get("retry_after", self.retry_after))
        bounced = [self._outstanding.popleft()]
        while self._outstanding:
            follow_up = self._read_reply()
            if follow_up.get("op") != "busy":  # pragma: no cover - defensive
                raise ServeClientError(
                    f"expected busy for pipelined frame, got {follow_up!r}"
                )
            bounced.append(self._outstanding.popleft())
        for attempt in range(self.max_busy_retries):
            self.busy_retries += 1
            time.sleep(retry_after)
            resume = self._round_trip({"op": "resume"})
            if resume.get("op") != "ok":  # pragma: no cover - defensive
                raise ServeClientError(f"unexpected resume reply: {resume!r}")
            for frame, count in bounced:
                self._send_frame(frame)
            rejected = []
            for frame_entry in bounced:
                reply = self._read_reply()
                operation = reply.get("op")
                if operation == "ok":
                    continue
                if operation == "busy":
                    retry_after = float(reply.get("retry_after", retry_after))
                    rejected.append(frame_entry)
                else:
                    raise ServeClientError(
                        reply.get("error", f"unexpected retry reply: {reply!r}")
                    )
            if not rejected:
                return
            bounced = rejected
        raise ServerBusy(
            f"server still busy after {self.max_busy_retries} retries"
        )

    def ingest_batch(self, items: List[Tuple[Hashable, Hashable, float]]) -> None:
        """Ship one pre-chunked batch (pipelined within the credit window)."""
        if not items:
            return
        self._ensure_open()
        frame, count = self._encode_batch(items)
        while len(self._outstanding) >= self.credits:
            self._consume_ack()
        self._outstanding.append((frame, count))
        self._send_frame(frame)
        self.frames_sent += 1
        self.items_sent += count

    def ingest(self, items: Iterable) -> int:
        """Feed any iterable of items/edges, chunked by ``batch_size``."""
        total = 0
        chunk: List[Tuple[Hashable, Hashable, float]] = []
        for item in items:
            if hasattr(item, "source"):
                chunk.append((item.source, item.destination, item.weight))
            else:
                chunk.append((item[0], item[1], item[2]))
            if len(chunk) >= self.batch_size:
                self.ingest_batch(chunk)
                total += len(chunk)
                chunk = []
        if chunk:
            self.ingest_batch(chunk)
            total += len(chunk)
        return total

    def update(self, source: Hashable, destination: Hashable, weight: float = 1.0) -> None:
        """Convenience scalar update (one item, one frame)."""
        self.ingest_batch([(source, destination, weight)])

    def drain(self) -> None:
        """Block until every sent ingest frame has been applied."""
        while self._outstanding:
            self._consume_ack()

    # -- queries (drain first: read-your-writes) -----------------------------

    def _call(self, method: str, *args):
        self._ensure_open()
        self.drain()
        reply = self._round_trip(
            {
                "op": "call",
                "method": method,
                "args": [protocol.encode_value(value) for value in args],
            }
        )
        return protocol.decode_value(reply.get("value"))

    def edge_query(self, source: Hashable, destination: Hashable) -> Optional[float]:
        return self._call("edge_query", source, destination)

    def successor_query(self, node: Hashable) -> Set[Hashable]:
        return self._call("successor_query", node)

    def precursor_query(self, node: Hashable) -> Set[Hashable]:
        return self._call("precursor_query", node)

    def node_out_weight(self, node: Hashable) -> float:
        return self._call("node_out_weight", node)

    def node_in_weight(self, node: Hashable) -> float:
        return self._call("node_in_weight", node)

    def memory_bytes(self) -> int:
        return self._call("memory_bytes")

    # -- control ops ---------------------------------------------------------

    def flush(self) -> None:
        """Server-side barrier: every routed batch applied on every shard."""
        self._ensure_open()
        self.drain()
        self._round_trip({"op": "flush"})

    def checkpoint(self) -> str:
        """Ask the server to checkpoint into its configured directory."""
        self._ensure_open()
        self.drain()
        return self._round_trip({"op": "checkpoint"}).get("value")

    def metrics(self) -> dict:
        """The server's metrics document (same content as ``GET /metrics``)."""
        self._ensure_open()
        self.drain()
        return self._round_trip({"op": "metrics"}).get("metrics", {})

    # -- lifecycle -----------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServeClientError("the client has been closed")

    def close(self) -> None:
        """Drain outstanding frames, say goodbye, close the socket."""
        if self._closed:
            return
        try:
            self.drain()
            self._send_frame(protocol.pack_json({"op": "close"}))
            reply = self._read_reply()
            if reply.get("op") != "bye":  # pragma: no cover - defensive
                pass
        except ServeClientError:
            pass  # already disconnected
        finally:
            self._closed = True
            try:
                self._file.close()
            except OSError:  # pragma: no cover
                pass
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def fetch_http_metrics(host: str, port: int, timeout: float = 5.0) -> dict:
    """``GET /metrics`` over a throwaway socket (no protocol client needed)."""
    body = _fetch_http(host, port, accept=None, timeout=timeout)
    return json.loads(body.decode("utf-8"))


def fetch_http_metrics_text(host: str, port: int, timeout: float = 5.0) -> str:
    """``GET /metrics`` with ``Accept: text/plain`` — Prometheus exposition."""
    body = _fetch_http(host, port, accept="text/plain", timeout=timeout)
    return body.decode("utf-8")


def _fetch_http(
    host: str, port: int, *, accept: Optional[str], timeout: float
) -> bytes:
    request = "GET /metrics HTTP/1.0\r\n"
    if accept is not None:
        request += f"Accept: {accept}\r\n"
    request += "\r\n"
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(request.encode("ascii"))
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    response = b"".join(chunks)
    head, _, body = response.partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    if " 200 " not in status + " ":
        raise ServeClientError(f"metrics endpoint answered {status!r}")
    return body
