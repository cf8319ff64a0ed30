"""``repro.serve`` — the asyncio network front end over a sharded summary.

The cluster of :mod:`repro.cluster` is a process tree reachable only from
the Python process that built it.  ``repro.serve`` puts a long-lived TCP
server in front of one :class:`~repro.cluster.ShardedSummary` so many
concurrent ingest feeds and query clients — separate processes, separate
machines — share one live summary:

* :mod:`repro.serve.protocol` — length-prefixed frames (JSON control frames
  plus a binary ingest frame carrying the hashed-batch blob of
  :func:`~repro.streaming.batch.encode_hashed_batch` and the routing-hash
  column, so node and routing hashes are computed **once on the client**
  and flow edge-to-worker untouched);
* :mod:`repro.serve.server` — :class:`SummaryServer`: one asyncio acceptor,
  per-connection FIFO reply queues, a single summary executor thread (the
  cluster pipes are single-consumer), credit-window admission control with
  explicit ``busy``/retry-after frames instead of unbounded buffering,
  snapshot-consistent checkpoints, graceful signal-driven drain, and a plain
  HTTP ``GET /metrics`` answered on the same port;
* :mod:`repro.serve.client` — :class:`ServeClient`: the bundled synchronous
  client speaking the same protocol module (pipelined ingest window,
  busy-retry, hash-once batch building against the server's advertised
  :class:`~repro.streaming.batch.HashSpec`);
* :mod:`repro.serve.metrics` — the counters behind ``/metrics`` (per-shard
  items, queue-depth high water, routing imbalance, in-flight credits,
  connection and busy counts);
* :mod:`repro.serve.loadgen` — the measurement harness behind
  ``scripts/load_gen.py`` and ``scripts/record_bench.py --serve``.

Start a server with ``python -m repro serve --workers 2 --port 8750`` and
point :class:`ServeClient` (or ``scripts/load_gen.py``) at it.  The protocol
trusts its network: binary ingest frames carry pickled node keys (exactly
like the cluster's own shared-memory data plane), so bind the server to
loopback or a private network only.
"""

from repro.serve.client import (
    ServeClient,
    ServeClientError,
    ServerBusy,
    fetch_http_metrics,
)
from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.server import ServeConfig, ServerHandle, SummaryServer, serve_in_thread

__all__ = [
    "PROTOCOL_VERSION",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServerBusy",
    "ServerHandle",
    "SummaryServer",
    "fetch_http_metrics",
    "serve_in_thread",
]
