"""Load-generation harness behind ``scripts/load_gen.py``.

Drives one :class:`~repro.serve.SummaryServer` with many concurrent
:class:`~repro.serve.ServeClient` connections — a configurable split of
ingest feeds and query clients — and reports aggregate ingest throughput,
query latency percentiles, busy/retry pressure, and RSS, as one JSON-safe
dict.

Two measurement modes:

* **throughput** (default) — the synthetic stream is split into contiguous
  per-client slices; with ``duration`` set, each ingest client cycles its
  slice until the deadline.  Measures speed only.
* **verify** (``verify=True``) — the stream is pre-partitioned *by shard*
  (the routing hash under the server's advertised ``routing_seed``,
  reduced modulo the worker count), with exactly one ingest client per
  shard.  Each worker then sees
  its items in the same relative order as a single-writer reference fed the
  whole stream, so after a final flush every served answer must be
  **bit-identical** to an in-process :class:`~repro.cluster.ShardedSummary`
  built from the same spec — which the harness checks with a post-run sweep.
  (Concurrent writers to the *same* shard would interleave
  nondeterministically and legitimately change GSS bucket placement; the
  per-shard partition is what makes equality a valid assertion.)

Query clients run throughout either mode, measuring wall-clock round-trip
latency; they are excluded from the verification sweep (during-run answers
race ingest by design).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.hashing.hash_functions import hash_key
from repro.obs.registry import histogram_quantile, subtract_snapshots
from repro.serve.client import ServeClient
from repro.serve.metrics import REQUEST_LATENCY_FAMILY

__all__ = [
    "LoadGenConfig",
    "partition_by_shard",
    "rss_bytes",
    "run_load_test",
    "synthetic_stream",
]

Edge = Tuple[Hashable, Hashable, float]


def synthetic_stream(total: int, nodes: int, seed: int = 7) -> List[Edge]:
    """A deterministic synthetic edge stream (power-law-ish source reuse)."""
    rng = random.Random(seed)
    edges: List[Edge] = []
    for index in range(total):
        # Square the draw so low node ids repeat often: repeated edges and
        # hot successor sets, the regime GSS is built for.
        source = f"n{int(rng.random() ** 2 * nodes)}"
        destination = f"n{rng.randrange(nodes)}"
        edges.append((source, destination, float(rng.randint(1, 5))))
    return edges


def partition_by_shard(
    stream: Sequence[Edge], routing_seed: int, workers: int
) -> List[List[Edge]]:
    """Split a stream into per-shard sub-streams, preserving per-shard order."""
    parts: List[List[Edge]] = [[] for _ in range(workers)]
    for item in stream:
        # repro: allow(hash-once): verify-mode pre-partition, runs once at
        # benchmark setup before the clock starts — not an ingest path.
        parts[hash_key(item[0], seed=routing_seed) % workers].append(item)
    return parts


def rss_bytes() -> Optional[int]:
    """This process's resident set size, or ``None`` off Linux."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _percentile(samples: List[float], quantile: float) -> float:
    ordered = sorted(samples)
    position = quantile * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _server_op_latency(
    after_obs: Optional[Dict], before_obs: Optional[Dict]
) -> Optional[Dict]:
    """Per-op server-side latency attributable to this run.

    Diffs the server's ``repro_serve_request_seconds`` histograms scraped
    before and after the run (:func:`subtract_snapshots`), so a long-lived
    server's prior traffic never pollutes the numbers, and estimates
    p50/p99 from the bucket counts.  ``None`` when the server exposes no
    obs snapshot (running with ``obs=False``).
    """
    if not after_obs:
        return None
    delta = subtract_snapshots(after_obs, before_obs)
    family = delta["families"].get(REQUEST_LATENCY_FAMILY)
    if family is None:
        return None
    bounds = family.get("buckets") or []
    ops: Dict = {}
    for series in family["series"].values():
        count = series.get("count", 0)
        if not count:
            continue
        p50 = histogram_quantile(bounds, series["counts"], 0.50)
        p99 = histogram_quantile(bounds, series["counts"], 0.99)
        ops[series["labels"].get("op", "")] = {
            "count": count,
            "p50_ms": p50 * 1e3 if p50 is not None else None,
            "p99_ms": p99 * 1e3 if p99 is not None else None,
            "mean_ms": series["sum"] / count * 1e3,
        }
    return ops or None


@dataclass
class LoadGenConfig:
    """Everything :func:`run_load_test` needs to drive one run."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Ingest connections.  In verify mode this is forced to the server's
    #: worker count (one single-writer feed per shard).
    ingest_clients: int = 2
    #: Query connections (run concurrently with ingest, measure latency).
    query_clients: int = 6
    #: Items in the synthetic stream (the fixed work unit).
    total_items: int = 50_000
    #: Distinct node universe of the synthetic stream.
    nodes: int = 2_000
    #: With a duration, ingest clients cycle their slice until the deadline
    #: (throughput mode only — verify needs the fixed work unit).
    duration: Optional[float] = None
    batch_size: int = 512
    seed: int = 7
    #: Queries each query client issues per loop iteration settle pause.
    query_pause: float = 0.0
    verify: bool = False
    #: Edges / nodes sampled by the verification sweep.
    verify_sample: int = 400
    max_busy_retries: int = 500
    client_timeout: float = 60.0


def _ingest_worker(
    config: LoadGenConfig,
    slice_items: List[Edge],
    deadline: Optional[float],
    counters: Dict,
    errors: List[str],
) -> None:
    try:
        with ServeClient(
            config.host,
            config.port,
            batch_size=config.batch_size,
            max_busy_retries=config.max_busy_retries,
            timeout=config.client_timeout,
        ) as client:
            client.ingest(slice_items)
            while deadline is not None and time.monotonic() < deadline:
                client.ingest(slice_items)
            client.drain()
            with counters["lock"]:
                counters["items"] += client.items_sent
                counters["frames"] += client.frames_sent
                counters["busy_retries"] += client.busy_retries
    except Exception as error:  # noqa: BLE001 - reported, run fails loudly
        errors.append(f"ingest client: {error!r}")


def _query_worker(
    config: LoadGenConfig,
    worker_seed: int,
    done: threading.Event,
    latencies: List[float],
    counters: Dict,
    errors: List[str],
) -> None:
    rng = random.Random(worker_seed)
    samples: List[float] = []
    queries = 0
    try:
        with ServeClient(
            config.host, config.port, timeout=config.client_timeout
        ) as client:
            while True:
                source = f"n{rng.randrange(config.nodes)}"
                destination = f"n{rng.randrange(config.nodes)}"
                kind = queries % 3
                begin = time.perf_counter()
                if kind == 0:
                    client.edge_query(source, destination)
                elif kind == 1:
                    client.successor_query(source)
                else:
                    client.node_out_weight(source)
                samples.append(time.perf_counter() - begin)
                queries += 1
                if done.is_set() and queries >= 3:
                    break
                if config.query_pause:
                    time.sleep(config.query_pause)
    except Exception as error:  # noqa: BLE001
        errors.append(f"query client: {error!r}")
    with counters["lock"]:
        latencies.extend(samples)
        counters["queries"] += queries


def _verification_sweep(
    config: LoadGenConfig,
    stream: List[Edge],
    reference,
) -> Dict:
    """Compare served answers against an in-process reference, bit for bit."""
    rng = random.Random(config.seed + 1)
    edges = [stream[rng.randrange(len(stream))] for _ in range(config.verify_sample)]
    nodes = sorted({edge[0] for edge in edges})[: config.verify_sample // 4]
    checked = 0
    mismatches: List[str] = []
    with ServeClient(config.host, config.port, timeout=config.client_timeout) as client:
        client.flush()
        for source, destination, _ in edges:
            served = client.edge_query(source, destination)
            direct = reference.edge_query(source, destination)
            checked += 1
            if served != direct:
                mismatches.append(f"edge {source}->{destination}: {served!r} != {direct!r}")
        for node in nodes:
            pairs = (
                (client.successor_query(node), reference.successor_query(node)),
                (client.precursor_query(node), reference.precursor_query(node)),
                (client.node_out_weight(node), reference.node_out_weight(node)),
                (client.node_in_weight(node), reference.node_in_weight(node)),
            )
            for served, direct in pairs:
                checked += 1
                if served != direct:
                    mismatches.append(f"node {node}: {served!r} != {direct!r}")
    return {
        "checked": checked,
        "mismatches": len(mismatches),
        "mismatch_examples": mismatches[:5],
        "ok": not mismatches,
    }


def run_load_test(
    config: LoadGenConfig,
    *,
    reference=None,
    stream: Optional[List[Edge]] = None,
) -> Dict:
    """Run one load test against a live server and return the report dict.

    ``reference`` (verify mode) is an in-process summary — typically a
    :class:`~repro.cluster.ShardedSummary` built from the same spec as the
    server's — that the harness feeds the whole stream in order and then
    sweeps against the served answers.  ``stream`` overrides the synthetic
    stream (e.g. to replay a dataset).
    """
    if stream is None:
        stream = synthetic_stream(config.total_items, config.nodes, config.seed)
    if config.verify and config.duration is not None:
        raise ValueError("verify mode needs the fixed work unit; drop duration")
    if config.verify and reference is None:
        raise ValueError("verify mode needs a reference summary")

    # Probe the server once for its routing seed and worker count — and scrape
    # its instrument snapshot so the post-run scrape can be diffed down to
    # this run's contribution.
    with ServeClient(config.host, config.port, timeout=config.client_timeout) as probe:
        workers = probe.workers
        routing_seed = probe.routing_seed
        server_info = dict(probe.server_info)
        before_obs = probe.metrics().get("obs")

    if config.verify:
        if not workers or routing_seed is None:
            raise ValueError(
                "verify mode needs a sharded server advertising its routing seed"
            )
        slices = partition_by_shard(stream, routing_seed, workers)
        ingest_clients = workers
    else:
        ingest_clients = max(1, config.ingest_clients)
        step = max(1, (len(stream) + ingest_clients - 1) // ingest_clients)
        slices = [stream[i : i + step] for i in range(0, len(stream), step)]

    counters: Dict = {
        "lock": threading.Lock(),
        "items": 0,
        "frames": 0,
        "busy_retries": 0,
        "queries": 0,
    }
    errors: List[str] = []
    latencies: List[float] = []
    done = threading.Event()
    deadline = (
        time.monotonic() + config.duration if config.duration is not None else None
    )

    rss_before = rss_bytes()
    query_threads = [
        threading.Thread(
            target=_query_worker,
            args=(config, config.seed + 100 + index, done, latencies, counters, errors),
            name=f"loadgen-query-{index}",
            daemon=True,
        )
        for index in range(config.query_clients)
    ]
    ingest_threads = [
        threading.Thread(
            target=_ingest_worker,
            args=(config, slice_items, deadline, counters, errors),
            name=f"loadgen-ingest-{index}",
            daemon=True,
        )
        for index, slice_items in enumerate(slices)
        if slice_items
    ]

    begin = time.perf_counter()
    for thread in query_threads + ingest_threads:
        thread.start()
    for thread in ingest_threads:
        thread.join()
    ingest_elapsed = time.perf_counter() - begin
    done.set()
    for thread in query_threads:
        thread.join()
    rss_after = rss_bytes()

    if errors:
        raise RuntimeError("load generation failed: " + "; ".join(errors))

    verify_report: Optional[Dict] = None
    server_metrics: Dict = {}
    with ServeClient(config.host, config.port, timeout=config.client_timeout) as tail:
        tail.flush()
        server_metrics = tail.metrics()
    if config.verify:
        reference.update_many(stream)
        reference.flush()
        verify_report = _verification_sweep(config, stream, reference)

    report: Dict = {
        "clients": {
            "ingest": len(ingest_threads),
            "query": len(query_threads),
            "total": len(ingest_threads) + len(query_threads),
        },
        "mode": "verify" if config.verify else "throughput",
        "elapsed_seconds": ingest_elapsed,
        "items_sent": counters["items"],
        "frames_sent": counters["frames"],
        "edges_per_second": counters["items"] / ingest_elapsed if ingest_elapsed else 0.0,
        "busy_retries": counters["busy_retries"],
        "errored_frames": 0,
        "query": {
            "count": counters["queries"],
            "p50_ms": _percentile(latencies, 0.50) * 1e3 if latencies else None,
            "p99_ms": _percentile(latencies, 0.99) * 1e3 if latencies else None,
            "mean_ms": (sum(latencies) / len(latencies)) * 1e3 if latencies else None,
        },
        "rss": {"before_bytes": rss_before, "after_bytes": rss_after},
        "server": {
            "transport": server_info.get("transport"),
            "workers": workers,
            "busy_replies": server_metrics.get("busy_replies"),
            "ingest_items": server_metrics.get("ingest_items"),
            "inflight_high_water": server_metrics.get("inflight_high_water"),
            #: True server-side per-op latency (frame decode → reply ready)
            #: from the server's own histograms, diffed across the run —
            #: read next to the client-side ``query`` percentiles above.
            "op_latency_ms": _server_op_latency(
                server_metrics.get("obs"), before_obs
            ),
        },
    }
    if verify_report is not None:
        report["verify"] = verify_report
    return report
