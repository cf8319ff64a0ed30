#!/usr/bin/env python
"""Concurrent load generator for a ``repro serve`` server.

Drives a live :class:`~repro.serve.SummaryServer` with a configurable mix of
ingest feeds and query clients (see :mod:`repro.serve.loadgen`) and prints
one JSON report: aggregate edges/s, p50/p99 query latency, busy/retry
pressure, RSS before/after, and — with ``--verify`` — a sweep proving every
served answer bit-identical to an in-process ``ShardedSummary`` fed the same
stream.

The ``server.op_latency_ms`` section comes from the server's own
``repro_serve_request_seconds`` histograms, scraped before and after the run
and diffed — so next to the client-side round-trip percentiles you see where
the time actually went server-side (frame decode → reply ready, per op).

Point it at a running server::

    PYTHONPATH=src python -m repro serve --workers 2 --port 8750 &
    PYTHONPATH=src python scripts/load_gen.py --port 8750 --items 100000

or let it host one itself (the CI smoke path)::

    PYTHONPATH=src python scripts/load_gen.py --self-host --workers 2 \
        --verify --items 40000

``--verify`` pins one ingest client per shard (the stream is pre-partitioned
by routing hash, so per-shard order matches a single-writer reference);
without it, ``--ingest-clients`` contiguous slices run concurrently and only
throughput is measured.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.loadgen import LoadGenConfig, run_load_test  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8750,
                        help="server port (ignored with --self-host)")
    parser.add_argument("--ingest-clients", type=int, default=2)
    parser.add_argument("--query-clients", type=int, default=6)
    parser.add_argument("--items", type=int, default=50_000,
                        help="synthetic stream length (the fixed work unit)")
    parser.add_argument("--nodes", type=int, default=2_000)
    parser.add_argument("--duration", type=float, default=None,
                        help="keep cycling the stream until this many seconds "
                             "have passed (throughput mode only)")
    parser.add_argument("--batch-size", type=int, default=512)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--verify", action="store_true",
                        help="one ingest client per shard + bit-identical "
                             "sweep against an in-process reference")
    parser.add_argument("--verify-sample", type=int, default=400)
    parser.add_argument("--self-host", action="store_true",
                        help="start a server in this process (needs --workers)")
    parser.add_argument("--workers", type=int, default=2,
                        help="self-hosted server's shard count")
    parser.add_argument("--expected-edges", type=int, default=100_000,
                        help="self-hosted summary's sizing input")
    parser.add_argument("--credits", type=int, default=8,
                        help="self-hosted server's per-connection credit window")
    parser.add_argument("--max-inflight", type=int, default=64,
                        help="self-hosted server's global in-flight batch cap")
    args = parser.parse_args(argv)

    config = LoadGenConfig(
        host=args.host,
        port=args.port,
        ingest_clients=args.ingest_clients,
        query_clients=args.query_clients,
        total_items=args.items,
        nodes=args.nodes,
        duration=args.duration,
        batch_size=args.batch_size,
        seed=args.seed,
        verify=args.verify,
        verify_sample=args.verify_sample,
    )

    handle = None
    cluster = None
    reference = None
    spec = None
    if args.self_host or args.verify:
        from repro.api import SketchSpec, build  # noqa: E402

        spec = SketchSpec(
            "sharded-gss",
            expected_edges=args.expected_edges,
            params={"workers": args.workers},
        )
    if args.self_host:
        from repro.api import build  # noqa: E402
        from repro.serve import ServeConfig, serve_in_thread  # noqa: E402

        cluster = build(spec)
        handle = serve_in_thread(
            cluster,
            ServeConfig(
                host=args.host,
                port=0,
                credits=args.credits,
                max_inflight=args.max_inflight,
                close_summary=False,
            ),
        )
        config.host, config.port = handle.host, handle.port
        print(f"self-hosted server on {config.host}:{config.port} "
              f"(workers={args.workers})",
              file=sys.stderr)
    if args.verify:
        from repro.api import build  # noqa: E402

        reference = build(spec)

    try:
        report = run_load_test(config, reference=reference)
    finally:
        if reference is not None:
            reference.close()
        if handle is not None:
            handle.stop()
        if cluster is not None:
            cluster.close()

    print(json.dumps(report, indent=2))
    op_latency = report.get("server", {}).get("op_latency_ms")
    if op_latency:
        client_query = report.get("query", {})
        print("server-side latency (this run, from server histograms):",
              file=sys.stderr)
        for op, stats in sorted(op_latency.items()):
            p50 = stats.get("p50_ms")
            p99 = stats.get("p99_ms")
            print(f"  {op:<18} count={stats['count']:<8} "
                  f"p50={p50:.3f}ms p99={p99:.3f}ms",
                  file=sys.stderr)
        if client_query.get("p50_ms") is not None:
            print(f"  client round-trip  count={client_query['count']:<8} "
                  f"p50={client_query['p50_ms']:.3f}ms "
                  f"p99={client_query['p99_ms']:.3f}ms",
                  file=sys.stderr)
    if args.verify and not report.get("verify", {}).get("ok"):
        print("verification FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
