"""Serving a summary over the network: ``repro.serve`` end to end.

The scenario: the traffic-analysis cluster of the other examples stops being
a library inside one Python process and becomes a *service* — collectors on
other machines feed edges over TCP while dashboards query the same live
summary.  This example runs the whole story in one process:

1. build a 2-worker ``sharded-gss`` cluster and put a
   :class:`~repro.serve.SummaryServer` in front of it (background thread
   here; ``python -m repro serve`` in production);
2. connect a :class:`~repro.serve.ServeClient` and feed an edge stream in
   JSON ingest frames with credit-window backpressure (the frames carry
   node IDs; the cluster hashes every node once, as it does in process);
3. query the served summary — answers are bit-identical to calling the
   cluster directly — and read ``GET /metrics`` from the same port;
4. checkpoint through the protocol, stop the server gracefully, and restore
   the checkpoint to show nothing was lost.

Run with::

    PYTHONPATH=src python examples/serving.py
"""

from __future__ import annotations

import tempfile

from repro.api import build
from repro.cluster import load_checkpoint
from repro.datasets.registry import load_dataset
from repro.serve import ServeClient, ServeConfig, fetch_http_metrics, serve_in_thread


def main() -> None:
    stream = load_dataset("email-EuAll", scale=0.05)
    edges = [(edge.source, edge.destination, edge.weight) for edge in stream]
    print(f"stream: {len(edges)} items")

    cluster = build("sharded-gss", memory_bytes=256 * 1024, params={"workers": 2})

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        # --- 1. the server: one asyncio front end over the cluster ---------
        handle = serve_in_thread(
            cluster,
            ServeConfig(checkpoint_dir=checkpoint_dir, close_summary=False),
        )
        print(f"serving on {handle.host}:{handle.port}")

        # --- 2. a collector: ingest with backpressure -----------------------
        with ServeClient(handle.host, handle.port, batch_size=512) as client:
            print(
                f"negotiated: credits={client.credits} workers={client.workers} "
                f"routing_seed={client.routing_seed}"
            )
            client.ingest(edges)
            client.flush()
            print(f"fed {client.items_sent} items in {client.frames_sent} frames "
                  f"({client.busy_retries} busy backoffs)")

            # --- 3. a dashboard: queries + /metrics on the same port --------
            source, destination, _ = edges[0]
            served = client.edge_query(source, destination)
            direct = cluster.edge_query(source, destination)
            print(f"edge {source}->{destination}: served={served} direct={direct} "
                  f"identical={served == direct}")
            out_degree = len(client.successor_query(source))
            print(f"|successors({source})| = {out_degree}")
            metrics = fetch_http_metrics(handle.host, handle.port)
            print(
                f"GET /metrics: ingest_items={metrics['ingest_items']} "
                f"shards={metrics['shards']['items_routed']} "
                f"imbalance={metrics['shards']['routing_imbalance']:.3f}"
            )

            # --- 4. checkpoint through the protocol --------------------------
            client.checkpoint()

        handle.stop()
        print("server stopped (drained + flushed)")

        restored = load_checkpoint(checkpoint_dir)
        try:
            print(
                f"checkpoint restore: {restored.update_count} items, "
                f"edge still {restored.edge_query(source, destination)}"
            )
        finally:
            restored.close()
    cluster.close()


if __name__ == "__main__":
    main()
