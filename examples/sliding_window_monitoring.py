"""Sliding-window monitoring of a communication stream with WindowedGSS.

Run with::

    python examples/sliding_window_monitoring.py

The script plays a timestamped mailing-list analog (lkml-reply) into a
sliding-window GSS, injects a sudden burst of traffic on one edge half-way
through the stream, and shows how the window summary:

* reports the burst edge as a heavy changer between consecutive epochs,
* forgets traffic that has aged out of the window,
* keeps memory bounded by the number of live window slices.

This mirrors the paper's network-monitoring use case: a NOC dashboard that
cares about "the communication graph of the last N minutes", not the whole
history.
"""

from __future__ import annotations

from repro import GSS, GSSConfig
from repro.core.windowed import WindowedGSS
from repro.datasets import load_dataset
from repro.datasets.perturbations import burst_stream
from repro.queries.heavy_changers import top_k_changers


def main() -> None:
    # 1. A timestamped stream with an injected traffic burst on one edge.
    stream = load_dataset("lkml-reply", scale=0.2).sorted_by_timestamp()
    stream = burst_stream(stream, burst_edge_index=3, burst_size=200)
    statistics = stream.statistics()
    duration = stream[len(stream) - 1].timestamp - stream[0].timestamp
    print(f"stream '{stream.name}': {statistics.item_count} items over {duration:.0f} time units")

    burst_edge = stream.distinct_edge_keys()[3]
    print(f"injected burst on edge {burst_edge}")

    # 2. A sliding window covering the most recent quarter of the stream.
    config = GSSConfig.for_edge_count(
        max(1, statistics.distinct_edges // 4), sequence_length=8, candidate_buckets=8
    )
    window = WindowedGSS(config, window_span=duration / 4, slices=6)
    window.ingest(stream)
    start, end = window.window_bounds()
    print(
        f"window [{start:.0f}, {end:.0f}] holds {window.active_slice_count} live slices, "
        f"{window.memory_bytes() / 1024:.1f} KiB, buffer share {window.buffer_percentage:.4f}"
    )

    # 3. Edges that aged out of the window are no longer reported.
    earliest_edge = stream[0].key
    weight = window.edge_query(*earliest_edge)
    print(f"oldest edge {earliest_edge}: "
          f"{'expired from the window' if weight is None else f'weight {weight:.0f}'}")

    # 4. Epoch-over-epoch heavy changers: split the stream in two halves and
    #    summarize each half with its own sketch.
    half = len(stream) // 2
    epoch_config = GSSConfig.for_edge_count(
        max(1, statistics.distinct_edges // 2), sequence_length=8, candidate_buckets=8
    )
    first_epoch = GSS(epoch_config).ingest(stream[:half])
    second_epoch = GSS(epoch_config).ingest(stream[half:])
    candidates = stream.distinct_edge_keys()[:500]
    print("\ntop-5 heavy changers between the two epochs:")
    for (source, destination), delta in top_k_changers(first_epoch, second_epoch, candidates, 5):
        marker = "  <-- injected burst" if (source, destination) == burst_edge else ""
        print(f"  {source} -> {destination}: weight change {delta:+.0f}{marker}")


if __name__ == "__main__":
    main()
