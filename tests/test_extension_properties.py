"""Hypothesis property tests for the deployment wrappers and stream transforms.

The invariants extend the core GSS properties to the new layers:

* **Merge additivity** — merging sketches of two stream halves never reports
  less than a sketch of the whole stream (both only over-estimate), and never
  under-estimates the true weight.
* **Partitioning transparency** — a sharded deployment preserves the
  no-under-estimation and no-false-negative invariants of a single sketch.
* **Window soundness** — with a window spanning the whole stream, the
  windowed sketch behaves like a plain sketch (no under-estimation).
* **Transform algebra** — deduplicate(sum) preserves total edge weights, and
  reverse twice is the identity on keys.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings, strategies as st

from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.core.merge import merge_into
from repro.core.windowed import WindowedGSS
from repro.streaming.edge import StreamEdge
from repro.streaming.stream import GraphStream
from repro.streaming.transforms import deduplicate, reverse_edges
from shard_oracle import partitioned_gss

edge_items = st.tuples(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=1, max_value=5),
)
streams = st.lists(edge_items, min_size=1, max_size=50)

small_configs = st.builds(
    GSSConfig,
    matrix_width=st.integers(min_value=2, max_value=16),
    fingerprint_bits=st.sampled_from([8, 12, 16]),
    rooms=st.integers(min_value=1, max_value=2),
    sequence_length=st.integers(min_value=1, max_value=4),
    candidate_buckets=st.integers(min_value=1, max_value=4),
)


def aggregate(items: List[Tuple[int, int, int]]):
    truth = {}
    for source, destination, weight in items:
        truth[(source, destination)] = truth.get((source, destination), 0.0) + weight
    return truth


def to_stream(items: List[Tuple[int, int, int]]) -> GraphStream:
    return GraphStream(
        [
            StreamEdge(source=s, destination=d, weight=float(w), timestamp=float(i))
            for i, (s, d, w) in enumerate(items)
        ]
    )


@given(items=streams, config=small_configs)
@settings(max_examples=60, deadline=None)
def test_merged_halves_never_underestimate(items, config):
    half = len(items) // 2
    first = GSS(config)
    second = GSS(config)
    for source, destination, weight in items[:half]:
        first.update(source, destination, weight)
    for source, destination, weight in items[half:]:
        second.update(source, destination, weight)
    merged = merge_into(GSS(config), first)
    merge_into(merged, second)
    for (source, destination), weight in aggregate(items).items():
        estimate = merged.edge_query(source, destination)
        assert estimate is not None
        assert estimate >= weight - 1e-9


@given(items=streams, config=small_configs, partitions=st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_partitioned_never_underestimates(items, config, partitions):
    sharded = partitioned_gss(config, partitions=partitions)
    for source, destination, weight in items:
        sharded.update(source, destination, weight)
    for (source, destination), weight in aggregate(items).items():
        estimate = sharded.edge_query(source, destination)
        assert estimate is not None
        assert estimate >= weight - 1e-9


@given(items=streams, config=small_configs, partitions=st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_partitioned_has_no_false_negative_neighbors(items, config, partitions):
    sharded = partitioned_gss(config, partitions=partitions)
    successors = {}
    precursors = {}
    for source, destination, weight in items:
        sharded.update(source, destination, weight)
        successors.setdefault(source, set()).add(destination)
        precursors.setdefault(destination, set()).add(source)
    for node, truth in successors.items():
        assert truth <= sharded.successor_query(node)
    for node, truth in precursors.items():
        assert truth <= sharded.precursor_query(node)


@given(items=streams, config=small_configs, slices=st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_full_span_window_never_underestimates(items, config, slices):
    window = WindowedGSS(config, window_span=float(len(items) + 1), slices=slices)
    for position, (source, destination, weight) in enumerate(items):
        window.update(source, destination, weight, timestamp=float(position))
    for (source, destination), weight in aggregate(items).items():
        estimate = window.edge_query(source, destination)
        assert estimate is not None
        assert estimate >= weight - 1e-9


@given(items=streams)
@settings(max_examples=80, deadline=None)
def test_deduplicate_sum_preserves_total_weights(items):
    stream = to_stream(items)
    summed = deduplicate(stream, keep="sum")
    assert summed.aggregate_weights() == stream.aggregate_weights()
    assert len(summed) == len(stream.distinct_edge_keys())


@given(items=streams)
@settings(max_examples=80, deadline=None)
def test_reverse_twice_is_identity_on_keys(items):
    stream = to_stream(items)
    round_trip = reverse_edges(reverse_edges(stream))
    assert [edge.key for edge in round_trip] == [edge.key for edge in stream]
    assert [edge.weight for edge in round_trip] == [edge.weight for edge in stream]
