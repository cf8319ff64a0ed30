"""Tests for the :class:`repro.api.StreamSession` ingestion facade."""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal
from numbers import Real
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import SketchSpec, StreamSession, build
from repro.core.config import GSSConfig
from repro.core.gss import GSS
from repro.core.windowed import WindowedGSS
from repro.exact.adjacency_list import AdjacencyListGraph
from repro.streaming.edge import StreamEdge
from repro.streaming.stream import GraphStream, stream_from_pairs


def small_stream() -> GraphStream:
    pairs = [(f"s{i % 5}", f"d{i % 7}") for i in range(100)]
    return stream_from_pairs(pairs, [1.0] * len(pairs), name="session-test")


class TestFeeding:
    def test_feed_matches_manual_updates(self):
        session = StreamSession(build("gss", memory_bytes=8192, seed=5), batch_size=16)
        report = session.feed(small_stream())
        assert report.items == 100
        assert report.batches == 7  # ceil(100 / 16)
        assert report.seconds >= 0

        manual = build("gss", memory_bytes=8192, seed=5)
        for edge in small_stream():
            manual.update(edge.source, edge.destination, edge.weight)
        assert (
            session.summary.reconstruct_sketch_edges()
            == manual.reconstruct_sketch_edges()
        )

    def test_feed_bare_triples(self):
        session = StreamSession(build("gss", memory_bytes=8192))
        session.feed([("a", "b", 2.0), ("a", "c", 1.0)])
        assert session.summary.edge_query("a", "b") == 2.0

    def test_feed_dataset_by_name(self):
        session = StreamSession(SketchSpec("gss"))
        report = session.feed_dataset("email-EuAll", scale=0.05)
        assert report.items > 0
        assert session.summary.update_count == report.items

    def test_scalar_fallback_without_update_many(self):
        class ScalarOnly:
            def __init__(self):
                self.seen = []

            def update(self, source, destination, weight=1.0):
                self.seen.append((source, destination, weight))

        store = ScalarOnly()
        StreamSession(store, batch_size=8).feed(small_stream())
        assert len(store.seen) == 100

    def test_exact_store_feeds_like_consume_stream(self):
        exact = AdjacencyListGraph()
        StreamSession(exact).feed(small_stream())
        assert exact.edge_query("s0", "d0") == small_stream().aggregate_weights()[("s0", "d0")]


class TestAutoSizing:
    def test_spec_without_sizing_built_from_stream(self):
        session = StreamSession(SketchSpec("gss"))
        with pytest.raises(RuntimeError, match="not been built"):
            session.summary
        session.feed(small_stream())
        summary = session.summary
        distinct = small_stream().statistics().distinct_edges
        assert summary.config.matrix_width == int((distinct / 2) ** 0.5) + 1

    def test_sketch_name_shorthand(self):
        session = StreamSession("tcm")
        session.feed(small_stream())
        assert session.summary.width >= 2

    def test_unsized_spec_rejects_raw_iterables(self):
        session = StreamSession(SketchSpec("gss"))
        with pytest.raises(RuntimeError, match="auto-sized"):
            session.feed([("a", "b", 1.0)])


class TestWindowedRouting:
    def test_timestamps_reach_windowed_summaries(self):
        window = build(
            "windowed-gss",
            memory_bytes=8192,
            params={"window_span": 10.0, "slices": 2},
        )
        edges = [
            StreamEdge(source="old", destination="x", weight=1.0, timestamp=0.0),
            StreamEdge(source="new", destination="y", weight=1.0, timestamp=100.0),
        ]
        StreamSession(window).feed(edges)
        assert window.edge_query("old", "x") is None  # expired with its slice
        assert window.edge_query("new", "y") == 1.0


class TestMetricsAndProgress:
    def test_progress_hook_called_per_batch(self):
        calls = []
        session = StreamSession(
            build("gss", memory_bytes=8192),
            batch_size=25,
            on_progress=calls.append,
        )
        session.feed(small_stream())
        # One call per chunk plus the completion call.
        assert len(calls) == 5
        assert calls[-1].items == 100

    def test_cumulative_stats_across_feeds(self):
        session = StreamSession(build("gss", memory_bytes=8192), batch_size=50)
        session.feed(small_stream())
        session.feed(small_stream())
        assert session.stats.items == 200
        assert session.stats.batches == 4

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            StreamSession(build("gss", memory_bytes=1024), batch_size=0)


class TestShardStats:
    def test_unsharded_summaries_report_no_shard_stats(self):
        session = StreamSession(build("gss", memory_bytes=8192))
        report = session.feed(small_stream())
        assert report.shard_items is None
        assert report.queue_depth_high_water is None
        assert report.routing_imbalance is None
        assert session.stats.shard_items is None

    def test_partitioned_feed_surfaces_items_per_shard(self):
        summary = build(
            "partitioned-gss", memory_bytes=16384, params={"partitions": 4}
        )
        session = StreamSession(summary, batch_size=32)
        report = session.feed(small_stream())
        assert len(report.shard_items) == 4
        assert sum(report.shard_items) == 100
        assert report.queue_depth_high_water == 0  # synchronous sharding
        assert report.routing_imbalance >= 1.0

    def test_shard_items_are_per_feed_deltas_and_totals_accumulate(self):
        summary = build(
            "partitioned-gss", memory_bytes=16384, params={"partitions": 2}
        )
        session = StreamSession(summary, batch_size=50)
        first = session.feed(small_stream())
        second = session.feed(small_stream())
        # Identical streams route identically, so each feed reports its own
        # 100 items while the session totals both.
        assert sum(first.shard_items) == sum(second.shard_items) == 100
        assert first.shard_items == second.shard_items
        assert session.stats.shard_items == [
            a + b for a, b in zip(first.shard_items, second.shard_items)
        ]

    def test_empty_feed_reports_zero_routing_without_dividing(self):
        summary = build(
            "partitioned-gss", memory_bytes=16384, params={"partitions": 3}
        )
        report = StreamSession(summary).feed([])
        assert report.shard_items == [0, 0, 0]
        assert report.routing_imbalance == 1.0


class TestFailFastSpecs:
    def test_invalid_param_fails_at_construction(self):
        with pytest.raises(ValueError, match="accepted:"):
            StreamSession(SketchSpec("gss", params={"matrix_widht": 64}))

    def test_missing_required_param_fails_at_construction(self):
        with pytest.raises(ValueError, match="window_span"):
            StreamSession(SketchSpec("windowed-gss"))

    def test_param_sized_spec_builds_immediately(self):
        session = StreamSession(SketchSpec("gss", params={"matrix_width": 16}))
        session.feed([("a", "b", 1.0)])
        assert session.summary.edge_query("a", "b") == 1.0


def _native_ready() -> bool:
    from repro.core._native import native_available

    return native_available()


#: GSS matrix backends a session must feed identically.
GSS_BACKENDS = [
    "python",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not _native_ready(), reason="native kernel unavailable or disabled"
        ),
    ),
]


def string_stream(count: int = 2000, nodes: int = 300):
    """StreamEdge items (timestamps set) over string node IDs, with repeats."""
    return [
        StreamEdge(
            source=f"n{(i * 7) % nodes}",
            destination=f"n{(i * 13 + 5) % nodes}",
            weight=float(1 + i % 3),
            timestamp=float(i),
        )
        for i in range(count)
    ]


class TestSummariesHashTheirOwnBatches:
    @pytest.mark.parametrize("backend", GSS_BACKENDS)
    def test_session_feed_equals_chunked_update_many(self, backend):
        items = string_stream()
        fed = build("gss", memory_bytes=8192, backend=backend)
        StreamSession(fed, batch_size=256).feed(items)
        direct = build("gss", memory_bytes=8192, backend=backend)
        triples = [(edge.source, edge.destination, edge.weight) for edge in items]
        for offset in range(0, len(triples), 256):
            direct.update_many(triples[offset : offset + 256])
        # Equal documents, node-index order included: the session hands the
        # sketch its items and records nothing itself.
        assert fed.to_dict() == direct.to_dict()

    @pytest.mark.parametrize("backend", GSS_BACKENDS)
    def test_bare_four_tuples_feed_a_gss(self, backend):
        session = StreamSession(build("gss", memory_bytes=8192, backend=backend))
        session.feed([("a", "b", 1.0, 5), ("a", "b", 2.0, 6), ("b", "c", 1.5, 7)])
        assert session.summary.edge_query("a", "b") == 3.0
        assert session.summary.edge_query("b", "c") == 1.5

    def test_bare_four_tuples_feed_a_partitioned_gss(self):
        summary = build(
            "partitioned-gss", memory_bytes=16384, params={"partitions": 2}
        )
        session = StreamSession(summary)
        session.feed([("a", "b", 1.0, 5), ("a", "b", 2.0, 6), ("b", "c", 1.5, 7)])
        assert summary.edge_query("a", "b") == 3.0
        assert summary.edge_query("b", "c") == 1.5
        assert sum(session.stats.shard_items) == 3


#: Batches a summary must refuse whole: a weight that is not a number after
#: string IDs (kernel text path) and after int IDs (the other paths), an
#: unhashable ID after a good item, and items that are not exact triples
#: (a 4-tuple, a 2-tuple, a bare StreamEdge) after string and int IDs, and
#: a string ID that UTF-8 cannot encode.
UNHASHABLE_BATCH = [("c", "d", 1.0), (["e"], "f", 1.0)]
REJECTED_BATCHES = [
    [("c", "d", 1.0), ("e", "f", "x")],
    [(3, 4, 1.0), (5, 6, "x")],
    UNHASHABLE_BATCH,
    [("c", "d", 1.0), ("e", "f", "1.5")],
    [("c", "d", 1.0), ("e", "f", Decimal("1.5"))],
    [(3, 4, 1.0), (5, 6, b"1")],
    [("c", "d", 1.0), ("e", "f", 1j)],
    [("c", "d", 1.0), ("e", "f", 2.0, 7)],
    [(3, 4, 1.0), (5, 6, 2.0, 7)],
    [("c", "d", 1.0), ("e", "f")],
    [(3, 4, 1.0), (5, 6)],
    [("c", "d", 1.0), StreamEdge("e", "f", 2.0)],
    [(3, 4, 1.0), StreamEdge(5, 6, 2.0)],
    [("c", "d", 1.0), ("\ud800", "f", 1.0)],
]

#: Scalar updates a summary must refuse at the call: a weight that is not a
#: real number, after string and int IDs, an unhashable source or
#: destination, and a string ID that UTF-8 cannot encode.
REJECTED_UPDATES = [
    ("e", "f", "x"),
    (5, 6, "x"),
    ("e", "f", None),
    (5, 6, None),
    ("e", "f", Decimal("1.5")),
    (5, 6, b"1"),
    ("e", "f", 1j),
    (["e"], "f", 1.0),
    ("e", ["f"], 1.0),
    ("\ud800", "f", 1.0),
]

#: Batches a windowed summary must refuse whole: the rows of
#: :data:`REJECTED_BATCHES` without a 4-tuple (a fourth element is a
#: timestamp there), timestamps that are not finite real numbers, and the
#: two batches of a sequence that once moved the window: a bad weight with a
#: far timestamp, then an unhashable ID.
WINDOW_REJECTED_BATCHES = [
    batch
    for batch in REJECTED_BATCHES
    if not any(type(item) is tuple and len(item) == 4 for item in batch)
] + [
    [("c", "d", 1.0, 2.0), ("e", "f", 1.0, "3")],
    [("c", "d", 1.0, 2.0), ("e", "f", 1.0, float("nan"))],
    [("c", "d", 1.0), ("e", "f", 1.0, 10**400)],
    [("a", "b", "x", 500.0)],
    [("a", ["u"], 1.0, 2.0)],
]


def _window_state(window: WindowedGSS):
    return (
        window.update_count,
        window.latest_timestamp,
        window.expired_slice_count,
        {index: sketch.to_dict() for index, sketch in window._sketches.items()},
    )


#: Hash-addressed calls that name a hash outside ``[0, M)``, for ``M`` the
#: sketch's hash range: above it and below zero, scalar, batched and as
#: shard columns.
OUT_OF_RANGE_CALLS = [
    lambda sketch, M: sketch.update_many_by_hash([(1, M + 5, 2.0)]),
    lambda sketch, M: sketch.update_many_by_hash([(1, 2, 1.0), (-1, 3, 1.0)]),
    lambda sketch, M: sketch.update_by_hash(-1, 3, 1.0),
    lambda sketch, M: sketch.update_by_hash(1, M, 1.0),
    lambda sketch, M: sketch.ingest_columns([1, M + 5], [2, 3], [1.0, 1.0], ["z"], [7]),
    lambda sketch, M: sketch.ingest_columns([1], [-2], [1.0]),
    lambda sketch, M: sketch.ingest_columns([1], [2], [1.0], ["z"], [M]),
    lambda sketch, M: sketch.ingest_columns([1], [2], [1.0], ["y", "z"], [3, -1]),
]


#: Hash-addressed calls whose columns hold a hash that is not an integer.
NON_INTEGER_HASH_CALLS = [
    lambda sketch: sketch.update_many_by_hash([(1, 2, 1.0), (1.5, 2.0, 1.0)]),
    lambda sketch: sketch.ingest_columns([1.5], [2.0], [1.0]),
    lambda sketch: sketch.ingest_columns([1, 3], [2, None], [1.0, 1.0]),
]


#: The distinct weights of :data:`REJECTED_UPDATES` that are not real numbers.
REJECTED_WEIGHTS = list(
    {repr(weight): weight for _, _, weight in REJECTED_UPDATES if not isinstance(weight, Real)}.values()
)


class TestARejectedBatchLeavesNoState:
    @pytest.mark.parametrize("batch", REJECTED_BATCHES)
    @pytest.mark.parametrize("backend", GSS_BACKENDS)
    def test_gss(self, backend, batch):
        sketch = build("gss", memory_bytes=8192, backend=backend)
        sketch.update_many([("a", "b", 1.0)])
        before = sketch.to_dict()
        # Only the unhashable ID is a TypeError; a bad weight, an item that
        # is not a triple and an unencodable ID are ValueErrors on both
        # backends.
        expected = TypeError if batch is UNHASHABLE_BATCH else ValueError
        with pytest.raises(expected):
            sketch.update_many(batch)
        assert sketch.to_dict() == before
        assert sketch.successor_query("c") == set()

    @pytest.mark.parametrize("update", REJECTED_UPDATES)
    @pytest.mark.parametrize("backend", GSS_BACKENDS)
    def test_gss_scalar_update(self, backend, update):
        sketch = build("gss", memory_bytes=8192, backend=backend)
        sketch.update("a", "b", 1.0)
        before = sketch.to_dict()
        with pytest.raises((TypeError, ValueError)):
            sketch.update(*update)
        assert sketch.to_dict() == before
        assert sketch.update_count == 1

    @pytest.mark.parametrize("weight", REJECTED_WEIGHTS, ids=repr)
    @pytest.mark.parametrize("backend", GSS_BACKENDS)
    def test_gss_update_by_hash(self, backend, weight):
        sketch = build("gss", memory_bytes=8192, backend=backend)
        sketch.update_by_hash(1, 2, 1.0)
        before = sketch.to_dict()
        with pytest.raises(ValueError):
            sketch.update_by_hash(3, 4, weight)
        assert sketch.to_dict() == before
        assert sketch.update_count == 1

    @pytest.mark.parametrize("call", range(len(OUT_OF_RANGE_CALLS)))
    @pytest.mark.parametrize("backend", GSS_BACKENDS)
    def test_gss_hash_outside_the_hash_range(self, backend, call):
        sketch = GSS(GSSConfig(matrix_width=8, fingerprint_bits=4, backend=backend))
        M = sketch.config.hash_range
        sketch.update_by_hash(1, 2, 1.0)
        before = sketch.to_dict()
        with pytest.raises(ValueError, match="outside"):
            OUT_OF_RANGE_CALLS[call](sketch, M)
        assert sketch.to_dict() == before
        # Taken modulo M, the hash would have named one of these edges.
        for source, destination in [(1, 5), (2, 5), (M - 1, 3), (1, 0), (1, M - 2)]:
            assert sketch.edge_query_by_hash(source, destination) is None
        assert sketch.update_count == 1

    @pytest.mark.parametrize("call", range(len(NON_INTEGER_HASH_CALLS)))
    @pytest.mark.parametrize("backend", GSS_BACKENDS)
    def test_gss_hash_that_is_not_an_integer(self, backend, call):
        sketch = GSS(GSSConfig(matrix_width=8, fingerprint_bits=4, backend=backend))
        sketch.update_by_hash(3, 4, 1.0)
        before = sketch.to_dict()
        with pytest.raises(TypeError, match="integers"):
            NON_INTEGER_HASH_CALLS[call](sketch)
        assert sketch.to_dict() == before
        assert sketch.edge_query_by_hash(1, 2) is None
        assert sketch.update_count == 1

    @pytest.mark.parametrize("backend", GSS_BACKENDS)
    def test_gss_hash_array_that_is_not_integral(self, backend):
        np = pytest.importorskip("numpy")
        sketch = GSS(GSSConfig(matrix_width=8, fingerprint_bits=4, backend=backend))
        sketch.update_by_hash(3, 4, 1.0)
        before = sketch.to_dict()
        with pytest.raises(TypeError, match="integers"):
            sketch.ingest_columns(np.array([1.0, 1.5]), np.array([2, 2]), np.array([1.0, 1.0]))
        assert sketch.to_dict() == before
        assert sketch.update_count == 1

    @pytest.mark.parametrize("batch", WINDOW_REJECTED_BATCHES)
    def test_windowed(self, batch):
        window = WindowedGSS(GSSConfig(matrix_width=16), window_span=10.0, slices=2)
        window.update_many([("a", "b", 1.0, 1.0)])
        before = _window_state(window)
        expected = TypeError if batch in (UNHASHABLE_BATCH, [("a", ["u"], 1.0, 2.0)]) else ValueError
        with pytest.raises(expected):
            window.update_many(batch)
        assert _window_state(window) == before
        assert window.edge_query("a", "b") == 1.0

    @pytest.mark.parametrize("update", REJECTED_UPDATES)
    def test_windowed_scalar_update(self, update):
        window = WindowedGSS(GSSConfig(matrix_width=16), window_span=10.0, slices=2)
        window.update("a", "b", 1.0, timestamp=1.0)
        before = _window_state(window)
        with pytest.raises((TypeError, ValueError)):
            window.update(*update, timestamp=500.0)
        assert _window_state(window) == before

    @pytest.mark.parametrize("batch", REJECTED_BATCHES)
    @pytest.mark.parametrize("name", ["partitioned-gss", "sharded-gss"])
    def test_sharded_deployments(self, name, batch):
        count = "partitions" if name == "partitioned-gss" else "workers"
        with build(name, memory_bytes=16384, params={count: 2}) as summary:

            def documents():
                if summary.in_process:
                    return [shard.to_dict() for shard in summary.shards]
                return summary.shard_snapshots()

            summary.update_many([("a", "b", 1.0)])
            before = documents()
            with pytest.raises((TypeError, ValueError)):
                summary.update_many(batch)
            assert documents() == before
            assert summary.update_count == 1
            summary.update_many([(3, 4, 1.0)])
            assert summary.successor_query(3) == {4}

    @pytest.mark.parametrize("update", REJECTED_UPDATES)
    @pytest.mark.parametrize("name", ["partitioned-gss", "sharded-gss"])
    def test_sharded_scalar_update(self, name, update):
        count = "partitions" if name == "partitioned-gss" else "workers"
        with build(name, memory_bytes=16384, params={count: 2}) as summary:
            summary.update("a", "b", 1.0)
            with pytest.raises((TypeError, ValueError)):
                summary.update(*update)
            assert summary.update_count == 1
            # The update queued before the refused one still lands, and so
            # does a later one.
            summary.update("c", "d", 1.0)
            summary.flush()
            assert summary.edge_query("a", "b") == 1.0
            assert summary.edge_query("c", "d") == 1.0
            assert summary.update_count == 2


class Recorder:
    """A summary that records the chunks ``update_many`` receives."""

    def __init__(self, windowed: bool = False):
        self.windowed = windowed
        self.chunks = []

    def capabilities(self):
        return SimpleNamespace(windowed=self.windowed)

    def update_many(self, items):
        self.chunks.append(items)


class Edge:
    """An edge-like object, with a timestamp only when given one."""

    def __init__(self, source, destination, weight, timestamp=None):
        self.source = source
        self.destination = destination
        self.weight = weight
        if timestamp is not None:
            self.timestamp = timestamp


class TestSessionNormalization:
    def test_bare_tuples_pass_through_untouched(self):
        recorder = Recorder()
        chunk = [("a", "b", 1.0), ("c", "d", 2.0)]
        StreamSession(recorder).feed(chunk)
        [received] = recorder.chunks
        assert received == chunk
        assert all(got is sent for got, sent in zip(received, chunk))

    def test_four_tuples_lose_their_timestamp(self):
        recorder = Recorder()
        StreamSession(recorder).feed([("a", "b", 1.0), ("c", "d", 2.0, 17)])
        assert recorder.chunks == [[("a", "b", 1.0), ("c", "d", 2.0)]]

    def test_edge_like_items_become_triples(self):
        recorder = Recorder()
        StreamSession(recorder).feed([Edge("a", "b", 3.0, timestamp=5)])
        assert recorder.chunks == [[("a", "b", 3.0)]]

    def test_windowed_summaries_get_four_tuples(self):
        recorder = Recorder(windowed=True)
        StreamSession(recorder).feed(
            [Edge("a", "b", 3.0, timestamp=5), Edge("c", "d", 1.0), ("e", "f", 2.0, 9)]
        )
        assert recorder.chunks == [
            [("a", "b", 3.0, 5), ("c", "d", 1.0, None), ("e", "f", 2.0, 9)]
        ]


#: An edge-like tuple subclass whose positional order is not the triple's.
Reordered = namedtuple("Reordered", "weight destination source")

_node_ids = st.sampled_from(["a", "b", "é", "日", "", "n1", "n2", 7, -3])
_weights = st.sampled_from([1.0, 2.0, 0.5, -1.0, 3])


@st.composite
def mixed_items(draw):
    """Items of every shape the session takes, over a small node pool."""
    source, destination, weight = draw(_node_ids), draw(_node_ids), draw(_weights)
    timestamp = float(draw(st.integers(0, 50)))
    kind = draw(st.sampled_from(["triple", "four", "edge", "reordered"]))
    if kind == "triple":
        return (source, destination, weight)
    if kind == "four":
        return (source, destination, weight, timestamp)
    if kind == "edge":
        return StreamEdge(source, destination, weight, timestamp)
    return Reordered(weight, destination, source)


def _reference_items(items, windowed):
    """The normalization the session promises, item by item."""
    normalized = []
    for item in items:
        if isinstance(item, (StreamEdge, Reordered)):
            triple = (item.source, item.destination, item.weight)
            timestamp = getattr(item, "timestamp", None)
        else:
            triple = tuple(item[:3])
            timestamp = item[3] if len(item) > 3 else None
        normalized.append(triple + (timestamp,) if windowed else triple)
    return normalized


SESSION_SUMMARIES = GSS_BACKENDS + ["partitioned-gss"]


def _session_summary(kind):
    if kind == "partitioned-gss":
        return build(kind, memory_bytes=16384, params={"partitions": 2})
    return build("gss", memory_bytes=4096, backend=kind)


def _document(summary):
    if hasattr(summary, "shards"):
        return [shard.to_dict() for shard in summary.shards]
    return summary.to_dict()


class TestSessionFeedsLikeChunkedUpdateMany:
    @pytest.mark.parametrize("kind", SESSION_SUMMARIES)
    @pytest.mark.parametrize("batch_size", [1, 7, 1024])
    @settings(max_examples=15, deadline=None)
    @given(items=st.lists(mixed_items(), max_size=60), as_generator=st.booleans())
    def test_mixed_chunks(self, kind, batch_size, items, as_generator):
        fed = _session_summary(kind)
        source = (item for item in items) if as_generator else items
        report = StreamSession(fed, batch_size=batch_size).feed(source)
        assert report.items == len(items)
        direct = _session_summary(kind)
        triples = _reference_items(items, windowed=False)
        for offset in range(0, len(triples), batch_size):
            direct.update_many(triples[offset : offset + batch_size])
        assert _document(fed) == _document(direct)

    @pytest.mark.parametrize("batch_size", [1, 7, 1024])
    @settings(max_examples=15, deadline=None)
    @given(items=st.lists(mixed_items(), max_size=60))
    def test_windowed_summaries_receive_timestamps(self, batch_size, items):
        def window():
            return build(
                "windowed-gss",
                memory_bytes=8192,
                params={"window_span": 20.0, "slices": 4},
            )

        fed = window()
        StreamSession(fed, batch_size=batch_size).feed(items)
        direct = window()
        quads = _reference_items(items, windowed=True)
        for offset in range(0, len(quads), batch_size):
            direct.update_many(quads[offset : offset + batch_size])
        pairs = {(quad[0], quad[1]) for quad in quads}
        assert [fed.edge_query(*pair) for pair in sorted(pairs, key=repr)] == [
            direct.edge_query(*pair) for pair in sorted(pairs, key=repr)
        ]
