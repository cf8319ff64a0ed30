"""The :mod:`repro.obs` telemetry stack: registry math, tracing, exposition.

Covers the contracts the rest of the repo builds on:

* histogram bucket placement and quantile estimation on the fixed
  log-scale bounds;
* snapshot algebra — merge associativity/commutativity (the property that
  makes ``worker ⊕ worker ⊕ parent`` order-free), subtraction deltas, and
  the kind/bucket mismatch errors;
* the cardinality guard (overflow collapse instead of unbounded growth);
* the disabled-mode overhead guard: ``span()`` with telemetry off returns
  one shared singleton — no allocation on the hot path;
* Prometheus exposition: render → parse → validate round trip, and the
  validator catching broken documents;
* the serve layer: legacy JSON ``/metrics`` keys unchanged, the additive
  ``obs`` snapshot, content-negotiated Prometheus text, and server-side
  per-op histograms whose ``count`` equals the client's query count;
* the cluster: worker registries merged into :meth:`obs_snapshot`;
* the ``python -m repro obs`` CLI on dump files and Prometheus input;
* the backends' ingest-stage timings and the session forwarding paths.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import trace
from repro.obs.export import (
    describe_snapshot,
    parse_prometheus,
    render_prometheus,
    validate_prometheus,
)
from repro.obs.registry import (
    DEFAULT_MAX_SERIES,
    LATENCY_BUCKETS,
    MetricsRegistry,
    OVERFLOW_LABEL,
    histogram_quantile,
    merge_snapshots,
    subtract_snapshots,
)


class TestHistogramBuckets:
    def test_bucket_placement_on_log_scale_bounds(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "test")
        # Exactly on a bound lands in that bound's bucket (le semantics),
        # just above it lands in the next one.
        histogram.observe(LATENCY_BUCKETS[0])
        histogram.observe(LATENCY_BUCKETS[0] * 1.0001)
        histogram.observe(0.0)  # below the first bound
        assert histogram.counts[0] == 2
        assert histogram.counts[1] == 1
        assert histogram.count == 3

    def test_overflow_lands_in_trailing_slot(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "test")
        histogram.observe(LATENCY_BUCKETS[-1] * 10)
        assert histogram.counts[-1] == 1
        assert len(histogram.counts) == len(LATENCY_BUCKETS) + 1

    def test_quantile_interpolates_and_clamps(self):
        bounds = (1.0, 2.0, 4.0)
        # 10 observations in (1, 2]: p50 interpolates inside that bucket.
        counts = [0, 10, 0, 0]
        p50 = histogram_quantile(bounds, counts, 0.50)
        assert 1.0 < p50 <= 2.0
        # Overflow-only data clamps to the last finite bound.
        assert histogram_quantile(bounds, [0, 0, 0, 5], 0.99) == 4.0
        assert histogram_quantile(bounds, [0, 0, 0, 0], 0.5) is None
        with pytest.raises(ValueError):
            histogram_quantile(bounds, counts, 1.5)

    def test_instrument_quantile_matches_free_function(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "test")
        for value in (0.001, 0.002, 0.004, 0.008):
            histogram.observe(value)
        assert histogram.quantile(0.5) == histogram_quantile(
            histogram.bounds, histogram.counts, 0.5
        )


def _loaded_registry(scale: int = 1) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("items_total", "items", shard=0).inc(10 * scale)
    registry.counter("items_total", "items", shard=1).inc(20 * scale)
    registry.gauge("depth", "queue depth", shard=0).set(3 * scale)
    histogram = registry.histogram("lat", "latency", op="q")
    for _ in range(5 * scale):
        histogram.observe(0.0009765625)  # 2**-10: exact in binary, so sums
    return registry  # are associative and snapshot equality is well-defined


class TestSnapshotAlgebra:
    def test_merge_adds_counters_and_histograms_takes_gauge_max(self):
        a = _loaded_registry(1).snapshot()
        b = _loaded_registry(3).snapshot()
        merged = merge_snapshots(a, b)
        families = merged["families"]
        assert families["items_total"]["series"]["shard=0"]["value"] == 40
        assert families["depth"]["series"]["shard=0"]["value"] == 9  # max
        assert families["lat"]["series"]["op=q"]["count"] == 20

    def test_merge_is_associative_and_commutative(self):
        a = _loaded_registry(1).snapshot()
        b = _loaded_registry(2).snapshot()
        c = _loaded_registry(5).snapshot()
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        swapped = merge_snapshots(c, a, b)
        assert left == right == swapped

    def test_merge_skips_none_and_rejects_kind_mismatch(self):
        a = _loaded_registry().snapshot()
        assert merge_snapshots(None, a, None) == merge_snapshots(a)
        conflicting = MetricsRegistry()
        conflicting.gauge("items_total", "now a gauge").set(1)
        with pytest.raises(ValueError):
            merge_snapshots(a, conflicting.snapshot())

    def test_subtract_yields_the_delta_and_clamps(self):
        before = _loaded_registry(1).snapshot()
        after = _loaded_registry(3).snapshot()
        delta = subtract_snapshots(after, before)
        families = delta["families"]
        assert families["items_total"]["series"]["shard=0"]["value"] == 20
        assert families["lat"]["series"]["op=q"]["count"] == 10
        # Gauges keep the "after" level.
        assert families["depth"]["series"]["shard=0"]["value"] == 9
        # Reversed operands clamp at zero instead of going negative.
        clamped = subtract_snapshots(before, after)
        assert clamped["families"]["items_total"]["series"]["shard=0"]["value"] == 0


class TestCardinalityGuard:
    def test_overflow_label_sets_collapse(self):
        registry = MetricsRegistry(max_series=4)
        for index in range(10):
            registry.counter("c", "test", node=index).inc()
        snapshot = registry.snapshot()["families"]["c"]
        assert len(snapshot["series"]) == 5  # 4 real + 1 overflow
        assert snapshot["dropped_series"] == 6
        overflow_key = f"node={OVERFLOW_LABEL}"
        assert snapshot["series"][overflow_key]["value"] == 6

    def test_default_bound_is_generous_but_finite(self):
        assert DEFAULT_MAX_SERIES == 256


class TestTraceSwitch:
    def test_disabled_span_is_one_shared_singleton(self):
        # The disabled-mode overhead guard: no span objects are allocated
        # when telemetry is off — every call returns the same object.
        with trace.scoped(off=True):
            first = trace.span("a", shard=1)
            second = trace.span("b")
            assert first is second
            with first:
                pass  # no-op context manager

    def test_enabled_span_records_into_the_family(self):
        with trace.scoped() as registry:
            with trace.span("unit.test", shard=7):
                pass
            snapshot = registry.snapshot()
        series = snapshot["families"][trace.SPAN_FAMILY]["series"]
        (entry,) = [
            s for s in series.values() if s["labels"].get("span") == "unit.test"
        ]
        assert entry["count"] == 1
        assert entry["labels"]["shard"] == "7"

    def test_explicit_registry_beats_the_global(self):
        private = MetricsRegistry()
        with trace.scoped(off=True):
            with trace.span("private.span", registry=private):
                pass
        assert trace.SPAN_FAMILY in private.snapshot()["families"]

    def test_scoped_restores_previous_registry(self):
        with trace.scoped() as outer:
            with trace.scoped() as inner:
                assert trace.active() is inner
            assert trace.active() is outer

    def test_enable_reuses_then_replace_installs_fresh(self):
        with trace.scoped() as registry:
            assert trace.enable() is registry  # reuse
            fresh = MetricsRegistry()
            assert trace.enable(fresh) is fresh  # replace (the fork path)
            assert trace.active() is fresh


class TestPrometheusExposition:
    def test_render_parse_validate_round_trip(self):
        registry = _loaded_registry()
        registry.counter("odd_labels", "escaping", path='a"b\\c\nd').inc()
        text = render_prometheus(registry.snapshot())
        families = validate_prometheus(text)
        assert families["items_total"]["type"] == "counter"
        assert families["lat"]["type"] == "histogram"
        # Escaped label survives the round trip.
        samples = families["odd_labels"]["samples"]
        assert samples[0][1]["path"] == 'a"b\\c\nd'

    def test_histogram_buckets_render_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", "t", op="x")
        histogram.observe(1e-6)
        histogram.observe(1e-6)
        histogram.observe(1000.0)  # overflow
        text = render_prometheus(registry.snapshot())
        parsed = parse_prometheus(text)
        buckets = [
            (labels["le"], value)
            for name, labels, value in parsed["lat"]["samples"]
            if name == "lat_bucket"
        ]
        assert buckets[0] == ("1e-06", 2.0)
        assert buckets[-1] == ("+Inf", 3.0)

    def test_validator_rejects_broken_documents(self):
        with pytest.raises(ValueError):
            parse_prometheus("orphan_sample 1\n")  # no # TYPE
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE x counter\nx{} not-a-number\n")
        non_cumulative = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\n"
            "h_count 3\n"
        )
        with pytest.raises(ValueError, match="cumulative"):
            validate_prometheus(non_cumulative)
        missing_inf = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 3\n'
            "h_sum 1\n"
            "h_count 3\n"
        )
        with pytest.raises(ValueError, match=r"\+Inf"):
            validate_prometheus(missing_inf)

    def test_describe_snapshot_mentions_every_family(self):
        text = describe_snapshot(_loaded_registry().snapshot())
        assert "items_total" in text and "lat" in text and "p50=" in text
        assert describe_snapshot(None) == "no instruments recorded"


def _native_ready() -> bool:
    from repro.core._native import native_available

    return native_available()


def _stage_seconds(snapshot):
    """stage label -> (count, sum) of the ingest-stage family."""
    from repro.core.backends import STAGE_FAMILY

    family = snapshot["families"].get(STAGE_FAMILY, {"series": {}})
    return {
        series["labels"]["stage"]: (series["count"], series["sum"])
        for series in family["series"].values()
    }


STAGE_BATCH = [(f"s{i}", f"d{i % 7}", 1.0) for i in range(300)]


GSS_BACKENDS = [
    "python",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not _native_ready(), reason="native kernel unavailable or disabled"
        ),
    ),
]
#: The stages each backend's update_many times (both spill to the buffer
#: inside placement).
BACKEND_STAGES = {
    "python": {"hashing", "placement"},
    "native": {"hashing", "placement"},
}


class TestForwardingPaths:
    @pytest.mark.parametrize("backend", GSS_BACKENDS)
    def test_update_many_records_its_stages(self, backend):
        from repro.api import build

        # A small matrix, so the batch overflows into the buffer.
        sketch = build("gss", memory_bytes=2048, backend=backend)
        with trace.scoped() as registry:
            sketch.update_many(STAGE_BATCH)
            sketch.update_many(STAGE_BATCH)
            recorded = _stage_seconds(registry.snapshot())
        assert set(recorded) == BACKEND_STAGES[backend]
        for count, seconds in recorded.values():
            assert count >= 2 and seconds > 0

    @pytest.mark.parametrize("backend", GSS_BACKENDS)
    def test_stages_record_nothing_without_a_registry(self, backend, monkeypatch):
        from repro.api import build
        from repro.core import backends, gss

        def refuse(*args):
            raise AssertionError("a stage was timed with telemetry off")

        monkeypatch.setattr(backends, "stage_histogram", refuse)
        monkeypatch.setattr(gss, "stage_histogram", refuse)
        sketch = build("gss", memory_bytes=2048, backend=backend)
        with trace.scoped(off=True):
            sketch.update_many(STAGE_BATCH)
            sketch.update_many([(3, 4, 1.0)])
            sketch._matrix.ingest_columns([1, 2], [3, 4], [1.0, 1.0])
        assert sketch.update_count == len(STAGE_BATCH) + 1

    def test_sharded_workers_report_their_stages(self):
        from repro.api import build

        with trace.scoped():
            with build("sharded-gss", memory_bytes=65536, params={"workers": 2}) as cluster:
                cluster.update_many(STAGE_BATCH)
                cluster.flush()
                recorded = _stage_seconds(cluster.obs_snapshot())
        # Workers take hash columns, so they time placement, not hashing.
        assert "placement" in recorded
        assert recorded["placement"][0] >= 2

    def test_stream_session_feed_records_spans_and_items(self):
        from repro.api import SketchSpec, StreamSession

        with trace.scoped() as registry:
            session = StreamSession(
                SketchSpec("gss", memory_bytes=16384), batch_size=64
            )
            session.feed([(f"s{i}", f"d{i % 7}", 1.0) for i in range(200)])
            snapshot = registry.snapshot()
        families = snapshot["families"]
        assert (
            families["repro_session_items_total"]["series"][""]["value"] == 200
        )
        spans = {
            s["labels"].get("span")
            for s in families[trace.SPAN_FAMILY]["series"].values()
        }
        assert "session.feed" in spans
        assert "session.feed.batch" in spans


class TestClusterObs:
    def test_worker_snapshots_merge_into_the_parent_view(self):
        from repro.api import SketchSpec
        from repro.cluster import ShardedSummary

        with trace.scoped():
            with ShardedSummary(
                SketchSpec("gss", memory_bytes=65536), workers=2
            ) as cluster:
                cluster.update_many(
                    [(f"n{i}", f"m{i % 11}", 1.0) for i in range(2000)]
                )
                cluster.flush()
                snapshot = cluster.obs_snapshot()
        families = snapshot["families"]
        worker_items = sum(
            s["value"]
            for s in families["repro_worker_items_total"]["series"].values()
        )
        routed = sum(
            s["value"]
            for s in families["repro_cluster_items_routed_total"][
                "series"
            ].values()
        )
        assert worker_items == routed == 2000
        spans = {
            s["labels"].get("span")
            for s in families[trace.SPAN_FAMILY]["series"].values()
        }
        assert "worker.ingest" in spans
        assert "cluster.route" in spans
        assert "repro_cluster_queue_depth" in families

    def test_obs_disabled_cluster_returns_none_and_enable_after(self):
        from repro.api import SketchSpec
        from repro.cluster import ShardedSummary

        with trace.scoped(off=True):
            with ShardedSummary(
                SketchSpec("gss", memory_bytes=65536), workers=2
            ) as cluster:
                assert cluster.obs_snapshot() is None
                cluster.enable_obs()  # the serve front end's path
                cluster.update_many(
                    [(f"n{i}", f"m{i % 5}", 1.0) for i in range(500)]
                )
                cluster.flush()
                snapshot = cluster.obs_snapshot()
        assert snapshot is not None
        worker_items = sum(
            s["value"]
            for s in snapshot["families"]["repro_worker_items_total"][
                "series"
            ].values()
        )
        assert worker_items == 500


class TestServeObs:
    @pytest.fixture()
    def served_cluster(self):
        from repro.api import SketchSpec, build
        from repro.serve import ServeConfig, serve_in_thread

        summary = build(
            SketchSpec(
                "sharded-gss", memory_bytes=131072, params={"workers": 2}
            )
        )
        with serve_in_thread(
            summary, ServeConfig(close_summary=True)
        ) as handle:
            yield handle

    def test_json_keys_unchanged_and_obs_additive(self, served_cluster):
        from repro.serve.client import ServeClient

        with ServeClient(served_cluster.host, served_cluster.port) as client:
            client.ingest([(f"x{i}", f"y{i % 9}", 1.0) for i in range(1000)])
            client.flush()
            document = client.metrics()
        for key in (
            "server",
            "uptime_seconds",
            "connections_open",
            "connections_total",
            "frames_received",
            "ingest_frames",
            "ingest_items",
            "busy_replies",
            "queries",
            "flushes",
            "checkpoints",
            "errors",
            "inflight_batches",
            "inflight_high_water",
            "credits_per_connection",
            "max_inflight_batches",
            "update_count",
            "shards",
        ):
            assert key in document, key
        assert document["ingest_items"] == 1000
        assert isinstance(document["ingest_items"], int)
        assert document["obs"]["obs_format"] == 1

    def test_server_side_histogram_count_equals_client_queries(
        self, served_cluster
    ):
        from repro.serve.client import ServeClient, fetch_http_metrics_text
        from repro.serve.metrics import REQUEST_LATENCY_FAMILY

        n_queries = 17
        with ServeClient(served_cluster.host, served_cluster.port) as client:
            client.ingest([(f"x{i}", f"y{i % 9}", 1.0) for i in range(300)])
            client.flush()
            for index in range(n_queries):
                client.edge_query(f"x{index}", f"y{index % 9}")
            document = client.metrics()
        series = document["obs"]["families"][REQUEST_LATENCY_FAMILY]["series"]
        (edge,) = [
            s for s in series.values() if s["labels"].get("op") == "edge_query"
        ]
        assert edge["count"] == n_queries
        # The Prometheus exposition agrees with the JSON snapshot.
        text = fetch_http_metrics_text(served_cluster.host, served_cluster.port)
        families = validate_prometheus(text)
        count_samples = [
            value
            for name, labels, value in families[REQUEST_LATENCY_FAMILY][
                "samples"
            ]
            if name == f"{REQUEST_LATENCY_FAMILY}_count"
            and labels.get("op") == "edge_query"
        ]
        assert count_samples == [float(n_queries)]

    def test_http_metrics_content_negotiation(self, served_cluster):
        from repro.serve.client import (
            fetch_http_metrics,
            fetch_http_metrics_text,
        )

        document = fetch_http_metrics(served_cluster.host, served_cluster.port)
        assert document["server"] == "repro-serve"
        text = fetch_http_metrics_text(
            served_cluster.host, served_cluster.port
        )
        assert text.startswith("#")
        validate_prometheus(text)

    def test_obs_disabled_server_keeps_json_shape(self):
        from repro.api import SketchSpec, build
        from repro.serve import ServeConfig, serve_in_thread
        from repro.serve.client import ServeClient

        summary = build(SketchSpec("gss", memory_bytes=65536))
        with serve_in_thread(
            summary, ServeConfig(close_summary=True, obs=False)
        ) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.ingest([("a", "b", 1.0)])
                client.drain()
                document = client.metrics()
        assert document["ingest_items"] == 1
        assert "obs" not in document


class TestObsCli:
    def test_pretty_print_from_dump_file(self, tmp_path, capsys):
        from repro.cli import main

        snapshot = _loaded_registry().snapshot()
        dump = tmp_path / "metrics.json"
        dump.write_text(json.dumps({"server": "repro-serve", "obs": snapshot}))
        assert main(["obs", "--file", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "items_total" in out

    def test_bare_snapshot_and_json_reexport(self, tmp_path, capsys):
        from repro.cli import main

        dump = tmp_path / "snapshot.json"
        dump.write_text(json.dumps(_loaded_registry().snapshot()))
        target = tmp_path / "out.json"
        assert main(
            ["obs", "--file", str(dump), "--json", str(target)]
        ) == 0
        capsys.readouterr()
        reloaded = json.loads(target.read_text())
        assert "items_total" in reloaded["families"]

    def test_document_without_obs_fails(self, tmp_path, capsys):
        from repro.cli import main

        dump = tmp_path / "metrics.json"
        dump.write_text(json.dumps({"server": "repro-serve"}))
        assert main(["obs", "--file", str(dump)]) == 1
        assert "no obs snapshot" in capsys.readouterr().err

    def test_check_prometheus_good_and_bad(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.prom"
        good.write_text(render_prometheus(_loaded_registry().snapshot()))
        assert main(["obs", "--check-prometheus", str(good)]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.prom"
        bad.write_text("orphan_sample 1\n")
        assert main(["obs", "--check-prometheus", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().err
