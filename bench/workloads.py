"""The four workloads of the perf ledger; ``bench/README.md`` says why each exists.

Every workload ingests and queries, so every end-to-end metric is measured
on every workload; what differs is the stream (mostly new edges, or mostly
repeats) and the deployment (in-process sketch, 2-worker cluster, network
server).  A body runs the measured phases for a given number of seconds and
returns a :class:`Run`; ``bench/run.py`` turns that into metrics.
"""

from __future__ import annotations

import gc
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import SketchSpec, StreamSession, build
from repro.serve.client import ServeClient, ServeClientError

import measure as m

WORKERS = 2
#: Every in-process and cluster run feeds at least this many fresh summaries.
MIN_FEEDS = 3
#: Share of an in-process or cluster round spent feeding; queries get the rest.
INGEST_SHARE = 0.5
#: Share of a round's query time each kind's closed-loop blocks get.  Edge
#: queries take microseconds, so a tenth already gives thousands of
#: samples; the scans get the rest.
QUERY_SHARES = {"edge": 0.1, "successor": 0.45, "precursor": 0.45}
#: A round's query time is cut into passes over all kinds of about this
#: many seconds, so every kind samples the whole round: how fast this
#: machine runs (and, in a cluster, how the shards land on the two cores)
#: changes within fractions of a second.  The latency metrics are taken
#: per pass.
QUERY_PASS = 0.3
#: Open-loop offered load of ``served-caida``: edges/s in frames of FRAME
#: items, and queries/s.
SERVE_RATE = 50_000
FRAME = 1024
QUERY_RATE = 100
#: Served queries come in blocks of about QUERY_BLOCK seconds, one kind per
#: block, the kinds taking turns; the last KIND_GAP seconds of a block are
#: left free for a flush barrier that refreshes the per-worker telemetry.
QUERY_BLOCK = 0.5
KIND_GAP = 0.05
#: A served run is cut into segments of about SEGMENT seconds, each on a
#: fresh server.  Where a server's two workers land on the two cores holds
#: for its lifetime and moves precursor fan-out latency by half, so one
#: server per run made that metric bimodal between runs.
SEGMENT = 5.0
HOST = "127.0.0.1"
#: The batched-ingest stages the backends time; the native backend's hashed
#: path records only placement and buffer_spill.
STAGES = ("hashing", "memo", "placement", "buffer_spill")

#: Runs the server with the stage profiler switched on, so its forked shard
#: workers record stage timings too (traced runs only).
TRACED_SERVE = """\
import sys
from repro.cli import main
try:
    from repro.metrics.ingest_profile import profile_ingest
except ImportError:
    from contextlib import nullcontext as profile_ingest
with profile_ingest():
    sys.exit(main(sys.argv[1:]))
"""


@dataclass
class Run:
    """What one workload body measured."""

    setups: List[float] = field(default_factory=list)
    feeds: List[float] = field(default_factory=list)
    eps: List[float] = field(default_factory=list)
    #: Query latencies in seconds, one dict per pass: a block of each kind.
    passes: List[Dict[str, List[float]]] = field(default_factory=list)
    edge_ratio: float = 0.0
    precision: float = 0.0
    sketch_bytes: float = 0.0
    #: Resident MiB the processes holding the summary gained, per summary.
    gains_mb: List[float] = field(default_factory=list)
    #: Calibration loop times taken between samples (``measure.calibrate``).
    calibrations: List[float] = field(default_factory=list)
    #: True when an open loop fixed the ingest rate, which is then not
    #: scaled to the reference host speed.
    paced: bool = False
    backend: str = "unknown"
    transport: str = "none"
    #: Per-layer metrics (traced bodies only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Name prefixes of per-layer metrics whose layer this deployment does
    #: not have (an in-process sketch has no cluster); they read 0.
    absent: Tuple[str, ...] = ()
    waterfalls: List[m.Waterfall] = field(default_factory=list)

    def latencies(self, kind: str) -> List[float]:
        """Every latency of ``kind``, over all passes."""
        return [value for one in self.passes for value in one[kind]]

    def end_to_end(self) -> Dict[str, float]:
        """Speeds are taken per feed and latencies per pass, and a run
        reports the mean of their fastest quarter.  Times and speeds are
        scaled to the reference host speed by the run's slowdown."""
        slowdown = m.slowdown(self.calibrations)
        p50 = {
            kind: m.us(m.fast_mean([statistics.median(one[kind]) for one in self.passes]))
            for kind in m.KINDS
        }
        eps = m.fast_mean(self.eps, higher_is_faster=True)
        return {
            "setup_s": statistics.median(self.setups) / slowdown,
            "ingest_eps": eps if self.paced else eps * slowdown,
            "edge_query_p50_us": p50["edge"] / slowdown,
            "successor_query_p50_us": p50["successor"] / slowdown,
            "precursor_query_p50_us": p50["precursor"] / slowdown,
            "query_p95_us": m.us(m.fast_mean([m.mix_p95(one) for one in self.passes])) / slowdown,
            "edge_estimate_ratio": self.edge_ratio,
            "successor_precision": self.precision,
            "sketch_bytes": float(self.sketch_bytes),
            "summary_rss_mb": statistics.median(self.gains_mb),
        }


def warm_up() -> None:
    """Build and feed a tiny sketch so the native kernel is compiled and
    loaded (and NumPy imported) before any clock starts."""
    sketch = build(SketchSpec("gss", expected_edges=1000, backend="auto"))
    StreamSession(sketch).feed([(f"w{i}", f"w{i * 7 % 101}", 1.0) for i in range(2048)])


def partitioned(items: List[m.Edge], expected_edges: int):
    """The in-process reference a 2-worker deployment must match bit for bit."""
    reference = build(SketchSpec(
        "partitioned-gss", expected_edges=expected_edges, backend="auto",
        params={"partitions": WORKERS},
    ))
    StreamSession(reference).feed(items)
    return reference


def _close(summary) -> None:
    close = getattr(summary, "close", None)
    if callable(close):
        close()


# -- shared phases -------------------------------------------------------------


def rounds(run: Run, make: Callable, ask_for: Callable, inputs: m.Inputs,
           seconds: float, checker: m.Checker, seed: int,
           view: Optional[Callable] = None, ready: Optional[Callable] = None,
           done: Optional[Callable] = None, hop: Optional[Callable] = None):
    """Alternate a fresh summary fed the whole stream with closed-loop query
    passes over every kind, sized so queries take ``1 - INGEST_SHARE`` of
    the time, for ``seconds`` (and at least MIN_FEEDS rounds).

    Interleaving spreads every metric's samples over the whole run, so a
    slow spell of the machine weighs on all of them alike.  ``ready`` and
    ``done`` are called with each summary after its timed set-up and at
    the end of its round, ``hop`` before every feed and query pass.
    Returns the last summary, still open, and (with ``view``, which
    snapshots telemetry) the obs deltas over the feeds and over each kind's
    blocks.
    """
    rngs = {kind: random.Random(seed * 31 + index) for index, kind in enumerate(m.KINDS)}
    summary, fed, asked = None, None, dict.fromkeys(m.KINDS)
    deadline = perf_counter() + seconds
    try:
        while len(run.feeds) < MIN_FEEDS or perf_counter() < deadline:
            if summary is not None:
                _close(summary)
            m.calibrate(run.calibrations)
            gc.collect()
            started = perf_counter()
            summary = make()
            run.setups.append(perf_counter() - started)
            if ready:
                ready(summary)
            before = view(summary) if view else None
            session = StreamSession(summary)
            if hop:
                hop("feed")
            started = perf_counter()
            report = session.feed(inputs.items)
            elapsed = perf_counter() - started
            run.feeds.append(elapsed)
            run.eps.append(report.items / elapsed)
            checker.expect(
                report.items == len(inputs.items),
                f"feed applied {report.items} of {len(inputs.items)} items",
            )
            if view:
                fed = m.add_delta(fed, view(summary), before)
            block = elapsed * (1 - INGEST_SHARE) / INGEST_SHARE
            passes = max(1, round(block / QUERY_PASS))
            for _ in range(passes):
                if hop:
                    hop("pass")
                one = {}
                for kind in m.KINDS:
                    before = view(summary) if view else None
                    one[kind] = m.closed_loop(ask_for(summary, kind), kind, inputs, rngs[kind],
                                              block / passes * QUERY_SHARES[kind], checker)
                    if view:
                        asked[kind] = m.add_delta(asked[kind], view(summary), before)
                run.passes.append(one)
            if done:
                done(summary)
    except BaseException:
        if summary is not None:
            _close(summary)
        raise
    m.calibrate(run.calibrations)
    return summary, fed, asked


def _ingest_layers(run: Run, feed: float, hashing: float, unattributed: float,
                   core: float, observed: Optional[Dict]) -> None:
    stage = m.stages(observed)
    run.layers.update({
        "api.feed_s": feed,
        "api.unattributed_s": unattributed,
        "streaming.hash_batch_s": hashing,
        "streaming.hash_memo_hit_ratio": m.memo_hit_ratio(observed),
        "core.ingest_s": core,
        **{f"core.stage.{name}_s": stage.get(name, 0.0) for name in STAGES},
        "core.unstaged_s": core - sum(stage.values()),
    })


def _sketch_waterfall(title: str, core: float, observed: Optional[Dict]) -> m.Waterfall:
    return m.Waterfall(
        title, core,
        [(f"core.stage.{name}", seconds) for name, seconds in sorted(m.stages(observed).items())],
        "batch decode and node-index recording, outside the stage timers",
    )


def _query_layers(run: Run, sketch_mean_us: Dict[str, float]) -> None:
    for kind in m.KINDS:
        run.layers[f"api.{kind}_query_mean_us"] = m.us(statistics.fmean(run.latencies(kind)))
        run.layers[f"core.{kind}_query_mean_us"] = sketch_mean_us[kind]


def _reference_layers(run: Run, reference, inputs: m.Inputs, seed: int,
                      checker: m.Checker) -> None:
    """Sketch-level layers read off the in-process reference, whose state a
    bit-identity check has tied to the deployed shards."""
    components = m.probe(reference.shards, reference.shard_of, inputs, seed, checker)
    run.layers.update(components.p50_layers())
    run.layers["core.buffer_share"] = reference.buffer_percentage
    run.layers["core.matrix_fill"] = statistics.fmean(
        shard.occupancy() for shard in reference.shards
    )


# -- in-process: inproc-web, inproc-caida -------------------------------------------


def in_process(inputs: m.Inputs, seconds: float, traced: bool, checker: m.Checker,
               seed: int) -> Run:
    """One ``gss`` in the harness process: fresh-sketch feeds between queries."""
    spec = SketchSpec("gss", expected_edges=inputs.expected_edges, backend="auto")
    run = Run()
    run.gains_mb.append(m.fresh_gain_mb(spec, inputs.items))
    applied = m.CallTimer()
    # Traced queries go through the public component calls so the scan and
    # the ID expansion are timed separately.
    components = m.Components([], lambda node: 0) if traced else None

    def make():
        sketch = build(spec)
        if traced:
            # StreamSession looks the method up on the instance, so the
            # sketch's own share of each batch is timed on its own.
            sketch.update_many_hashed = applied.wrap(sketch.update_many_hashed)
        return sketch

    def ask_for(sketch, kind):
        if components is None:
            return m.public_ask(sketch, kind)
        components.shards = [sketch]
        return components.ask(kind)

    with m.tracing(traced) as registry, m.hopping() as hop:
        view = (lambda _summary: registry.snapshot()) if traced else None
        sketch, observed, _ = rounds(run, make, ask_for, inputs, seconds, checker, seed, view,
                                     hop=hop)
    run.backend = sketch.backend_name
    run.sketch_bytes = sketch.memory_bytes()
    run.edge_ratio, run.precision = m.accuracy(sketch, inputs, seed, checker)
    if traced:
        feed = sum(run.feeds)
        hashing, _ = m.span(observed, "ingest.hash_batch")
        core = applied.seconds
        _ingest_layers(run, feed, hashing, feed - hashing - core, core, observed)
        stage = m.stages(observed)
        run.waterfalls.append(m.Waterfall(
            f"ingest, caller time in StreamSession.feed over {len(run.feeds)} feeds", feed,
            [("streaming.hash_batch", hashing)]
            + [(f"core.stage.{name}", seconds) for name, seconds in sorted(stage.items())]
            + [("core.unstaged (node-index recording, key packing)",
                core - sum(stage.values()))],
            "StreamSession loop and HashedBatch columns, outside the timers",
        ))
        queries = []
        for kind in m.KINDS:
            first, second = (("hash", "lookup") if kind == "edge" else ("scan", "expand"))
            queries += [(f"{kind}: core.{part}", sum(components.parts[f"{kind}.{part}"]))
                        for part in (first, second)]
        run.waterfalls.append(m.Waterfall(
            "queries, caller time in the sketch's component calls",
            sum(sum(run.latencies(kind)) for kind in m.KINDS), queries,
            "timer and call overhead",
        ))
        run.layers.update(components.p50_layers())
        _query_layers(run, {kind: components.mean_us(kind) for kind in m.KINDS})
        run.layers["core.buffer_share"] = sketch.buffer_percentage
        run.layers["core.matrix_fill"] = sketch.occupancy()
        run.absent = ("cluster.", "serve.", "loadgen.")
    return run


# -- cluster-web -----------------------------------------------------------------------


def cluster(inputs: m.Inputs, seconds: float, traced: bool, checker: m.Checker,
            seed: int) -> Run:
    """``sharded-gss`` with 2 worker processes: fresh-cluster feeds between queries."""
    expected = inputs.expected_edges
    spec = SketchSpec("sharded-gss", expected_edges=expected, backend="auto",
                      params={"workers": WORKERS})
    # The first cluster of a process also starts multiprocessing's resource
    # tracker (a fresh interpreter) beside its feed, which made every run's
    # first feed ~30% slower; pay that before the clock.
    with build(spec) as warm:
        StreamSession(warm).feed(inputs.items[:FRAME * 8])
    run = Run()
    summary = None
    workers: Dict[int, float] = {}

    def ready(_deployed):
        pids = m.forks(os.getpid())
        m.pin_apart(pids)
        workers.clear()
        workers.update(m.resident(pids))

    try:
        with m.tracing(traced):
            view = (lambda deployed: deployed.obs_snapshot(refresh=True)) if traced else None
            summary, observed, per_kind = rounds(
                run, lambda: build(spec), m.public_ask, inputs, seconds, checker, seed, view,
                ready=ready, done=lambda _deployed: run.gains_mb.append(m.gained_mb(workers)),
            )
        run.transport = summary.transport
        run.sketch_bytes = summary.memory_bytes()
        stats = summary.shard_ingest_stats()
        reference = partitioned(inputs.items, expected)
        m.identical(summary, reference, inputs, seed, checker)
    finally:
        if summary is not None:
            summary.close()
    run.backend = reference.shards[0].backend_name
    run.edge_ratio, run.precision = m.accuracy(reference, inputs, seed, checker)
    if traced:
        feed = sum(run.feeds)
        hashing, _ = m.span(observed, "ingest.hash_batch")
        batches, _ = m.span(observed, "session.feed.batch")
        route, _ = m.span(observed, "cluster.route")
        queue_wait, _ = m.total(observed, "repro_cluster_queue_wait_seconds")
        core, _ = m.span(observed, "worker.ingest")
        unattributed = batches - hashing - route
        _ingest_layers(run, feed, hashing, unattributed, core, observed)
        run.layers.update({
            "cluster.route_s": route - queue_wait,
            "cluster.queue_wait_s": queue_wait,
            "cluster.flush_wait_s": feed - batches,
            "cluster.routing_imbalance": stats.routing_imbalance,
            "cluster.queue_depth_high_water": stats.queue_depth_high_water,
        })
        run.waterfalls.append(m.Waterfall(
            f"ingest, caller time in StreamSession.feed over {len(run.feeds)} feeds", feed,
            [("streaming.hash_batch", hashing),
             ("cluster.route (routing and sends)", route - queue_wait),
             ("cluster.queue_wait (shard back-pressure)", queue_wait),
             ("cluster.flush_wait (final barrier, session loop)", feed - batches)],
            "session batch plumbing inside the batch span",
        ))
        run.waterfalls.append(_sketch_waterfall(
            "ingest, worker time summed over both shards (beside the caller)", core, observed
        ))
        worker_mean, queries = {}, []
        for kind in m.KINDS:
            worker, spans = m.span(per_kind[kind], "worker.query")
            worker_mean[kind] = m.us(worker / spans)
            # Precursor queries fan out to both shards, which answer in
            # parallel: the caller waits about one shard's time per query.
            queries.append((f"{kind}: core.worker", worker / spans * len(run.latencies(kind))))
            run.layers[f"cluster.{kind}.ipc_mean_us"] = (
                m.us(statistics.fmean(run.latencies(kind))) - worker_mean[kind]
            )
        run.waterfalls.append(m.Waterfall(
            "queries, caller time in ShardedSummary queries",
            sum(sum(run.latencies(kind)) for kind in m.KINDS), queries,
            "pipe round trip, pickling and routing",
        ))
        _query_layers(run, worker_mean)
        _reference_layers(run, reference, inputs, seed, checker)
        run.absent = ("serve.", "loadgen.")
    return run


# -- served-caida -------------------------------------------------------------------------


def served_segments(seconds: float) -> int:
    return max(1, round(seconds / SEGMENT))


def served_inputs(items: List[m.Edge], expected_edges: int, seconds: float) -> m.Inputs:
    """The exact sequence each segment's load generator sends: the stream,
    cycled if it is too short."""
    segment = seconds / served_segments(seconds)
    total = max(1, round(segment * SERVE_RATE / FRAME)) * FRAME
    return m.make_inputs([items[index % len(items)] for index in range(total)], expected_edges)


class Server:
    """A ``repro serve`` subprocess on an ephemeral loopback port."""

    def __init__(self, command: List[str]) -> None:
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float = 60.0) -> int:
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 1.0)
            if not ready:
                continue
            line = self.process.stdout.readline()
            if not line:
                break
            match = re.search(r"serving on \S+?:(\d+) ", line)
            if match:
                return int(match.group(1))
        raise RuntimeError(f"repro serve did not start (exit code {self.process.poll()})")

    def stop(self) -> None:
        """SIGTERM is the server's graceful drain; wait for it to exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _first_use(client: ServeClient, frame: List[m.Edge], inputs: m.Inputs) -> None:
    """Pay the server's one-off lazy start-up inside set-up: the first frame
    (NumPy is imported by the server and its workers on first use) and the
    first query of each kind.  The frame is the first of the sent sequence."""
    client.ingest_batch(frame)
    client.drain()
    for kind in m.KINDS:
        key = inputs.pool(kind)[0]
        m.public_ask(client, kind)(key[:2] if kind == "edge" else key)


def _open_loop_feed(client: ServeClient, frames: List[List[m.Edge]], start: float,
                    out: Dict) -> None:
    """Send frame i at ``start + i * FRAME / SERVE_RATE``, whatever happened before."""
    try:
        interval = FRAME / SERVE_RATE
        busy, late = 0.0, []
        for index, frame in enumerate(frames):
            due = start + index * interval
            now = perf_counter()
            if now < due:
                sleep(due - now)
            else:
                late.append(now - due)
            began = perf_counter()
            client.ingest_batch(frame)
            busy += perf_counter() - began
        began = perf_counter()
        client.drain()
        out["finished"] = perf_counter()
        out["busy"] = busy + out["finished"] - began
        out["late"] = late
    except Exception as error:  # re-raised by the caller after join
        out["error"] = error


@dataclass
class ServedTrace:
    """What the load generator and the servers report, over every segment."""

    #: Load-generator time inside ``ingest_batch`` and ``drain``.
    busy: float = 0.0
    #: How late each late ingest frame was sent.
    late: List[float] = field(default_factory=list)
    #: Per query kind: send time minus due time, and the client call time.
    delays: Dict[str, List[float]] = field(default_factory=lambda: {k: [] for k in m.KINDS})
    calls: Dict[str, List[float]] = field(default_factory=lambda: {k: [] for k in m.KINDS})
    #: Traced runs only: server telemetry over the open loops, the same per
    #: query kind, the harness's own, and each server's final /metrics.
    server: Optional[Dict] = None
    per_kind: Dict[str, Optional[Dict]] = field(default_factory=lambda: dict.fromkeys(m.KINDS))
    client: Optional[Dict] = None
    documents: List[Dict] = field(default_factory=list)


def served(inputs: m.Inputs, seconds: float, traced: bool, checker: m.Checker,
           seed: int) -> Run:
    """``repro serve`` under open-loop ingest and queries, in segments of
    about SEGMENT seconds, each on a fresh server with the same input."""
    command = [sys.executable] + (["-c", TRACED_SERVE] if traced else ["-m", "repro"]) + [
        "serve", "--port", "0", "--workers", str(WORKERS), "--backend", "auto",
        "--expected-edges", str(inputs.expected_edges),
    ]
    frames = [inputs.items[i:i + FRAME] for i in range(0, len(inputs.items), FRAME)]
    reference = partitioned(inputs.items, inputs.expected_edges)
    run, trace = Run(paced=True), ServedTrace()
    segments = served_segments(seconds)
    with m.tracing(traced) as registry:
        for segment in range(segments):
            # Between servers, where nothing else of the run is running.
            m.calibrate(run.calibrations)
            _segment(run, trace, command, frames, inputs, seconds / segments,
                     seed * 1009 + segment, checker, reference, registry)
        m.calibrate(run.calibrations)
    run.backend = reference.shards[0].backend_name
    run.edge_ratio, run.precision = m.accuracy(reference, inputs, seed, checker)
    if traced:
        _served_layers(run, trace)
        _reference_layers(run, reference, inputs, seed, checker)
    return run


def _segment(run: Run, trace: ServedTrace, command: List[str], frames, inputs: m.Inputs,
             seconds: float, seed: int, checker: m.Checker, reference, registry) -> None:
    """One server's life: set-up, the open loop, the checks."""
    server = feeder = asker = None
    try:
        started = perf_counter()
        server = Server(command)
        feeder = ServeClient(HOST, server.port)  # returns after the first hello
        _first_use(feeder, frames[0], inputs)
        run.setups.append(perf_counter() - started)
        workers = m.forks(server.process.pid)
        m.pin_apart(workers)
        holders = m.resident([server.process.pid] + workers)
        asker = ServeClient(HOST, server.port)
        run.transport = str(feeder.server_info.get("transport"))
        before = asker.metrics().get("obs") if registry is not None else None
        client_before = registry.snapshot() if registry is not None else None
        out: Dict = {}
        start = perf_counter() + 0.05
        feeding = threading.Thread(target=_open_loop_feed,
                                   args=(feeder, frames[1:], start, out))
        feeding.start()
        try:
            _open_loop_queries(run, trace, asker, inputs, start, seconds, seed, checker,
                               before)
        finally:
            feeding.join()
        if "error" in out:
            raise out["error"]
        run.eps.append((len(inputs.items) - len(frames[0])) / (out["finished"] - start))
        trace.busy += out["busy"]
        trace.late += out["late"]
        if registry is not None:
            trace.client = m.add_delta(trace.client, registry.snapshot(), client_before)
        feeder.flush()
        run.gains_mb.append(m.gained_mb(holders))
        document = asker.metrics()
        checker.expect(
            int(document["ingest_items"]) == feeder.items_sent == len(inputs.items),
            f"server applied {document['ingest_items']} items, client sent "
            f"{feeder.items_sent} of {len(inputs.items)}",
        )
        if registry is not None:
            trace.server = m.add_delta(trace.server, document.get("obs"), before)
            trace.documents.append(document)
        run.sketch_bytes = asker.memory_bytes()
        m.identical(asker, reference, inputs, seed, checker)
    finally:
        for client in (asker, feeder):
            if client is not None:
                client.close()
        if server is not None:
            server.stop()


def _open_loop_queries(run: Run, trace: ServedTrace, asker: ServeClient, inputs: m.Inputs,
                       start: float, seconds: float, seed: int, checker: m.Checker,
                       snapshot: Optional[Dict]) -> None:
    """QUERY_RATE queries/s in blocks of about QUERY_BLOCK seconds, the
    kinds taking turns (a pass is one block of each), each query timed
    from when it was due.

    Answers race the concurrent ingest, so only failures are checked here;
    values are checked after the final flush.  With ``snapshot`` (the
    server's telemetry at ``start``) the per-kind worker time is collected.
    """
    kinds = len(m.KINDS)
    blocks = kinds * max(1, round(seconds / (QUERY_BLOCK * kinds)))
    length = seconds / blocks
    count = max(m.MIN_QUERIES, round((length - KIND_GAP) * QUERY_RATE))
    rngs = {kind: random.Random(seed * 31 + index) for index, kind in enumerate(m.KINDS)}
    for block in range(blocks):
        kind = m.KINDS[block % kinds]
        if kind == m.KINDS[0]:
            run.passes.append({})
        latencies = run.passes[-1][kind] = []
        ask = m.public_ask(asker, kind)
        pool = inputs.pool(kind)
        for position in range(count):
            key = rngs[kind].choice(pool)
            key = key[:2] if kind == "edge" else key
            due = start + block * length + position / QUERY_RATE
            now = perf_counter()
            if now < due:
                sleep(due - now)
            sent = perf_counter()
            try:
                ask(key)
            except ServeClientError as error:
                checker.expect(False, f"served {kind} query failed: {error}")
                continue
            done = perf_counter()
            checker.expect(True, "")
            latencies.append(done - due)
            trace.delays[kind].append(sent - due)
            trace.calls[kind].append(done - sent)
        # The flush barrier refreshes the server's cached worker telemetry;
        # it runs in the gap after every block, traced or not.
        asker.flush()
        if snapshot is not None:
            current = asker.metrics().get("obs")
            trace.per_kind[kind] = m.add_delta(trace.per_kind[kind], current, snapshot)
            snapshot = current


def _served_layers(run: Run, trace: ServedTrace) -> None:
    observed, client = trace.server, trace.client
    feed = trace.busy
    hashing, _ = m.span(client, "ingest.hash_batch")
    core, _ = m.span(observed, "worker.ingest")
    _ingest_layers(run, feed, hashing, feed - hashing, core, observed)
    # The feed counts memo hits in this process; the server never re-hashes.
    run.layers["streaming.hash_memo_hit_ratio"] = m.memo_hit_ratio(client)
    route, _ = m.span(observed, "cluster.route")
    queue_wait, _ = m.total(observed, "repro_cluster_queue_wait_seconds")
    ingest_server, ingest_frames = m.total(observed, "repro_serve_request_seconds", op="ingest")
    worker_total, _ = m.span(observed, "worker.query")
    shards = [document.get("shards", {}) for document in trace.documents]
    run.layers.update({
        "cluster.route_s": route - queue_wait,
        "cluster.queue_wait_s": queue_wait,
        "cluster.routing_imbalance": statistics.fmean(
            float(s.get("routing_imbalance", 1.0)) for s in shards),
        "cluster.queue_depth_high_water": max(
            float(s.get("queue_depth_high_water", 0)) for s in shards),
        "serve.ingest.server_mean_us": m.us(ingest_server / ingest_frames),
        "serve.worker_query_s": worker_total,
        "serve.busy_replies": sum(float(d.get("busy_replies", 0)) for d in trace.documents),
        "serve.inflight_high_water": max(
            float(d.get("inflight_high_water", 0)) for d in trace.documents),
        "loadgen.query_sched_delay_mean_us": m.us(
            statistics.fmean(d for kind in m.KINDS for d in trace.delays[kind])),
        "loadgen.ingest_late_max_ms": max(trace.late, default=0.0) * 1e3,
        "loadgen.late_frames": float(sum(1 for lateness in trace.late if lateness > 1e-3)),
    })
    worker_mean, queries = {}, []
    for kind in m.KINDS:
        server, served_count = m.total(observed, "repro_serve_request_seconds", op=f"{kind}_query")
        worker, spans = m.span(trace.per_kind[kind], "worker.query")
        worker_mean[kind] = m.us(worker / spans)
        server_mean = m.us(server / served_count)
        front = server_mean - worker_mean[kind]
        run.layers[f"serve.{kind}.server_mean_us"] = server_mean
        run.layers[f"serve.{kind}.front_mean_us"] = front
        run.layers[f"serve.{kind}.wire_mean_us"] = (
            m.us(statistics.fmean(trace.calls[kind])) - server_mean)
        answered = len(run.latencies(kind))
        queries += [
            (f"{kind}: loadgen.schedule_delay", sum(trace.delays[kind])),
            (f"{kind}: serve.front (executor queue, cluster parent)", front * 1e-6 * answered),
            (f"{kind}: core.worker", worker_mean[kind] * 1e-6 * answered),
        ]
    # Served query latency is what this waterfall must explain first.
    run.waterfalls.append(m.Waterfall(
        "queries, latency from when each was due",
        sum(sum(run.latencies(kind)) for kind in m.KINDS), queries,
        "wire: socket and client library, client minus server time",
    ))
    run.waterfalls.append(m.Waterfall(
        "ingest, load generator time in ServeClient.ingest_batch and drain", feed,
        [("streaming.hash_batch", hashing)],
        "frame encoding, socket sends, credit-window waits for acks",
    ))
    run.waterfalls.append(_sketch_waterfall(
        "ingest, worker time summed over both shards (beside the server)", core, observed
    ))
    _query_layers(run, worker_mean)
    # The server's cluster has no flush wait in the load generator's
    # timeline, and its IPC is inside serve.<kind>.front_mean_us.
    run.absent = ("cluster.flush_wait_s",) + tuple(f"cluster.{kind}." for kind in m.KINDS)


# -- the registry -------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    smoke_scale: float
    #: (items, expected_edges, seconds) -> Inputs; the served sequence
    #: depends on the run length.
    prepare: Callable
    #: (inputs, seconds, traced, checker, seed) -> Run
    body: Callable
    #: The end-to-end metric ``trace.overhead_ratio`` compares.
    headline: str


def _same_stream(items: List[m.Edge], expected_edges: int, seconds: float) -> m.Inputs:
    return m.make_inputs(items, expected_edges)


WEB = ("web-NotreDame", 10.0, 0.5)
CAIDA = ("caida-networkflow", 3.0, 0.25)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("inproc-web", *WEB, _same_stream, in_process, "ingest_eps"),
        Workload("inproc-caida", *CAIDA, _same_stream, in_process, "ingest_eps"),
        Workload("cluster-web", *WEB, _same_stream, cluster, "ingest_eps"),
        Workload("served-caida", *CAIDA, served_inputs, served,
                 "successor_query_p50_us"),
    )
}
