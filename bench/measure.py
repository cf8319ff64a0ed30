"""Measurement pieces shared by the workloads of ``bench/run.py``.

Inputs and their exact reference graph, the output checks, the timed query
loops, obs snapshot arithmetic, memory and process placement through
``/proc`` and the per-layer waterfall.  Everything here drives the system
through public entry points only; the layer times come from the harness's
own timers and from the spans and instruments ``repro.obs`` already records.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.datasets.registry import DATASET_SPECS
from repro.exact.adjacency_list import AdjacencyListGraph
from repro.metrics.accuracy import average_precision
from repro.obs import trace
from repro.obs.registry import merge_snapshots, subtract_snapshots

try:
    # Stage timings are read from the obs family below, never from the
    # profiler's own dict; the profiler is only the switch that makes the
    # backends record them.  Once it is deleted, the backends record stages
    # straight into obs and this import may fail harmlessly.
    from repro.metrics.ingest_profile import profile_ingest
except ImportError:  # pragma: no cover - depends on the code under test
    profile_ingest = contextlib.nullcontext

KINDS = ("edge", "successor", "precursor")
#: Obs histogram family of the batched-ingest stage timings (label: stage).
STAGE_FAMILY = "repro_ingest_stage_seconds"
#: A timed query sub-phase runs at least this many queries, however short.
MIN_QUERIES = 20
#: A run's speeds and latencies average its fastest quarter of feeds or
#: query passes.
FAST_SHARE = 0.25

Edge = Tuple[str, str, float]


# -- inputs ------------------------------------------------------------------


def dataset_items(name: str, scale: float, seed: int, cache: Path) -> List[Edge]:
    """A registered dataset analog as plain ``(source, destination, weight)``.

    The generators are pure Python and take seconds, so each stream is kept
    in ``cache`` and read back by later runs of the same checkout; two
    workloads share each stream.  A missing stream is generated in a child
    process and then read back like a kept one.  Generating it here would
    leave the generator's freed memory in this heap, which the cluster's
    forked workers inherit and fill before they grow: a sketch fed in a
    fork of the harness gained 11.1 MiB on a run that generated the
    ``inproc-caida`` stream and 16.6 MiB on one that read it back.
    """
    path = cache / f"{name}-{scale:g}-{seed}.pickle"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, "-c", GENERATE, name, repr(scale), str(seed), str(path)],
                       check=True, timeout=120)
    return pickle.loads(path.read_bytes())


#: ``python -c GENERATE NAME SCALE SEED PATH``: writes one stream for
#: :func:`dataset_items`, atomically, since two runs may race for it.
GENERATE = """\
import os, pickle, sys
from repro.datasets.registry import load_dataset
name, scale, seed, path = sys.argv[1], float(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
items = [(e.source, e.destination, e.weight) for e in load_dataset(name, scale=scale, seed=seed)]
partial = f"{path}.{os.getpid()}"
with open(partial, "wb") as out:
    pickle.dump(items, out, protocol=pickle.HIGHEST_PROTOCOL)
os.replace(partial, path)
"""


def nominal_edges(name: str, scale: float) -> int:
    """The distinct-edge count the generator aims at, which sizes every
    summary: it does not depend on the seed, so neither does the sketch."""
    return int(DATASET_SPECS[name].analog_edges * scale)


@dataclass
class Inputs:
    """One stream plus the exact graph of that identical sequence."""

    items: List[Edge]
    exact: AdjacencyListGraph
    #: Distinct edges with their exact aggregated weights, first-seen order.
    edges: List[Edge]
    sources: List[str]
    destinations: List[str]
    #: ``expected_edges`` of every summary the workload builds.
    expected_edges: int

    def pool(self, kind: str) -> Sequence:
        """What a query of ``kind`` is drawn from, uniformly."""
        if kind == "edge":
            return self.edges
        return self.sources if kind == "successor" else self.destinations


def exact_graph(items: Iterable[Edge]) -> AdjacencyListGraph:
    graph = AdjacencyListGraph()
    for source, destination, weight in items:
        graph.update(source, destination, weight)
    return graph


def make_inputs(items: List[Edge], expected_edges: int) -> Inputs:
    exact = exact_graph(items)
    edges = exact.edges()
    return Inputs(
        items=items,
        exact=exact,
        edges=edges,
        sources=list(dict.fromkeys(source for source, _, _ in edges)),
        destinations=list(dict.fromkeys(destination for _, destination, _ in edges)),
        expected_edges=expected_edges,
    )


# -- output checks -------------------------------------------------------------


class Checker:
    """Counts checked operations and the ones that failed or answered wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(what)

    def one_sided(self, kind: str, key, answer, exact: AdjacencyListGraph) -> None:
        """GSS never under-reports: weight >= truth, neighbour sets ⊇ truth."""
        if kind == "edge":
            truth = exact.edge_query(key[0], key[1])
            self.expect(
                answer is not None and truth is not None and answer >= truth,
                f"edge {key[0]}->{key[1]}: answered {answer!r}, truth {truth!r}",
            )
            return
        truth = (
            exact.successor_query(key)
            if kind == "successor"
            else exact.precursor_query(key)
        )
        missing = len(truth - answer)
        self.expect(missing == 0, f"{kind} {key!r}: {missing} true neighbours missing")


def identical(deployed, reference, inputs: Inputs, seed: int, checker: Checker,
              edges: int = 400, nodes: int = 100) -> None:
    """Deployed answers must equal an in-process reference's, bit for bit."""
    rng = random.Random(seed + 11)
    for source, destination, _ in rng.sample(inputs.edges, min(edges, len(inputs.edges))):
        got = deployed.edge_query(source, destination)
        want = reference.edge_query(source, destination)
        checker.expect(got == want, f"edge {source}->{destination}: {got!r} != {want!r}")
    for node in rng.sample(inputs.sources, min(nodes, len(inputs.sources))):
        checker.expect(
            deployed.successor_query(node) == reference.successor_query(node),
            f"successors of {node!r} differ from the reference",
        )
    for node in rng.sample(inputs.destinations, min(nodes, len(inputs.destinations))):
        checker.expect(
            deployed.precursor_query(node) == reference.precursor_query(node),
            f"precursors of {node!r} differ from the reference",
        )


def accuracy(summary, inputs: Inputs, seed: int, checker: Checker,
             edges: int = 20_000, nodes: int = 200) -> Tuple[float, float]:
    """``(mean estimate/truth, mean successor precision)`` on a fixed sample.

    The first is ``1 + ARE`` (the paper's average relative error), so it
    stays away from zero even when the sketch answers almost exactly.
    """
    rng = random.Random(seed + 7)
    ratios = []
    for source, destination, truth in rng.sample(inputs.edges, min(edges, len(inputs.edges))):
        estimate = summary.edge_query(source, destination)
        checker.one_sided("edge", (source, destination), estimate, inputs.exact)
        if estimate is not None:
            ratios.append(estimate / truth)
    pairs = []
    for node in rng.sample(inputs.sources, min(nodes, len(inputs.sources))):
        reported = summary.successor_query(node)
        checker.one_sided("successor", node, reported, inputs.exact)
        pairs.append((inputs.exact.successor_query(node), reported))
    return statistics.fmean(ratios), average_precision(pairs)


# -- query timing --------------------------------------------------------------


class CallTimer:
    """Sums the wall time of every call made through :meth:`wrap`."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def wrap(self, function: Callable) -> Callable:
        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - started

        return timed


def public_ask(summary, kind: str) -> Callable:
    """The summary's public query call for ``kind``, taking one pool key."""
    if kind == "edge":
        return lambda key: summary.edge_query(key[0], key[1])
    return summary.successor_query if kind == "successor" else summary.precursor_query


def closed_loop(ask: Callable, kind: str, inputs: Inputs, rng: random.Random,
                seconds: float, checker: Checker) -> List[float]:
    """One caller, next query after the previous answer, for ``seconds`` (and
    at least MIN_QUERIES queries); returns the latencies.

    Only the call is timed; drawing the key and checking the answer are not.
    """
    pool = inputs.pool(kind)
    latencies: List[float] = []
    deadline = perf_counter() + seconds
    while len(latencies) < MIN_QUERIES or perf_counter() < deadline:
        key = rng.choice(pool)
        if kind == "edge":
            key = key[:2]
        started = perf_counter()
        answer = ask(key)
        latencies.append(perf_counter() - started)
        checker.one_sided(kind, key, answer, inputs.exact)
    return latencies


class Components:
    """Answers queries through a GSS's public component calls, timing each.

    ``edge_query`` is ``node_hash`` twice plus ``edge_query_by_hash``;
    ``successor_query`` is ``successor_hashes`` (the matrix and buffer scan)
    plus ``node_index.expand`` (hash → original IDs), and likewise for
    precursors, which ask every shard.  ``shards``/``owner`` describe one
    sketch (``[gss]``, always shard 0) or a partitioned deployment; the
    timings accumulate across reassignments of ``shards``.
    """

    def __init__(self, shards: Sequence, owner: Callable[[str], int]) -> None:
        self.shards = shards
        self.owner = owner
        self.parts: Dict[str, List[float]] = {
            name: []
            for name in ("edge.hash", "edge.lookup", "successor.scan",
                         "successor.expand", "precursor.scan", "precursor.expand")
        }

    def ask(self, kind: str) -> Callable:
        if kind == "edge":
            return self._edge
        if kind == "successor":
            return lambda node: self._neighbours(kind, [self.shards[self.owner(node)]], node)
        return lambda node: self._neighbours(kind, self.shards, node)

    def _edge(self, key) -> Optional[float]:
        shard = self.shards[self.owner(key[0])]
        started = perf_counter()
        hashes = shard.node_hash(key[0]), shard.node_hash(key[1])
        hashed = perf_counter()
        answer = shard.edge_query_by_hash(*hashes)
        self.parts["edge.lookup"].append(perf_counter() - hashed)
        self.parts["edge.hash"].append(hashed - started)
        return answer

    def _neighbours(self, kind: str, shards: Sequence, node) -> set:
        found: set = set()
        scan = expand = 0.0
        for shard in shards:
            started = perf_counter()
            if kind == "successor":
                hashes = shard.successor_hashes(node)
            else:
                hashes = shard.precursor_hashes(node)
            scanned = perf_counter()
            found |= shard.node_index.expand(hashes)
            scan += scanned - started
            expand += perf_counter() - scanned
        self.parts[kind + ".scan"].append(scan)
        self.parts[kind + ".expand"].append(expand)
        return found

    def mean_us(self, kind: str) -> float:
        """Mean time per query spent inside the sketch's component calls."""
        first, second = (("edge.hash", "edge.lookup") if kind == "edge"
                         else (kind + ".scan", kind + ".expand"))
        return us(statistics.fmean(a + b for a, b in zip(self.parts[first], self.parts[second])))

    def p50_layers(self) -> Dict[str, float]:
        return {
            "core.edge_lookup_p50_us": us(statistics.median(self.parts["edge.lookup"])),
            "core.successor_scan_p50_us": us(statistics.median(self.parts["successor.scan"])),
            "core.precursor_scan_p50_us": us(statistics.median(self.parts["precursor.scan"])),
            "core.expand_p50_us": us(statistics.median(
                self.parts["successor.expand"] + self.parts["precursor.expand"]
            )),
        }


def probe(shards: Sequence, owner: Callable, inputs: Inputs, seed: int,
          checker: Checker, per_kind: int = 100) -> Components:
    """Time the component calls on a fixed sample of each query kind."""
    components = Components(shards, owner)
    rng = random.Random(seed + 13)
    for kind in KINDS:
        ask = components.ask(kind)
        for _ in range(per_kind):
            key = rng.choice(inputs.pool(kind))
            key = key[:2] if kind == "edge" else key
            checker.one_sided(kind, key, ask(key), inputs.exact)
    return components


# -- obs snapshots -------------------------------------------------------------


@contextlib.contextmanager
def tracing(enabled: bool):
    """A fresh process registry plus the stage switch, or nothing at all."""
    if not enabled:
        yield None
        return
    with trace.scoped() as registry, profile_ingest():
        yield registry


def _series(snapshot: Optional[Dict], family: str):
    return (snapshot or {}).get("families", {}).get(family, {}).get("series", {}).values()


def total(snapshot: Optional[Dict], family: str, **labels) -> Tuple[float, int]:
    """``(sum, count)`` of a histogram family, or ``(value, 0)`` otherwise,
    over every series carrying ``labels``."""
    wanted = {key: str(value) for key, value in labels.items()}
    amount, count = 0.0, 0
    for series in _series(snapshot, family):
        if all(series["labels"].get(key) == value for key, value in wanted.items()):
            amount += series.get("sum", series.get("value", 0.0))
            count += series.get("count", 0)
    return amount, count


def span(snapshot: Optional[Dict], name: str) -> Tuple[float, int]:
    return total(snapshot, trace.SPAN_FAMILY, span=name)


def stages(snapshot: Optional[Dict]) -> Dict[str, float]:
    found: Dict[str, float] = {}
    for series in _series(snapshot, STAGE_FAMILY):
        stage = series["labels"].get("stage", "")
        found[stage] = found.get(stage, 0.0) + series["sum"]
    return found


def memo_hit_ratio(snapshot: Optional[Dict]) -> float:
    hits, _ = total(snapshot, "repro_hash_memo_hits_total")
    misses, _ = total(snapshot, "repro_hash_memo_misses_total")
    return hits / (hits + misses) if hits + misses else 0.0


def add_delta(running: Optional[Dict], after: Optional[Dict],
              before: Optional[Dict]) -> Dict:
    """``running`` plus what was recorded between ``before`` and ``after``."""
    return merge_snapshots(running, subtract_snapshots(after, before))


# -- processes and memory ----------------------------------------------------------


def _parent_of(pid_dir: Path) -> Optional[int]:
    try:
        stat = (pid_dir / "stat").read_text()
    except OSError:
        return None
    # "pid (comm) state ppid ...": comm may itself contain spaces or parens.
    return int(stat.rsplit(")", 1)[1].split()[1])


def _command(pid: int) -> Optional[bytes]:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return None


def forks(pid: int) -> List[int]:
    """The live processes below ``pid`` that run its command line: the shard
    workers it forked, but not multiprocessing's resource tracker, which is
    a fresh interpreter."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            parent = _parent_of(entry)
            if parent is not None:
                children.setdefault(parent, []).append(int(entry.name))
    found, frontier = [], [pid]
    while frontier:
        below = children.get(frontier.pop(), [])
        found.extend(below)
        frontier.extend(below)
    command = _command(pid)
    return sorted(child for child in found if _command(child) == command)


@contextlib.contextmanager
def hopping():
    """Yield ``hop(what)``, which moves this process to the next of its
    cores, taking turns separately for each kind of sample ``what``, and
    give the process all its cores back at the end.

    The other tenants' load lands on one core at a time, for seconds or
    minutes: edge queries took 10 µs on one core while they took 5.8 µs on
    the other.  A single-threaded caller that hops between samples measures
    on both cores in every run, instead of on whichever one the scheduler
    left it.
    """
    turns: Dict[str, Iterator[int]] = {}

    def hop(what: str) -> None:
        os.sched_setaffinity(0, {next(turns.setdefault(what, itertools.cycle(CORES)))})

    try:
        yield hop
    finally:
        os.sched_setaffinity(0, CORES)


def pin_apart(pids: Sequence[int]) -> None:
    """Give each shard worker its own core.  Left to the scheduler, the two
    workers of a fan-out query sometimes share one core for a server's or
    cluster's whole life, which moved precursor latency by half."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    for index, pid in enumerate(pids):
        with contextlib.suppress(ProcessLookupError):
            os.sched_setaffinity(pid, {cpus[index % len(cpus)]})


# -- host speed ----------------------------------------------------------------------

#: The cores this process may use, before any hopping narrows them.
CORES = sorted(os.sched_getaffinity(0))
#: Iterations of the calibration loop, and what it took on an unloaded core
#: of a 2-core Xeon at 2.1 GHz under Python 3.11.  The reference only sets
#: the scale of the normalised metrics; what matters is that it never changes.
CALIBRATION_LOOP = 150_000
CALIBRATION_REFERENCE = 0.010
#: How much of the loop's slowdown shows in the workloads' times: over 30
#: runs of each workload, the median over the 23 timing pairs of the slope
#: of log time against log loop time (the slopes ran from 0.38 to 1.13).
#: The interpreter-bound loop feels the host's slow spells more than the
#: memory-bound scans do.
HOST_ELASTICITY = 0.7


def calibrate(into: List[float]) -> None:
    """Time a fixed pure-Python loop, which runs no code of the program,
    once on each core; append the times to ``into`` and leave this process
    on the cores it had."""
    had = os.sched_getaffinity(0)
    try:
        for core in CORES:
            os.sched_setaffinity(0, {core})
            started = perf_counter()
            total = 0
            for index in range(CALIBRATION_LOOP):
                total += index * index % 7
            into.append(perf_counter() - started)
    finally:
        os.sched_setaffinity(0, had)


def slowdown(calibrations: Sequence[float]) -> float:
    """How much slower than at the reference speed a run's workload ran:
    the median calibration time over the reference, to HOST_ELASTICITY."""
    return (statistics.median(calibrations) / CALIBRATION_REFERENCE) ** HOST_ELASTICITY


def resident(pids: Iterable[int]) -> Dict[int, float]:
    """Anonymous plus shared-memory resident set of each live pid, in MiB.

    File-backed pages are left out: a forked process maps the interpreter's
    code page by page as it runs, which says nothing about the summary.
    (Counting only the pages a fork has written would not do either: every
    page its parent writes afterwards becomes the fork's alone.)
    """
    found = {}
    for pid in pids:
        try:
            lines = Path(f"/proc/{pid}/status").read_text().splitlines()
        except OSError:
            continue
        found[pid] = sum(int(line.split()[1]) for line in lines
                         if line.startswith(("RssAnon:", "RssShmem:"))) / 1024
    return found


def gained_mb(start: Dict[int, float]) -> float:
    """What the processes of ``start`` hold now beyond what they held then."""
    now = resident(start)
    return sum(now[pid] - start[pid] for pid in now)


#: ``python -c GAIN_PROBE BENCH_DIR`` with a pickled ``(spec, items)`` on
#: stdin: prints the resident MiB the interpreter gains building ``spec``
#: and feeding it ``items``, after the kernel is loaded.
GAIN_PROBE = """\
import gc, os, pickle, sys
sys.path.insert(0, sys.argv[1])
from repro.api import StreamSession, build
import measure, workloads
spec, items = pickle.loads(sys.stdin.buffer.read())
workloads.warm_up()
gc.collect()
start = measure.resident([os.getpid()])
summary = build(spec)
StreamSession(summary).feed(items)
print(repr(measure.gained_mb(start)))
"""


def fresh_gain_mb(spec, items: List[Edge]) -> float:
    """What one summary built from ``spec`` and fed ``items`` takes, measured
    in a fresh interpreter.  The harness's own heap holds freed memory that
    a new summary would fill before growing, so neither the harness nor a
    fork of it can show what a summary takes."""
    result = subprocess.run(
        [sys.executable, "-c", GAIN_PROBE, str(Path(__file__).resolve().parent)],
        input=pickle.dumps((spec, items), protocol=pickle.HIGHEST_PROTOCOL),
        capture_output=True, check=True, timeout=120,
    )
    return float(result.stdout)


# -- statistics and the waterfall --------------------------------------------------


def us(seconds: float) -> float:
    return seconds * 1e6


def fast_mean(values: Sequence[float], higher_is_faster: bool = False) -> float:
    """Mean of the fastest FAST_SHARE of ``values``: the host's slow spells
    land in the rest (see "Why the fastest quarter" in ``bench/README.md``)."""
    ordered = sorted(values, reverse=higher_is_faster)
    return statistics.fmean(ordered[:max(1, round(len(ordered) * FAST_SHARE))])


def mix_p95(samples_by_kind: Dict[str, Sequence[float]]) -> float:
    """The 95th percentile of a query mix that asks every kind equally often.

    Each sample weighs ``1 / len(its kind)``, so a kind answered in
    microseconds cannot crowd the slow kinds out of the tail just by being
    sampled more often in its timed sub-phase.
    """
    weighted = sorted(
        (value, 1.0 / len(samples))
        for samples in samples_by_kind.values()
        for value in samples
    )
    target = 0.95 * len(samples_by_kind)
    cumulative = 0.0
    for value, weight in weighted:
        cumulative += weight
        if cumulative >= target:
            return value
    return weighted[-1][0]


@dataclass
class Waterfall:
    """Self-times of the layers on one caller's timeline, plus the rest.

    ``measured`` is the caller's wall-clock over the phase; ``unattributed``
    is what no layer accounts for, so the lines always sum to it.
    """

    title: str
    measured: float
    layers: List[Tuple[str, float]] = field(default_factory=list)
    unattributed_means: str = "time no measured layer covers"

    def lines(self) -> List[str]:
        rows = list(self.layers)
        rows.append((f"unattributed ({self.unattributed_means})",
                     self.measured - sum(seconds for _, seconds in self.layers)))
        width = max(len(name) for name, _ in rows)
        out = [f"waterfall: {self.title} (measured {self.measured:.6f} s)"]
        for name, seconds in rows:
            share = seconds / self.measured if self.measured else 0.0
            out.append(f"  {name:<{width}}  {seconds:12.6f} s  {share:7.2%}")
        out.append(f"  {'sum':<{width}}  {sum(s for _, s in rows):12.6f} s")
        return out
