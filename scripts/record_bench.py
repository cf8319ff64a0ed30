#!/usr/bin/env python
"""Record the Table I perf trajectory into ``BENCH_tab1.json``.

Runs the tab1 update-speed experiment on the pure-Python backend and — when
available — on the native (compiled kernel) backend, in one process (same
machine state, same streams), then writes one machine-readable document
containing every row set plus the per-dataset ``GSS(update_many)`` speedup
(native vs python) and the remaining gap to the exact adjacency-list
baseline.  Re-running appends a new entry to the
``runs`` list, so the file accumulates the perf trajectory across PRs.

Usage::

    PYTHONPATH=src python scripts/record_bench.py                 # default bench scale
    PYTHONPATH=src python scripts/record_bench.py --quick         # smoke
    PYTHONPATH=src python scripts/record_bench.py --repeats 3     # steadier numbers
    PYTHONPATH=src python scripts/record_bench.py --profile       # + per-stage profile
    PYTHONPATH=src python scripts/record_bench.py --workers 4     # + cluster row
    PYTHONPATH=src python scripts/record_bench.py --serve       # + served throughput
    PYTHONPATH=src python scripts/record_bench.py --out BENCH_tab1.json

With ``--workers`` the run also records ``sharded_speedup_vs_update_many``.

With ``--serve`` the run additionally measures the network front end: a
:mod:`repro.serve` server is started in-process over a fresh cluster and
driven by the :mod:`repro.serve.loadgen` harness (concurrent ingest feeds +
query clients over real TCP), recording ``served_throughput_edges_per_s``,
``served_vs_inprocess`` (the protocol's toll against the same cluster fed
directly) and the p50/p99 served query latency.

With ``--profile`` each backend's run also records where batched-ingest time
goes (hashing / placement / buffer-spill / memo upkeep, totals and per
batch) under ``results.<backend>.ingest_profile`` — plus, from the
:mod:`repro.obs` registry the profiler forwards into, per-stage latency
*distributions* (count, total, p50/p99) under
``results.<backend>.obs_stage_seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import results_to_document  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.experiments.update_speed import run_update_speed_experiment  # noqa: E402
from repro.hashing.vectorized import NUMPY_AVAILABLE  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_tab1.json"),
                        help="trajectory file to append to (default: BENCH_tab1.json)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny smoke configuration instead of bench scale")
    parser.add_argument("--scale", type=float, default=None,
                        help="override the dataset scale factor")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="update_many chunk size (default 1024)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="cold runs averaged per measurement (default 1)")
    parser.add_argument("--profile", action="store_true",
                        help="record a per-stage ingest profile (hashing / "
                             "placement / buffer-spill / memo upkeep) for "
                             "every backend's run")
    parser.add_argument("--workers", type=int, default=0,
                        help="also measure a multi-process sharded-gss cluster "
                             "row with this many worker processes (default 0 = off)")
    parser.add_argument("--label", default=None,
                        help="free-form label stored with the run (e.g. the PR number)")
    parser.add_argument("--serve", action="store_true",
                        help="also measure the repro.serve network front end "
                             "(served throughput + query latency over TCP)")
    parser.add_argument("--serve-items", type=int, default=60_000,
                        help="synthetic stream length of the --serve "
                             "measurement (default 60000)")
    parser.add_argument("--serve-workers", type=int, default=0,
                        help="worker processes behind the served cluster "
                             "(default: --workers, or 2)")
    return parser.parse_args(argv)


def measure_serve(args: argparse.Namespace) -> dict:
    """The ``--serve`` section: served vs in-process throughput, one stream.

    Both sides ingest the identical synthetic stream into an identically
    specced ``sharded-gss`` cluster; the served side pays the protocol toll
    (framing, TCP, admission control) with concurrent query clients running,
    the in-process side calls ``update_many`` directly.
    """
    import time

    from repro.api import SketchSpec, build
    from repro.serve import ServeConfig, serve_in_thread
    from repro.serve.loadgen import LoadGenConfig, run_load_test, synthetic_stream

    workers = args.serve_workers or args.workers or 2
    stream = synthetic_stream(args.serve_items, nodes=4_000, seed=11)
    spec = SketchSpec(
        "sharded-gss",
        expected_edges=max(1, len(stream)),
        params={"workers": workers},
    )

    direct = build(spec)
    begin = time.perf_counter()
    direct.update_many(stream)
    direct.flush()
    inprocess_elapsed = time.perf_counter() - begin
    direct.close()
    inprocess_eps = len(stream) / inprocess_elapsed if inprocess_elapsed else 0.0

    cluster = build(spec)
    handle = serve_in_thread(cluster, ServeConfig(close_summary=False))
    try:
        report = run_load_test(
            LoadGenConfig(
                host=handle.host,
                port=handle.port,
                ingest_clients=2,
                query_clients=6,
                total_items=len(stream),
            ),
            stream=stream,
        )
    finally:
        handle.stop()
        cluster.close()

    served_eps = report["edges_per_second"]
    section = {
        "items": len(stream),
        "workers": workers,
        "ingest_clients": report["clients"]["ingest"],
        "query_clients": report["clients"]["query"],
        "served_throughput_edges_per_s": served_eps,
        "inprocess_edges_per_s": inprocess_eps,
        "served_vs_inprocess": served_eps / inprocess_eps if inprocess_eps else None,
        "query_p50_ms": report["query"]["p50_ms"],
        "query_p99_ms": report["query"]["p99_ms"],
        "queries": report["query"]["count"],
        "busy_retries": report["busy_retries"],
        "server_busy_replies": report["server"]["busy_replies"],
    }
    print(
        f"served: {served_eps:,.0f} edges/s over TCP "
        f"({section['ingest_clients']} feeds + {section['query_clients']} "
        f"query clients, workers={workers}) vs in-process "
        f"{inprocess_eps:,.0f} edges/s -> "
        f"{section['served_vs_inprocess']:.2f}x; query p50 "
        f"{section['query_p50_ms']:.2f} ms, p99 {section['query_p99_ms']:.2f} ms"
    )
    return section


def build_config(args: argparse.Namespace, backend: str) -> ExperimentConfig:
    config = ExperimentConfig.quick() if args.quick else ExperimentConfig()
    config.backend = backend
    if args.scale is not None:
        config.dataset_scale = args.scale
    if args.batch_size is not None:
        config.extras["batch_size"] = args.batch_size
    if args.repeats != 1:
        config.extras["speed_repeats"] = args.repeats
    if args.workers:
        config.workers = args.workers
    return config


def structure_rates(rows, structure: str) -> dict:
    return {
        row["dataset"]: row["edges_per_second"]
        for row in rows
        if row["structure"] == structure
    }


def obs_stage_document(obs_registry) -> dict:
    """Per-stage ingest *distributions* from the obs registry.

    The legacy ``ingest_profile`` dict carries stage totals; this rides
    along with per-stage count/total plus p50/p99 estimated from the
    ``repro_ingest_stage_seconds`` histogram buckets.
    """
    from repro.metrics.ingest_profile import STAGE_FAMILY
    from repro.obs.registry import histogram_quantile

    snapshot = obs_registry.snapshot()
    family = snapshot["families"].get(STAGE_FAMILY)
    if family is None:
        return {}
    bounds = family.get("buckets") or []
    stages = {}
    for series in family["series"].values():
        count = series.get("count", 0)
        if not count:
            continue
        p50 = histogram_quantile(bounds, series["counts"], 0.50)
        p99 = histogram_quantile(bounds, series["counts"], 0.99)
        stages[series["labels"].get("stage", "")] = {
            "count": count,
            "total_seconds": series["sum"],
            "p50_seconds": p50,
            "p99_seconds": p99,
        }
    return dict(sorted(stages.items()))


def update_many_rates(rows) -> dict:
    return structure_rates(rows, "GSS(update_many)")


def main(argv=None) -> int:
    args = parse_args(argv)
    from repro.core._native import native_available

    # Probing also compiles/binds the kernel (the warm-up hook), so the
    # one-time build cost lands here, never inside a timed region.
    native_ready = native_available()
    backends = ["python"] + (["native"] if native_ready else [])
    run_entry = {
        "label": args.label,
        "python": platform.python_version(),
        "numpy_available": NUMPY_AVAILABLE,
        "native_available": native_ready,
        "repeats": args.repeats,
        "workers": args.workers,
        "cpu_count": os.cpu_count(),
        "results": {},
    }
    cluster_label = f"sharded-gss(workers={args.workers})"
    rates = {}
    adjacency_rates = {}
    sharded_rates = {}
    for backend in backends:
        config = build_config(args, backend)
        print(f"== running tab1 on backend={backend} ==", flush=True)
        if args.profile:
            from repro.metrics.ingest_profile import profile_ingest
            from repro.obs import trace as obs_trace

            # The obs registry records the same stage timings as latency
            # *histograms* (IngestProfile.add forwards into it), so the
            # bench document carries per-stage distributions, not just sums.
            with profile_ingest() as profile, obs_trace.scoped() as obs_registry:
                result = run_update_speed_experiment(config)
        else:
            profile = None
            obs_registry = None
            result = run_update_speed_experiment(config)
        print(result.to_text())
        print()
        run_entry["results"][backend] = results_to_document([result], config)
        if profile is not None:
            # Stage times cover every batched GSS/cluster ingest of the run
            # (the scalar GSS(update) rows and non-GSS structures have no
            # batched stages to attribute).
            run_entry["results"][backend]["ingest_profile"] = profile.as_dict()
            run_entry["results"][backend]["obs_stage_seconds"] = (
                obs_stage_document(obs_registry)
            )
            total = sum(profile.stages.values())
            shares = ", ".join(
                f"{stage} {seconds / total:.0%}"
                for stage, seconds in sorted(profile.stages.items())
            ) if total else "no batched stages recorded"
            print(f"ingest profile [{backend}]: {shares} "
                  f"({profile.batches} batches, {total:.3f}s staged)")
        rates[backend] = update_many_rates(result.rows)
        adjacency_rates[backend] = structure_rates(result.rows, "Adjacency Lists")
        if args.workers:
            sharded_rates[backend] = structure_rates(result.rows, cluster_label)
    if args.workers:
        # Cluster ingest vs the single-process batched path, per backend: the
        # multi-core speedup the repro.cluster subsystem is after.  On a
        # single-core machine (cpu_count above) this ratio measures pure IPC
        # overhead and lands below 1.
        run_entry["sharded_speedup_vs_update_many"] = {
            backend: {
                dataset: sharded_rates[backend][dataset] / rate
                for dataset, rate in rates[backend].items()
                if rate and sharded_rates[backend].get(dataset)
            }
            for backend in sharded_rates
        }
        for backend, speedups in run_entry["sharded_speedup_vs_update_many"].items():
            for dataset, speedup in speedups.items():
                print(
                    f"{cluster_label} vs GSS(update_many) "
                    f"on {dataset} [{backend}]: {speedup:.2f}x"
                )
    if args.serve:
        print("== measuring served throughput (repro.serve over TCP) ==", flush=True)
        run_entry["serve"] = measure_serve(args)
    if "native" in rates:
        speedups = {
            dataset: rates["native"][dataset] / rates["python"][dataset]
            for dataset in rates["python"]
            if rates["python"].get(dataset) and rates["native"].get(dataset)
        }
        run_entry["update_many_speedup_native_vs_python"] = speedups
        for dataset, speedup in speedups.items():
            print(f"GSS(update_many) native vs python on {dataset}: {speedup:.2f}x")
    # How much faster the exact adjacency-list store still ingests than the
    # sketch's batched path, per backend (>1 means the baseline leads; the
    # native backend is meant to push this toward 1).
    run_entry["gss_vs_adjacency_ratio"] = {
        backend: {
            dataset: adjacency_rates[backend][dataset] / rate
            for dataset, rate in backend_rates.items()
            if rate and adjacency_rates.get(backend, {}).get(dataset)
        }
        for backend, backend_rates in rates.items()
    }
    for backend, ratios in run_entry["gss_vs_adjacency_ratio"].items():
        for dataset, ratio in ratios.items():
            print(f"adjacency-list lead over GSS(update_many) on {dataset} "
                  f"[{backend}]: {ratio:.2f}x")

    out_path = Path(args.out)
    if out_path.exists():
        try:
            document = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            document = {}
    else:
        document = {}
    if document.get("format") != "repro-gss-bench-trajectory":
        document = {"format": "repro-gss-bench-trajectory", "format_version": 1, "runs": []}
    document["runs"].append(run_entry)
    out_path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"appended run to {out_path} ({len(document['runs'])} run(s) recorded)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
