"""Command-line front-end: ``python -m repro <experiment>``.

Each sub-command regenerates one table or figure of the paper and prints the
result rows as an aligned text table.  ``--scale`` controls the synthetic
dataset size, ``--paper-scale`` switches to the full configuration (all five
datasets, full query sets), ``--quick`` runs the tiny smoke configuration,
``--backend`` selects the sketch matrix backend, ``--sketch NAME`` (repeatable)
adds equal-memory comparison rows for any registered sketch, ``--workers N``
adds a multi-process ``sharded-gss`` cluster row to tab1, and ``--json PATH``
writes the result rows as a machine-readable document (the perf-trajectory
format consumed by ``scripts/record_bench.py``).

``sketches`` is not an experiment: it lists the registry — every sketch the
``repro.api`` factory can build, with its capabilities.

``serve`` is not an experiment either: ``python -m repro serve --workers 2
--port 8750`` builds a ``sharded-gss`` cluster and runs the
:mod:`repro.serve` network front end over it in the foreground until
SIGINT/SIGTERM (draining in-flight batches and, with ``--checkpoint-dir``,
checkpointing before exit).  It has its own flag set — see
``python -m repro serve --help``.

``obs`` inspects :mod:`repro.obs` telemetry: ``python -m repro obs --port
8750`` scrapes a running server's ``/metrics`` and pretty-prints the
instrument snapshot (counters, gauges, latency histograms with p50/p99
estimates); ``--file`` reads a dumped document instead, and
``--check-prometheus PATH|-`` validates a Prometheus text exposition (the
CI serve smoke leg pipes ``curl -H 'Accept: text/plain'`` through it).

Every sketch the runners construct goes through :func:`repro.api.build`; the
CLI never instantiates a summary class directly.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.api import list_sketches, sketch_info
from repro.experiments import (
    ExperimentConfig,
    run_algorithm_agreement_experiment,
    run_buffer_experiment,
    run_candidate_ablation,
    run_edge_query_experiment,
    run_figure3,
    run_fingerprint_ablation,
    run_heavy_changer_experiment,
    run_memory_experiment,
    run_node_query_experiment,
    run_partition_experiment,
    run_precursor_experiment,
    run_reachability_experiment,
    run_rooms_ablation,
    run_sequence_length_ablation,
    run_subgraph_experiment,
    run_successor_experiment,
    run_triangle_experiment,
    run_update_speed_experiment,
    run_window_experiment,
)

#: Paper artifacts (tables and figures).
_PAPER_RUNNERS: Dict[str, Callable] = {
    "fig3": run_figure3,
    "fig8": run_edge_query_experiment,
    "fig9": run_precursor_experiment,
    "fig10": run_successor_experiment,
    "fig11": run_node_query_experiment,
    "fig12": run_reachability_experiment,
    "fig13": run_buffer_experiment,
    "tab1": run_update_speed_experiment,
    "fig14": run_triangle_experiment,
    "fig15": run_subgraph_experiment,
}

#: Extension studies (ablations and deployment wrappers); run with their name
#: or with the ``extensions`` pseudo-experiment.
_EXTENSION_RUNNERS: Dict[str, Callable] = {
    "ablation-fingerprint": run_fingerprint_ablation,
    "ablation-sequence": run_sequence_length_ablation,
    "ablation-candidates": run_candidate_ablation,
    "ablation-rooms": run_rooms_ablation,
    "window": run_window_experiment,
    "partition": run_partition_experiment,
    "changers": run_heavy_changer_experiment,
    "algorithms": run_algorithm_agreement_experiment,
    "memory": run_memory_experiment,
}

_RUNNERS: Dict[str, Callable] = {**_PAPER_RUNNERS, **_EXTENSION_RUNNERS}

#: Experiments that grow equal-memory comparison rows for ``--sketch``.
_SKETCH_ROW_RUNNERS = frozenset({"fig8", "fig9", "fig10", "fig11", "fig12", "tab1"})


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-gss",
        description="Reproduce the tables and figures of 'Fast and Accurate "
        "Graph Stream Summarization' (GSS, ICDE 2019).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(list(_RUNNERS) + ["all", "extensions", "sketches"]),
        help=(
            "which table/figure to regenerate; 'all' runs every paper artifact, "
            "'extensions' runs the ablation and deployment studies, 'sketches' "
            "lists every registered summary structure and its capabilities "
            "(also: 'serve' runs the network front end — "
            "see 'python -m repro serve --help')"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="dataset scale factor (default from the chosen configuration)",
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=None,
        help="restrict to these dataset analogs (default: configuration's set)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="tiny smoke-test configuration"
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help=(
            "chunk size for the batched update_many ingestion measured by "
            "tab1 (default 1024)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "add a multi-process sharded-gss cluster row with N worker "
            "processes to tab1 (equal memory to the reference GSS; see the "
            "repro.cluster subsystem)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=["python", "numpy", "native", "auto"],
        default="python",
        help=(
            "matrix backend for GSS and the TCM counters: 'python' (zero "
            "dependencies, default), 'native' (GSS: compiled placement "
            "kernel; counters: numpy), 'numpy' (GSS: same as native; "
            "counters: numpy) or 'auto' (native when NumPy and a C "
            "compiler are present, else python).  Missing prerequisites "
            "fall back to python with a warning"
        ),
    )
    parser.add_argument(
        "--sketch",
        action="append",
        # Only sketches constructible from a bare memory budget qualify —
        # e.g. windowed-gss needs a window span no experiment can infer.
        choices=[
            name for name in list_sketches() if not sketch_info(name).required_params
        ],
        default=None,
        metavar="NAME",
        help=(
            "add equal-memory comparison rows for this registered sketch to "
            "the experiments that support it (repeatable; see 'sketches' for "
            "the registry)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the result rows as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="full configuration: all five datasets, full query sets",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Translate parsed CLI arguments into an :class:`ExperimentConfig`."""
    if args.quick and args.paper_scale:
        raise SystemExit("--quick and --paper-scale are mutually exclusive")
    if args.quick:
        config = ExperimentConfig.quick()
    elif args.paper_scale:
        config = ExperimentConfig.paper_scale()
    else:
        config = ExperimentConfig()
    if args.scale is not None:
        config.dataset_scale = args.scale
    if args.datasets is not None:
        config.datasets = tuple(args.datasets)
    if args.batch_size is not None:
        if args.batch_size < 1:
            raise SystemExit("--batch-size must be at least 1")
        config.extras["batch_size"] = args.batch_size
    if getattr(args, "workers", None) is not None:
        if args.workers < 1:
            raise SystemExit("--workers must be at least 1")
        config.workers = args.workers
    if getattr(args, "backend", None):
        config.backend = args.backend
    if getattr(args, "sketch", None):
        config.extra_sketches = tuple(args.sketch)
    return config


def results_to_document(results: List, config: ExperimentConfig) -> Dict:
    """Bundle experiment results as a JSON-compatible perf document.

    The shape is what ``scripts/record_bench.py`` appends to the
    ``BENCH_*.json`` trajectory: run metadata (backend, scale, interpreter)
    plus the raw rows of every experiment, so later sessions can diff
    throughput numbers without re-parsing text tables.  ``backend`` is the
    GSS backend that actually ran (``auto``, the legacy ``numpy`` name and
    missing-kernel fallbacks resolved); the raw request is kept in
    ``backend_requested``.
    """
    import warnings

    from repro.core.backends import resolve_backend_name

    with warnings.catch_warnings():
        # The fallback warning (if any) already fired when the sketches were
        # built; resolving again for metadata should stay silent.
        warnings.simplefilter("ignore")
        resolved_backend = resolve_backend_name(config.backend)
    return {
        "format": "repro-gss-bench",
        "format_version": 1,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": resolved_backend,
        "backend_requested": config.backend,
        "dataset_scale": config.dataset_scale,
        "datasets": list(config.datasets),
        "batch_size": config.extras.get("batch_size", 1024),
        "workers": config.workers,
        "experiments": [
            {
                "experiment": result.experiment,
                "description": result.description,
                "columns": result.columns,
                "rows": result.rows,
            }
            for result in results
        ],
    }


def sketch_registry_rows() -> List[Dict]:
    """One row per registered sketch: name, description, capability summary."""
    rows = []
    for name in list_sketches():
        info = sketch_info(name)
        rows.append(
            {
                "sketch": name,
                "description": info.description,
                "capabilities": ",".join(info.capabilities.supported()),
                "params": ",".join(info.param_names) or "-",
            }
        )
    return rows


def _write_json(document: Dict, target: str) -> None:
    """Dump a result document to ``target`` (``-`` for stdout)."""
    if target == "-":
        json.dump(document, sys.stdout, indent=2)
        print()
    else:
        path = Path(target)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        print(f"wrote JSON results to {path}")


def _run_sketches_listing(args: argparse.Namespace) -> int:
    """The ``sketches`` sub-command: print (and optionally dump) the registry."""
    from repro.experiments.report import format_table

    rows = sketch_registry_rows()
    print("== sketches: the repro.api registry ==")
    print(format_table(rows, ["sketch", "description", "capabilities", "params"]))
    if args.json is not None:
        _write_json({"format": "repro-gss-sketches", "sketches": rows}, args.json)
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``serve`` sub-command's own parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-gss serve",
        description="Run the repro.serve network front end over a sharded-gss "
        "cluster: concurrent ingest feeds and query clients over TCP, with "
        "credit-window backpressure and GET /metrics on the same port.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default loopback; the protocol "
                             "trusts its network — keep it private)")
    parser.add_argument("--port", type=int, default=8750,
                        help="TCP port (0 picks a free one; default 8750)")
    parser.add_argument("--workers", type=int, default=2,
                        help="cluster worker processes (default 2)")
    parser.add_argument("--backend", choices=["python", "numpy", "native", "auto"],
                        default="python", help="matrix backend of the shards")
    sizing = parser.add_mutually_exclusive_group()
    sizing.add_argument("--expected-edges", type=int, default=None,
                        help="size the summary for this many distinct edges "
                             "(default 100000)")
    sizing.add_argument("--memory-bytes", type=int, default=None,
                        help="size the summary to this memory budget instead")
    parser.add_argument("--credits", type=int, default=8,
                        help="per-connection ingest credit window (default 8)")
    parser.add_argument("--max-inflight", type=int, default=64,
                        help="global cap on admitted-but-unapplied batches")
    parser.add_argument("--retry-after", type=float, default=0.05,
                        help="backoff hint carried by busy replies (seconds)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="checkpoint here on shutdown (and on the "
                             "protocol's checkpoint op)")
    parser.add_argument("--restore", action="store_true",
                        help="restore the cluster from --checkpoint-dir "
                             "before serving")
    parser.add_argument("--no-obs", action="store_true",
                        help="disable cluster telemetry (the obs key on "
                             "/metrics and the Prometheus exposition)")
    return parser


def _run_serve(argv: List[str]) -> int:
    """The ``serve`` sub-command: foreground server until SIGINT/SIGTERM."""
    import asyncio

    from repro.api import SketchSpec, build
    from repro.serve.server import ServeConfig, SummaryServer

    args = build_serve_parser().parse_args(argv)
    if args.restore and args.checkpoint_dir is None:
        raise SystemExit("--restore needs --checkpoint-dir")
    if args.restore:
        from repro.cluster import load_checkpoint

        summary = load_checkpoint(args.checkpoint_dir, backend=args.backend)
        print(f"restored {summary.workers}-worker cluster from "
              f"{args.checkpoint_dir} ({summary.update_count} items)")
    else:
        spec = SketchSpec(
            "sharded-gss",
            expected_edges=(
                args.expected_edges
                if args.expected_edges is not None or args.memory_bytes is not None
                else 100_000
            ),
            memory_bytes=args.memory_bytes,
            backend=args.backend,
            params={"workers": args.workers},
        )
        summary = build(spec)
    server = SummaryServer(
        summary,
        ServeConfig(
            host=args.host,
            port=args.port,
            credits=args.credits,
            max_inflight=args.max_inflight,
            retry_after=args.retry_after,
            checkpoint_dir=args.checkpoint_dir,
            obs=not args.no_obs,
        ),
    )

    async def _serve() -> None:
        await server.start()
        server.install_signal_handlers()
        print(
            f"serving on {server.host}:{server.port} "
            f"(workers={summary.workers} "
            f"credits={args.credits} max_inflight={args.max_inflight}); "
            f"GET /metrics on the same port; Ctrl-C drains and exits",
            flush=True,
        )
        await server.wait_stopped()

    asyncio.run(_serve())
    print("server stopped")
    return 0


def build_obs_parser() -> argparse.ArgumentParser:
    """The ``obs`` sub-command's own parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-gss obs",
        description="Inspect repro.obs telemetry: pretty-print the instrument "
        "snapshot of a running server (or of a dumped /metrics document), or "
        "validate a Prometheus text exposition.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="server to scrape (default loopback)")
    parser.add_argument("--port", type=int, default=8750,
                        help="server port (default 8750, the serve default)")
    parser.add_argument("--file", default=None, metavar="PATH",
                        help="read a JSON document from PATH instead of "
                             "scraping a server (either a full /metrics "
                             "document or a bare obs snapshot)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also dump the raw snapshot as JSON to PATH "
                             "('-' prints to stdout)")
    parser.add_argument("--check-prometheus", default=None, metavar="PATH",
                        help="parse and validate a Prometheus text exposition "
                             "read from PATH ('-' reads stdin), then exit; "
                             "non-zero exit on malformed input")
    return parser


def _run_obs(argv: List[str]) -> int:
    """The ``obs`` sub-command: pretty-print or validate telemetry."""
    from repro.obs.export import describe_snapshot, validate_prometheus

    args = build_obs_parser().parse_args(argv)
    if args.check_prometheus is not None:
        if args.check_prometheus == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.check_prometheus).read_text(encoding="utf-8")
        try:
            families = validate_prometheus(text)
        except ValueError as error:
            print(f"invalid prometheus exposition: {error}", file=sys.stderr)
            return 1
        print(f"prometheus exposition OK: {len(families)} families")
        return 0
    if args.file is not None:
        document = json.loads(Path(args.file).read_text(encoding="utf-8"))
    else:
        from repro.serve.client import fetch_http_metrics

        document = fetch_http_metrics(args.host, args.port)
    # Accept both shapes: a full /metrics document carrying an "obs" key,
    # or a bare registry snapshot dumped by some other tool.
    snapshot = document.get("obs") if "families" not in document else document
    if not snapshot or "families" not in snapshot:
        print(
            "no obs snapshot in the document (server running with "
            "obs disabled?)",
            file=sys.stderr,
        )
        return 1
    if args.json is not None:
        _write_json(snapshot, args.json)
    print(describe_snapshot(snapshot))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro-gss`` script."""
    raw_argv = sys.argv[1:] if argv is None else list(argv)
    if raw_argv and raw_argv[0] == "serve":
        return _run_serve(raw_argv[1:])
    if raw_argv and raw_argv[0] == "obs":
        return _run_obs(raw_argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "sketches":
        return _run_sketches_listing(args)
    config = config_from_args(args)

    if args.experiment == "all":
        names = sorted(_PAPER_RUNNERS)
    elif args.experiment == "extensions":
        names = sorted(_EXTENSION_RUNNERS)
    else:
        names = [args.experiment]
    if len(names) > 1:
        # In multi-experiment runs a --sketch rides through the experiments
        # that support it and is skipped elsewhere, as the help promises; a
        # single-experiment run errors on an unsupported combination.
        config.extras["sketch_rows_lenient"] = True
    elif config.extra_sketches and names[0] not in _SKETCH_ROW_RUNNERS:
        raise SystemExit(
            f"error: experiment {names[0]!r} has no --sketch comparison rows; "
            f"supported: {', '.join(sorted(_SKETCH_ROW_RUNNERS))}"
        )
    results = []
    for name in names:
        try:
            result = _RUNNERS[name](config)
        except ValueError as error:
            raise SystemExit(f"error: {error}") from error
        results.append(result)
        print(result.to_text())
        print()
    if args.json is not None:
        _write_json(results_to_document(results, config), args.json)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
