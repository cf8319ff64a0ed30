"""Run one workload of the GSS perf ledger and print its metrics.

    python3 bench/run.py --workload inproc-web --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program under test is imported from
``src/`` next to this directory, never from an installed copy, and the
native kernel is built under ``.bench_build/``.  Every metric is printed as
``name value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics,
followed in the text by the per-layer waterfall.  The exit code is non-zero
when any output check failed.  ``--out FILE`` appends the run, with its
environment, as one JSON line for ``bench/compare.py``.

``--seconds`` is part of the benchmark's command line and is always given
``run_seconds`` of ``BENCHMARK.json``; ``compare.py`` refuses to pool runs
of different lengths.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
#: The native kernel and the generated streams; ignored by git.
BUILD = ROOT / ".bench_build"
#: Length of the measured phases of a ``--smoke`` run, whatever ``--seconds`` says.
SMOKE_SECONDS = 1.0


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


def parse_args(argv, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the generated stream and query draws (default 1)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="length of the measured phases (default and intended "
                             "value: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: run untraced then traced for half the seconds each and "
                             "print the per-layer metrics and the waterfall")
    parser.add_argument("--out", type=Path, default=None,
                        help="append this run as one JSON line to this file")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny inputs and {SMOKE_SECONDS:g} s phases, for the "
                             "self-test; numbers are meaningless")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    return args


def import_repro() -> bool:
    """Put ``src/`` first on the path (children inherit it) and keep the
    kernel build inside the checkout; False when there is no ``src/repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    paths = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    import repro

    return Path(repro.__file__).resolve().is_relative_to(src)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip()


def environment(args: argparse.Namespace, backend: str, transport: str) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": backend,
        "transport": transport,
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def stop_resource_tracker() -> None:
    """The cluster's shared-memory ring starts multiprocessing's resource
    tracker; stop it and wait for it, so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if callable(stop):
        stop()


def overhead_ratio(name: str, plain: float, traced: float, spec: dict) -> float:
    """How much dearer the headline is with tracing on (1.0 = free)."""
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}[name]
    return plain / traced if better == "higher" else traced / plain


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if not import_repro():
        print(f"bench: no importable src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    here = str(Path(__file__).resolve().parent)
    if here not in sys.path:
        sys.path.insert(0, here)
    import measure
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workloads.warm_up()
    scale = workload.smoke_scale if args.smoke else workload.scale
    items = measure.dataset_items(workload.dataset, scale, args.seed, BUILD / "streams")
    checker = measure.Checker()
    seconds = args.seconds / 2 if args.trace else args.seconds
    inputs = workload.prepare(items, measure.nominal_edges(workload.dataset, scale), seconds)
    # The inputs are harness state: keep the collector's passes inside timed
    # calls from walking them.
    gc.freeze()
    try:
        run = workload.body(inputs, seconds, False, checker, args.seed)
        if args.trace:
            plain, run = run, workload.body(inputs, seconds, True, checker, args.seed)
            run.layers["trace.overhead_ratio"] = overhead_ratio(
                workload.headline, plain.end_to_end()[workload.headline],
                run.end_to_end()[workload.headline], spec,
            )
            run.layers["host.slowdown"] = measure.slowdown(run.calibrations)
    finally:
        stop_resource_tracker()
    if args.trace:
        listed = spec["per_layer"]
        values = {metric["name"]: 0.0 for metric in listed
                  if metric["name"].startswith(run.absent)}
        values.update(run.layers)
    else:
        listed = spec["end_to_end"]
        values = run.end_to_end()
        values["ok_ops_ratio"] = (1 - checker.failed / checker.attempted
                                  if checker.attempted else 0.0)

    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in listed
    }
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    for waterfall in run.waterfalls:
        print("\n".join(waterfall.lines()))
    for example in checker.examples:
        print(f"# check failed: {example}")
    env = environment(args, run.backend, run.transport)
    print("# env " + " ".join(f"{key}={value}" for key, value in env.items()))
    slowdown = measure.slowdown(run.calibrations)
    print(f"# host slowdown {slowdown!r}: end-to-end times and speeds are scaled by it")
    correct = checker.failed == 0 and checker.attempted > 0
    if args.out is not None:
        record = {"workload": args.workload, "trace": args.trace, "env": env,
                  "slowdown": slowdown, "correct": correct, "attempted": checker.attempted,
                  "failed": checker.failed, "metrics": metrics}
        with args.out.open("a") as out:
            out.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
