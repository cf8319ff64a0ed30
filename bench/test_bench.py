"""Self-test of the perf ledger: ``python -m pytest bench -q``.

Not part of tier-1 (``testpaths`` names only ``tests/``).  Every workload
runs with ``--smoke``: tiny inputs and one-second phases, a few seconds per
run, numbers meaningless — the test checks the contract, not performance.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def smoke(workload: str, *extra: str, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--smoke", *extra],
        capture_output=True, text=True, timeout=300, cwd=script.parent.parent,
    )


def printed_units(stdout: str) -> dict:
    """``name value unit`` lines, as name -> unit."""
    units = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith(" "):
            units[parts[0]] = parts[2]
    return units


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    result = smoke(workload)
    assert result.returncode == 0, result.stdout + result.stderr
    units = printed_units(result.stdout)
    for metric in SPEC["end_to_end"]:
        assert units.get(metric["name"]) == metric["unit"], metric["name"]
    summary = json.loads(result.stdout.splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    assert set(summary["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in summary["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_prints_per_layer_metrics_and_a_waterfall_that_sums(workload):
    result = smoke(workload, "--trace", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    units = printed_units(result.stdout)
    for metric in SPEC["per_layer"]:
        assert units.get(metric["name"]) == metric["unit"], metric["name"]
    summary = json.loads(result.stdout.splitlines()[-1])
    assert set(summary["metrics"]) == {metric["name"] for metric in SPEC["per_layer"]}
    measured = [float(value) for value in
                re.findall(r"^waterfall: .*\(measured ([\d.]+) s\)$", result.stdout, re.M)]
    sums = [float(value) for value in re.findall(r"^  sum +([\d.]+) s$", result.stdout, re.M)]
    rests = [float(value) for value in
             re.findall(r"^  unattributed \(.*\) +(-?[\d.]+) s ", result.stdout, re.M)]
    assert measured and len(measured) == len(sums) == len(rests)
    for wall, total, rest in zip(measured, sums, rests):
        assert total == pytest.approx(wall, rel=0.01)
        # Layers that overlap or count a wait twice leave less than nothing.
        assert rest >= -0.01 * wall


def test_a_wrong_reference_fails_the_run(monkeypatch, capsys):
    import run

    assert run.import_repro()
    from repro.exact.adjacency_list import AdjacencyListGraph

    exact = AdjacencyListGraph.edge_query
    monkeypatch.setattr(AdjacencyListGraph, "edge_query",
                        lambda self, source, destination:
                        (exact(self, source, destination) or 0.0) + 1.0)
    code = run.main(["--workload", WORKLOADS[0], "--smoke"])
    out = capsys.readouterr().out
    assert code != 0
    summary = json.loads(out.splitlines()[-1])
    assert not summary["correct"] and summary["failed"] > 0
    assert summary["metrics"]["ok_ops_ratio"]["value"] < 1


def test_pair_bounds_are_within_the_benchmark_bounds():
    """``compare.py`` may judge a pair more strictly than BENCHMARK.json
    does, never more loosely."""
    import compare

    bounds = compare.pair_bounds(BENCH / "bounds.json")
    metrics = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
    assert set(bounds) == {(workload, name) for workload in WORKLOADS for name in metrics}
    for (workload, name), bound in bounds.items():
        assert 0 <= bound <= metrics[name], (workload, name)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = smoke(WORKLOADS[0], script=tmp_path / "bench" / "run.py")
    assert result.returncode != 0
    assert not result.stdout.strip()
