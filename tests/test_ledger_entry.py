"""``scripts/ledger_entry.py``: bench sets become ``BENCH_tab1.json`` entries."""

from __future__ import annotations

import importlib.util
import json
import shutil
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_tab1.json"


def _load_writer():
    spec = importlib.util.spec_from_file_location(
        "ledger_entry", ROOT / "scripts" / "ledger_entry.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


writer = _load_writer()

ENV = {"cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6", "backend": "native",
       "transport": "none", "commit": "c0ffee", "seed": 1, "seconds": 20.0,
       "smoke": False}


def record(workload, eps, trace=0, **env):
    metrics = ({"core.ingest_s": {"value": 9.0, "unit": "s"}} if trace else
               {"ingest_eps": {"value": eps, "unit": "edges/s"},
                "ok_ops_ratio": {"value": 1.0, "unit": "ratio"}})
    return {"workload": workload, "trace": trace, "env": {**ENV, **env},
            "metrics": metrics}


def write_set(path: Path, records) -> Path:
    path.write_text("".join(json.dumps(item) + "\n" for item in records))
    return path


@pytest.fixture()
def ledger(tmp_path):
    return Path(shutil.copy(LEDGER, tmp_path / "ledger.json"))


def test_an_entry_summarises_each_workload_metric(tmp_path, ledger):
    eps = [100.0, 130.0, 110.0, 90.0, 120.0]
    runs = [record("inproc-web", value) for value in eps]
    runs += [record("cluster-web", 50.0), record("inproc-web", 1.0, trace=1, seconds=10.0)]
    before = json.loads(ledger.read_text())["runs"]
    assert writer.main([str(write_set(tmp_path / "set.jsonl", runs)), "--label", "L"],
                       ledger=ledger) == 0
    after = json.loads(ledger.read_text())["runs"]
    assert after[:-1] == before
    entry = after[-1]
    assert {key: entry[key] for key in ("label", "commit", "cpu_count", "backend", "seconds")} \
        == {"label": "L", "commit": "c0ffee", "cpu_count": 2, "backend": "native",
            "seconds": 20.0}
    first, _, third = statistics.quantiles(eps, n=4)
    # The traced run is skipped: five runs, and its metric is absent.
    assert entry["metrics"]["inproc-web"] == {
        "ingest_eps": {"median": 110.0, "iqr": third - first, "n": 5},
        "ok_ops_ratio": {"median": 1.0, "iqr": 0.0, "n": 5},
    }
    assert entry["metrics"]["cluster-web"]["ingest_eps"] == {"median": 50.0, "iqr": 0.0, "n": 1}


@pytest.mark.parametrize("odd", [{"cpu_count": 1}, {"backend": "python"},
                                 {"seconds": 5.0}, {"smoke": True}, {"commit": "beef"}])
def test_a_set_of_mixed_runs_is_refused(tmp_path, ledger, odd):
    before = ledger.read_text()
    runs = [record("inproc-web", 100.0), record("inproc-web", 100.0, **odd)]
    assert writer.main([str(write_set(tmp_path / "set.jsonl", runs)), "--label", "L"],
                       ledger=ledger) == 2
    assert ledger.read_text() == before


def test_a_set_of_traced_runs_only_is_refused(tmp_path, ledger):
    before = ledger.read_text()
    runs = [record("inproc-web", 1.0, trace=1)]
    assert writer.main([str(write_set(tmp_path / "set.jsonl", runs)), "--label", "L"],
                       ledger=ledger) == 2
    assert ledger.read_text() == before


def test_the_first_six_entries_are_the_legacy_trajectory():
    document = json.loads(LEDGER.read_text())
    assert document["format"] == "repro-gss-bench-trajectory"
    legacy = document["runs"][:6]
    assert [entry["label"] for entry in legacy] == [
        "PR2 default-scale",
        "PR2 full-tab1-scale",
        "PR5 repro.cluster (1-core container: sharded ratio = IPC overhead bound)",
        "hash-once pipeline, 1-core container",
        "PR7 repro.serve (1-core container)",
        "compiled native placement kernel",
    ]
    assert all("results" in entry for entry in legacy)
    for entry in document["runs"][6:]:
        assert set(entry) >= {"label", "commit", "cpu_count", "backend", "seconds", "metrics"}
