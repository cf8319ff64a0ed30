#!/usr/bin/env python
"""Append one perf-ledger set to ``BENCH_tab1.json`` as a trajectory entry.

A set is the JSON-lines file that ``bench/run.py --out SET.jsonl`` appends
to.  The entry records the set's commit, the conditions its runs share
(backend, ``cpu_count``, run length, ``--smoke``) and, per (workload,
end-to-end metric), the median, IQR and run count, summarised by
``bench/compare.py`` exactly as its verdicts summarise them.  Traced runs
are skipped, as ``compare.py`` skips them.  A set whose runs were recorded
under different conditions or at different commits is refused (exit 2).

Usage::

    python3 bench/run.py --workload inproc-web --seed 1 --out set.jsonl   # x N
    python3 scripts/ledger_entry.py set.jsonl --label "what the set measures"
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_tab1.json"
sys.path.insert(0, str(ROOT / "bench"))

from compare import CONDITIONS, load, summary  # noqa: E402


def ledger_entry(path: Path, label: str) -> dict:
    """The trajectory entry of one set; ``ValueError`` when it is not one
    measurement (no untraced runs, mixed conditions or commits)."""
    values, conditions = load(path)
    records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    commits = {record["env"]["commit"] for record in records if not record["trace"]}
    if len(conditions) != 1 or len(commits) != 1:
        raise ValueError(f"{path}: not one measurement: conditions {sorted(conditions, key=str)}"
                         f" {CONDITIONS}, commits {sorted(commits)}")
    metrics: dict = {}
    for (workload, metric), runs in values.items():
        median, iqr, _ = summary(runs)
        metrics.setdefault(workload, {})[metric] = {"median": median, "iqr": iqr, "n": len(runs)}
    return {"label": label, "commit": commits.pop(),
            **dict(zip(CONDITIONS, conditions.pop())), "metrics": metrics}


def main(argv=None, ledger: Path = LEDGER) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set", type=Path, metavar="SET.jsonl")
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    try:
        entry = ledger_entry(args.set, args.label)
    except ValueError as refused:
        print(f"refusing to record {refused}", file=sys.stderr)
        return 2
    document = json.loads(ledger.read_text())
    document["runs"].append(entry)
    ledger.write_text(json.dumps(document, indent=2) + "\n")
    print(f"{ledger.name}: entry {len(document['runs'])} {entry['label']!r} at "
          f"{entry['commit'][:12]}, {sum(map(len, entry['metrics'].values()))} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
