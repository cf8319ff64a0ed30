"""Compare sets of perf-ledger runs against the ledger's bounds.

    python3 bench/compare.py A.jsonl B.jsonl   # verdict for B against A
    python3 bench/compare.py A.jsonl           # one set: is each spread within its bound?

A set is the JSON-lines file that ``bench/run.py --out FILE`` appends to;
only untraced runs carry end-to-end metrics.  For every (workload, metric)
pair the tool prints each set's median and IQR (``statistics.quantiles``
quartiles) and a verdict for B against A:

* ``identical`` — both sets hold exactly the same values (deterministic
  metrics of the same seeds);
* ``unresolved`` — either set's spread (IQR as a share of its median)
  exceeds the bound, unless every run of B is better than every run of A
  (``improved``) or worse than every run of A (``regressed``);
* otherwise ``regressed`` / ``improved`` when the median moved the wrong /
  right way by more than the bound, else ``within``.

A bound of 0 marks a metric that is a function of the seed (accuracy,
sketch size, failed checks): its spread is the seeds', not noise, so only
the medians are compared, and any move the wrong way is a regression.

The bound of a pair is the one ``bench/bounds.json`` gives it; that file
also records the baseline spreads each bound was set from.  A pair it does
not list takes the metric's bound in ``BENCHMARK.json``, which is the
loosest bound of the metric on any workload.

Runs recorded on a different backend or ``cpu_count``, or with a different
run length or ``--smoke``, are not comparable: the tool refuses to mix them
(exit 2).  It exits 1 when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: What two runs must share to be compared.
CONDITIONS = ("backend", "cpu_count", "seconds", "smoke")


def load(path: Path) -> Tuple[Dict[Tuple[str, str], List[float]], set]:
    """(workload, metric) -> values over the set's untraced runs, and the
    CONDITIONS the set's runs were recorded under."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    conditions = set()
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"]:
            continue
        conditions.add(tuple(record["env"][key] for key in CONDITIONS))
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    return values, conditions


def summary(values: List[float]) -> Tuple[float, float, float]:
    """(median, IQR, IQR as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0, 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return median, third - first, (third - first) / median if median else 0.0


def verdict(before: List[float], after: List[float], bound: float, better: str) -> str:
    if sorted(before) == sorted(after):
        return "identical"
    higher = better == "higher"
    all_better = min(after) > max(before) if higher else max(after) < min(before)
    all_worse = max(after) < min(before) if higher else min(after) > max(before)
    median_a, _, spread_a = summary(before)
    median_b, _, spread_b = summary(after)
    if bound and max(spread_a, spread_b) > bound:
        return "improved" if all_better else "regressed" if all_worse else "unresolved"
    change = (median_b - median_a) / median_a
    worse = -change if higher else change
    if worse > bound:
        return "regressed"
    return "improved" if -worse > bound else "within"


def pair_bounds(path: Path) -> Dict[Tuple[str, str], float]:
    if not path.is_file():
        return {}
    return {
        (workload, metric): entry["bound"]
        for workload, metrics in json.loads(path.read_text()).items()
        for metric, entry in metrics.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", type=Path, metavar="SET.jsonl",
                        help="one set (spread check) or two (B against A)")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    parser.add_argument("--bounds", type=Path, default=ROOT / "bench" / "bounds.json")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two sets")
    spec = json.loads(args.benchmark.read_text())
    bounds = pair_bounds(args.bounds)
    loaded = [load(path) for path in args.sets]
    conditions = set().union(*(found for _, found in loaded))
    if len(conditions) > 1:
        print(f"refusing to compare runs recorded under different {CONDITIONS}: "
              f"{sorted(conditions, key=str)}", file=sys.stderr)
        return 2
    regressed = False
    for workload in (workload["name"] for workload in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            columns = [values.get(key) for values, _ in loaded]
            if not all(columns):
                continue
            bound = bounds.get(key, metric["bound"])
            cells = []
            for values in columns:
                median, iqr, spread = summary(values)
                cells.append(f"{median:14.6g} IQR {iqr:10.4g} ({spread:6.2%})")
            if len(columns) == 1:
                spread = summary(columns[0])[2]
                outcome = "seeded" if not bound else "steady" if spread <= bound else "noisy"
            else:
                outcome = verdict(columns[0], columns[1], bound, metric["better"])
                regressed |= outcome == "regressed"
            print(f"{workload:<13} {metric['name']:<23} {'  '.join(cells)}  "
                  f"bound {bound:.1%}  {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
