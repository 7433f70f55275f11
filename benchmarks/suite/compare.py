#!/usr/bin/env python3
"""Compare two sets of suite result documents, A (parent) and B (change).

    python3 benchmarks/suite/compare.py A B [--top N]

A and B are each a result document or a directory of them: the merged
document ``run.py`` writes, or single-workload documents written with
``--workload ... --out``.  Pair the runs by file name, alternating which
commit runs first.

For every (end-to-end metric, workload) it prints each side's median
and quartiles, the share of pairs B won (ties count for neither) and a
verdict, with the bounds of ``BENCHMARK.json``:

* better: B won at least 9 in 10 pairs and B's median is better than
  A's by more than A's interquartile distance;
* worse: B's median is worse than A's by more than the bound times A's
  median and, for the metrics in :data:`ABSOLUTE_SLACK`, by more than
  that many units too;
* unresolved: not worse, but A's own spread (interquartile distance
  over median) is wider than the bound and B did not read better than
  every run of A;
* unchanged: otherwise.

It then ranks the per-layer metrics whose medians moved most.  Exit
status 1 when an end-to-end metric is worse or B's share of failed ops
is higher than A's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: Metric -> how many of its units it may also worsen by before it
#: counts as worse.  Set-up is mostly interpreter start and imports, a
#: few tenths of a second, so a relative bound alone would flag noise.
ABSOLUTE_SLACK = {"setup_s": 0.25}

#: (workload, metric) -> values, one per run, in file-name order.
Series = Dict[Tuple[str, str], List[float]]


def load_runs(path: Path) -> List[dict]:
    """Single-workload documents found at ``path``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        document = json.loads(file.read_text())
        if "workloads" in document:
            for entry in document["workloads"].values():
                runs.extend(entry.values())
        else:
            runs.append(document)
    return runs


def collect(runs: List[dict]) -> Tuple[Series, int, int]:
    series: Series = {}
    attempted = failed = 0
    for run in runs:
        attempted += run["attempted"]
        failed += run["failed"]
        for name, block in run["metrics"].items():
            series.setdefault((run["workload"], name), []).append(
                block["value"]
            )
    return series, attempted, failed


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: List[float], b: List[float], lower_is_better: bool,
            bound: float, slack: float = 0.0) -> Tuple[str, float]:
    """The rule of choosing-metrics section 8, plus the bound."""
    sign = 1.0 if lower_is_better else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    share = wins / len(pairs) if pairs else 0.0
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    gain = sign * (a_med - b_med)
    if share >= 0.9 and gain > a_q3 - a_q1:
        return "better", share
    if -gain > bound * abs(a_med) and -gain > slack:
        return "worse", share
    all_better = all(sign * (x - y) > 0 for x in a for y in b)
    if a_med and (a_q3 - a_q1) / a_med > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("a", type=Path, help="parent: document or directory")
    parser.add_argument("b", type=Path, help="change: document or directory")
    parser.add_argument("--top", type=int, default=12,
                        help="per-layer metrics to rank (default 12)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_series, a_attempted, a_failed = collect(load_runs(args.a))
    b_series, b_attempted, b_failed = collect(load_runs(args.b))
    workloads = [entry["name"] for entry in spec["workloads"]]

    status = 0
    print(f"{'metric':<14} {'workload':<13} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'B won':>6}  verdict")
    for metric in spec["end_to_end"]:
        lower = metric["better"] == "lower"
        for workload in workloads:
            key = (workload, metric["name"])
            if key not in a_series or key not in b_series:
                continue
            a, b = a_series[key], b_series[key]
            outcome, share = verdict(a, b, lower, metric["bound"],
                                     ABSOLUTE_SLACK.get(metric["name"], 0.0))
            if outcome == "worse":
                status = 1
            cells = [
                "{1:.4f} [{0:.4f}, {2:.4f}]".format(*quartiles(side))
                for side in (a, b)
            ]
            print(f"{metric['name']:<14} {workload:<13} {cells[0]:>30} "
                  f"{cells[1]:>30} {share:>6.0%}  {outcome}")

    a_share = a_failed / a_attempted if a_attempted else 0.0
    b_share = b_failed / b_attempted if b_attempted else 0.0
    print(f"failed ops: A {a_failed}/{a_attempted}, B {b_failed}/"
          f"{b_attempted}")
    if b_share > a_share:
        status = 1

    moved = []
    for entry in spec["per_layer"]:
        for workload in workloads:
            key = (workload, entry["name"])
            if key not in a_series or key not in b_series:
                continue
            a_med = statistics.median(a_series[key])
            b_med = statistics.median(b_series[key])
            if a_med:
                moved.append(((b_med - a_med) / a_med, key, a_med, b_med))
    moved.sort(key=lambda item: -abs(item[0]))
    if moved:
        print(f"per-layer metrics that moved most (top {args.top}):")
    for change, (workload, name), a_med, b_med in moved[:args.top]:
        print(f"  {name:<26} {workload:<13} {a_med:>14.6g} -> "
              f"{b_med:<14.6g} {change:+.1%}")
    return status


if __name__ == "__main__":
    sys.exit(main())
