"""Compare a parent and a change run set of the end-to-end benchmark.

Usage::

    python benchmarks/e2e/compare.py --parent P1.json P2.json ... \\
                                     --change C1.json C2.json ...

Each file is a ``run.py --json`` output (one or more workload records).
Runs pair up in the order given: the i-th parent run of a workload with
the i-th change run of it.  Collect them alternating which side runs
first.  One row is printed per (workload, end-to-end metric): each side's
median and quartiles, the share of pairs the change wins (ties count for
neither), and a verdict under the bounds in ``BENCHMARK.json``:

* ``regressed``  the change's median is worse than the parent's by more
  than the bound;
* ``improved``   the change wins at least 9/10 of the pairs, its median is
  better by more than the parent's interquartile distance, and no more
  operations failed than at the parent;
* ``unresolved`` the parent's own spread (interquartile distance over
  median) is wider than the bound, and not every change run beats every
  parent run;
* ``unchanged``  otherwise.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent.parent


def load(paths: list[str]) -> dict[str, list[dict]]:
    """Records by workload, in the order the files were given."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in paths:
        for record in json.loads(Path(path).read_text()):
            runs[record["workload"]].append(record)
    return runs


def verdict(parent: list[float], change: list[float], better: str, bound: float, more_failures: bool) -> tuple[str, float]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    p1, p_median, p3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    if sign * (p_median - c_median) > bound * abs(p_median):
        return "regressed", wins
    gain = sign * (c_median - p_median)
    if wins >= 0.9 and gain > (p3 - p1) and not more_failures:
        return "improved", wins
    spread = (p3 - p1) / abs(p_median) if p_median else float("inf")
    clear = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if spread > bound and not clear:
        return "unresolved", wins
    return "unchanged", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    parents, changes = load(args.parent), load(args.change)
    header = f"{'workload':<12} {'metric':<11} {'parent median [Q1, Q3]':>36} {'change median [Q1, Q3]':>36} {'wins':>5}  verdict"
    print(header)
    regressed = False
    for workload in sorted(set(parents) & set(changes)):
        p_runs, c_runs = parents[workload], changes[workload]
        count = min(len(p_runs), len(c_runs))
        if count < len(p_runs) or count < len(c_runs):
            print(f"# {workload}: unequal run counts, using the first {count} pairs", file=sys.stderr)
        p_runs, c_runs = p_runs[:count], c_runs[:count]
        more_failures = sum(r["failed"] for r in c_runs) > sum(r["failed"] for r in p_runs)
        for metric in metrics:
            name = metric["name"]
            parent = [run["metrics"][name]["value"] for run in p_runs]
            change = [run["metrics"][name]["value"] for run in c_runs]
            result, wins = verdict(parent, change, metric["better"], metric["bound"], more_failures)
            regressed |= result == "regressed"
            cells = []
            for values in (parent, change):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:<12} {name:<11} {cells[0]:>36} {cells[1]:>36} {wins:>5.2f}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
