#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Each input is a file that ``run.py --save`` appended one JSON line per
workload run to.  For every workload and end-to-end metric, the median
of set B is compared with the median of set A; a change worse than the
metric's ``bound`` (a share of A's median) is a breach, and so is any
failed request in B.  Prints the table and exits 1 on any breach::

    python3 benchmarks/e2e/run.py --seed 0 --save A.jsonl   # repeat for a set
    python3 benchmarks/e2e/run.py --seed 0 --save B.jsonl
    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: Path) -> tuple[dict[tuple[str, str], list[float]], dict[str, int]]:
    """Untraced runs of one set: values per (workload, metric), failures per workload."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    failures: dict[str, int] = defaultdict(int)
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"]:
            continue
        failures[record["workload"]] += record["failed"]
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    return values, failures


def compare(a_path: Path, b_path: Path) -> tuple[list[str], int]:
    """The table's lines and the number of breaches."""
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    a_values, _ = load(a_path)
    b_values, b_failures = load(b_path)
    workloads = sorted({workload for workload, _name in a_values} & {w for w, _ in b_values})
    lines = [
        f"{'workload':<17} {'metric':<20} {'median A':>11} {'median B':>11} "
        f"{'worse by':>9} {'bound':>6}  verdict"
    ]
    breaches = 0
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            a, b = a_values.get((workload, name)), b_values.get((workload, name))
            if not a or not b:
                lines.append(f"{workload:<17} {name:<20} missing in one set")
                breaches += 1
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            change = (median_b - median_a) / median_a
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok" if worse <= metric["bound"] else "BREACH"
            breaches += verdict != "ok"
            lines.append(
                f"{workload:<17} {name:<20} {median_a:>11.4f} {median_b:>11.4f} "
                f"{worse:>+9.1%} {metric['bound']:>6.2f}  {verdict} "
                f"({len(a)} vs {len(b)} runs)"
            )
        if b_failures[workload]:
            lines.append(f"{workload:<17} {b_failures[workload]} failed requests in B  BREACH")
            breaches += 1
    if not workloads:
        lines.append("no workload appears in both sets")
        breaches += 1
    return lines, breaches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline runs (run.py --save)")
    parser.add_argument("b", type=Path, help="runs to check against the baseline")
    args = parser.parse_args(argv)
    lines, breaches = compare(args.a, args.b)
    print("\n".join(lines))
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
