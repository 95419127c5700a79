#!/usr/bin/env python3
"""Compare two results files of ``run.py``.

    python3 benchmarks/e2e/compare.py A.json B.json   # A is the parent, B the change

One row per (end-to-end metric, workload).  Medians are taken over the runs of
a file (``run.py --repeat 10`` writes ten); spread is the distance between the
first and third quartile as a share of the median.  With the bound ``b`` that
``BENCHMARK.json`` fixes for the metric:

* ``unresolved`` — a side is missing, has fewer than four runs, or its spread
  exceeds ``b``: the data cannot tell a change of size ``b`` from noise;
* ``regressed`` / ``improved`` — B's median is worse / better than A's by more
  than ``b`` of A's median;
* ``unchanged`` — otherwise.

A run that is not ``correct`` or has a failed op is listed and fails the
comparison, whatever its timings say.  Exit code 1 on any such run or any
``regressed`` row.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str) -> tuple[dict[tuple[str, str], list[float]], list[str]]:
    """End-to-end values per (metric, workload), and the runs that failed."""
    values: dict[tuple[str, str], list[float]] = {}
    failed = []
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["correct"] or run["failed"]:
            failed.append(
                f"{path}: {run['workload']} seed {run['seed']}: {run['failed']} of "
                f"{run['attempted']} ops failed, correct={run['correct']}"
            )
        if run["trace"]:
            continue
        for metric, cell in run["metrics"].items():
            values.setdefault((metric, run["workload"]), []).append(cell["value"])
    return values, failed


def spread(values: list[float]) -> float | None:
    if len(values) < 4:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], bound: float, lower_is_better: bool) -> tuple[str, float]:
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse = (median_b - median_a) / abs(median_a)
    if not lower_is_better:
        worse = -worse
    spreads = (spread(a), spread(b))
    if None in spreads or max(spreads) > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    contract = json.loads(BENCHMARK_JSON.read_text())
    (a, failed_a), (b, failed_b) = load_runs(argv[0]), load_runs(argv[1])
    regressed = 0
    fmt = "{:<22} {:<20} {:>12} {:>12} {:>9} {:>9} {:>9} {:>8}  {}"
    print(fmt.format("metric", "workload", "median A", "median B", "worse by", "spread A", "spread B", "bound", "verdict"))
    for metric in contract["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in (w["name"] for w in contract["workloads"]):
            values_a, values_b = a.get((name, workload)), b.get((name, workload))
            if not values_a or not values_b:
                print(fmt.format(name, workload, "-", "-", "-", "-", "-", bound, "unresolved (missing)"))
                continue
            outcome, worse = verdict(values_a, values_b, bound, metric["better"] == "lower")
            shown = ["n<4" if s is None else f"{s:.4f}" for s in (spread(values_a), spread(values_b))]
            print(fmt.format(
                name, workload, f"{statistics.median(values_a):.6g}",
                f"{statistics.median(values_b):.6g}", f"{worse:+.5f}", *shown, bound, outcome,
            ))
            regressed += outcome == "regressed"
    for line in failed_a + failed_b:
        print(f"FAILED RUN  {line}")
    return 1 if regressed or failed_a or failed_b else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
