"""Plain-text rendering of experiment results.

The benchmark targets print their results in the same shape as the paper's
figures: one line per swept parameter value with the DIRECT and SKETCHREFINE
runtimes (or whatever series the experiment produces), plus the mean/median
approximation ratios reported under each plot in Figures 5–8.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.bench.results import MethodRun, QueryScalingResult


def render_table(rows: Sequence[dict], columns: Sequence[str] | None = None, title: str = "") -> str:
    """Render a list of dict rows as an aligned text table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    header = [str(c) for c in columns]
    body = [[_format_cell(row.get(c)) for c in columns] for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(header))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(result: QueryScalingResult, parameter: str) -> str:
    """Render one query's runtime series (the content of one sub-plot)."""
    rows = []
    values = sorted({run.parameters.get(parameter) for run in result.runs})
    for value in values:
        row: dict = {parameter: value}
        for method in ("direct", "sketchrefine", "naive"):
            matching = [
                run for run in result.runs
                if run.method == method and run.parameters.get(parameter) == value
            ]
            if not matching:
                continue
            run = matching[0]
            row[f"{method}_seconds"] = run.wall_seconds if run.succeeded else None
            if not run.succeeded:
                row[f"{method}_seconds"] = f"FAIL({run.failure_reason.split(':')[0]})"
        rows.append(row)
    table = render_table(rows, title=f"{result.dataset} {result.query_name}")
    mean_ratio = result.mean_approximation_ratio()
    median_ratio = result.median_approximation_ratio()
    footer = (
        f"approx ratio: mean={_format_ratio(mean_ratio)}, median={_format_ratio(median_ratio)}"
    )
    return f"{table}\n{footer}"


def summarize_speedups(results: Iterable[QueryScalingResult]) -> str:
    """One-line-per-query summary of SKETCHREFINE's speed-up over DIRECT."""
    rows = []
    for result in results:
        speedup = result.speedup()
        rows.append(
            {
                "query": result.query_name,
                "speedup": None if math.isnan(speedup) else round(speedup, 2),
                "mean_ratio": _format_ratio(result.mean_approximation_ratio()),
                "median_ratio": _format_ratio(result.median_approximation_ratio()),
            }
        )
    return render_table(rows, title="SKETCHREFINE vs DIRECT")


def _format_cell(value: object) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        if math.isnan(value):
            return "—"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def _format_ratio(value: float) -> str:
    if math.isnan(value):
        return "—"
    return f"{value:.2f}"
