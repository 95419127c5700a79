"""Shared configuration for the benchmark suite.

Every benchmark regenerates one artefact (figure or table) of the paper's
evaluation section at laptop scale.  The shared :class:`BenchmarkConfig`
keeps the dataset sizes small enough for the whole suite to run in minutes
while preserving the shapes the paper reports; EXPERIMENTS.md documents the
full-scale settings and results.

Set the environment variable ``REPRO_BENCH_SCALE`` to a float (default 1.0)
to scale the dataset sizes up or down, e.g.::

    REPRO_BENCH_SCALE=4 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import BenchmarkConfig


def _scale() -> float:
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


@pytest.fixture(scope="session")
def bench_config() -> BenchmarkConfig:
    """Benchmark configuration shared by every experiment driver."""
    scale = _scale()
    return BenchmarkConfig(
        galaxy_rows=max(200, int(3200 * scale)),
        tpch_rows=max(200, int(1000 * scale)),
        seed=42,
        solver_time_limit=30.0,
        solver_node_limit=3_000,
        solver_relative_gap=1e-3,
        fractions=(0.10, 0.40, 0.70, 1.00),
    )


@pytest.fixture(scope="session")
def quick_config() -> BenchmarkConfig:
    """Smaller configuration for the heavier sweep experiments."""
    scale = _scale()
    return BenchmarkConfig(
        galaxy_rows=max(150, int(500 * scale)),
        tpch_rows=max(150, int(600 * scale)),
        seed=42,
        solver_time_limit=20.0,
        solver_node_limit=2_000,
        solver_relative_gap=1e-3,
        fractions=(0.25, 1.00),
    )
