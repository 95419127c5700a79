"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.schema import Column, DataType, Schema
from repro.dataset.table import Table
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.paql.builder import query_over
from repro.workloads.recipes import recipes_table


@pytest.fixture
def small_numeric_table() -> Table:
    """A tiny all-numeric table with known values, used across many tests."""
    schema = Schema(
        [
            Column("a", DataType.FLOAT),
            Column("b", DataType.FLOAT),
            Column("c", DataType.INT),
        ]
    )
    return Table(
        schema,
        {
            "a": [1.0, 2.0, 3.0, 4.0, 5.0],
            "b": [10.0, 20.0, 30.0, 40.0, 50.0],
            "c": [1, 0, 1, 0, 1],
        },
        name="numbers",
    )


@pytest.fixture
def mixed_table() -> Table:
    """A table mixing numeric, string and nullable columns."""
    schema = Schema(
        [
            Column("name", DataType.STRING),
            Column("category", DataType.STRING, nullable=True),
            Column("value", DataType.FLOAT, nullable=True),
            Column("weight", DataType.FLOAT),
        ]
    )
    return Table(
        schema,
        {
            "name": ["alpha", "beta", "gamma", "delta"],
            "category": ["x", None, "y", "x"],
            "value": [1.5, 2.5, None, 4.0],
            "weight": [1.0, 2.0, 3.0, 4.0],
        },
        name="mixed",
    )


@pytest.fixture
def recipes() -> Table:
    """A deterministic recipes table (the paper's running example data)."""
    return recipes_table(num_rows=80, seed=7)


@pytest.fixture
def fast_solver() -> BranchAndBoundSolver:
    """A branch-and-bound solver with small limits, for unit tests."""
    return BranchAndBoundSolver(
        limits=SolverLimits(time_limit_seconds=20.0, node_limit=5_000, relative_gap=1e-6)
    )


def _assert_same_ilp(built, reference, rtol: float = 0.0) -> None:
    """Both models export the same matrix form (array for array when ``rtol`` is 0)."""
    form, expected = built.to_matrix(), reference.to_matrix()
    assert form.maximize == expected.maximize
    for name in ("c", "a_ub", "b_ub", "a_eq", "b_eq"):
        np.testing.assert_allclose(
            getattr(form, name), getattr(expected, name), rtol=rtol, atol=0.0, err_msg=name
        )
    np.testing.assert_array_equal(form.bounds, expected.bounds)
    np.testing.assert_array_equal(
        built.bound_and_integrality_arrays()[2], reference.bound_and_integrality_arrays()[2]
    )
    assert [c.name for c in built.constraints] == [c.name for c in reference.constraints]


@pytest.fixture
def assert_same_ilp():
    """Compare a translator-built model with a reference assembled per variable."""
    return _assert_same_ilp


def _refine_shaped_query(table: Table, relation: str, cardinality: int):
    """The benchmark's ``refine_20k`` shape over a Galaxy table: a COUNT
    equality and two two-sided SUM rows around the table's means, no
    repetition, so the package straddles many groups and refine has real
    ILPs to solve."""
    mean_z = float(np.mean(table.numeric_column("redshift")))
    mean_mag = float(np.mean(table.numeric_column("petroMag_r")))
    return (
        query_over(relation, name=f"refine_c{cardinality}")
        .no_repetition()
        .count_equals(cardinality)
        .sum_between("redshift", 0.7 * mean_z * cardinality, 1.3 * mean_z * cardinality)
        .sum_between("petroMag_r", 0.9 * mean_mag * cardinality, 1.1 * mean_mag * cardinality)
        .maximize_sum("petroFlux_r")
        .build()
    )


@pytest.fixture(scope="session")
def refine_shaped_query():
    """``(galaxy table, relation name, cardinality) -> PackageQuery``."""
    return _refine_shaped_query


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
