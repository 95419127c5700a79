"""Seeded differential fuzzing of the simplex against the HiGHS oracle.

The revised simplex is the only LP solver in the library, so its answers are
held against ``scipy.optimize.linprog`` on the instance shapes that break
simplex codes: tie-heavy small-integer data, duplicated columns, PaQL-shaped
rows (a COUNT row plus positive SUM rows over 0/1 and REPEAT bounds),
ill-scaled rows and near-infeasible slivers.  Every instance has 1-7 rows and
up to 200 columns and is a pure function of ``(family, seed)``.  Two wide
families of the PaQL shape have 4 096 columns or more: a boxed one, which
starts dual from the slack basis, and one with unbounded maximised columns,
which the slack start refuses, so its primal pivots over full pricing
sweeps.

The contract: the simplex either agrees with the oracle on status and on the
objective to 1e-6 relative, or returns the typed ``NUMERICAL_ERROR`` — never
a wrong answer.  Where the two disagree on a status the oracle is asked again
with HiGHS presolve off (HiGHS presolve has been seen to call a feasible
ill-scaled instance infeasible).  The number of ``NUMERICAL_ERROR`` seeds per family is
pinned as a ceiling, so a numerically weaker simplex shows up here.

Those instances are cold solves.  The warm-chain family holds the path a
branch-and-bound tree takes to the same contract: one instance re-solved 200
times in a row, each solve warm-started from the basis — and the basis inverse,
with every rank-one update folded into it so far — that the last one exported.

Every optimal solve also exports its reduced costs, which branch-and-bound
fixes columns from: they must equal ``c - Aᵀy`` recomputed with numpy from
the exported basis, with the sign dual feasibility requires at each column's
bound — on the families, along the warm chains, and on wide instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp.matrix_form import MatrixForm
from repro.ilp.simplex import (
    _EPSILON,
    AT_LOWER,
    AT_UPPER,
    BASIC,
    SimplexStatus,
    _WorkMatrix,
    solve_dense_simplex,
)

from .oracle import oracle_lp

SEEDS_PER_FAMILY = 420
OBJECTIVE_TOLERANCE = 1e-6
WARM_CHAIN_SEEDS = 24
WARM_CHAIN_STEPS = 200


def _shape(rng: np.random.Generator) -> tuple[int, int]:
    return int(rng.integers(1, 8)), int(rng.integers(2, 201))


def _split_rows(rng, matrix, rhs):
    """Make the last row an equality on about a third of the instances."""
    if matrix.shape[0] > 1 and rng.random() < 0.33:
        return matrix[:-1], rhs[:-1], matrix[-1:], rhs[-1:]
    return matrix, rhs, np.empty((0, matrix.shape[1])), np.empty(0)


def tie_heavy(rng):
    """Small-integer data everywhere: ties in pricing and in the ratio test.
    Three instances in ten free one column's upper bound, so some are unbounded."""
    m, n = _shape(rng)
    matrix = rng.integers(-3, 4, size=(m, n)).astype(float)
    upper = rng.integers(1, 4, size=n).astype(float)
    anchor = np.floor(rng.random(n) * (upper + 1.0))
    rhs = matrix @ anchor + rng.integers(-1, 3, size=m)
    c = rng.integers(-2, 3, size=n).astype(float)
    if rng.random() < 0.3:
        upper[rng.integers(n)] = np.inf
    return (c, *_split_rows(rng, matrix, rhs), (np.zeros(n), upper))


def duplicated_columns(rng):
    """A few distinct columns, each repeated: alternative optima abound."""
    m, n = _shape(rng)
    distinct = int(rng.integers(1, max(2, n // 4) + 1))
    source = rng.integers(0, distinct, size=n)
    matrix = rng.integers(-4, 5, size=(m, distinct)).astype(float)[:, source]
    c = rng.integers(-5, 6, size=distinct).astype(float)[source]
    upper = rng.integers(1, 3, size=n).astype(float)
    rhs = matrix @ (upper * rng.random(n)) + rng.random(m)
    return (c, *_split_rows(rng, matrix, rhs), (np.zeros(n), upper))


def paql_shaped(rng):
    """A COUNT row plus positive SUM rows; 0/1 or REPEAT bounds."""
    m, n = _shape(rng)
    count = float(rng.integers(1, max(2, n // 2) + 1))
    weights = rng.lognormal(0.0, 1.0, size=(m - 1, n)).round(3)
    budgets = np.median(weights, axis=1) * count * rng.uniform(0.5, 2.0, size=m - 1)
    signs = rng.choice([-1.0, 1.0], size=m - 1)  # SUM <= budget or SUM >= budget
    a_ub, b_ub = weights * signs[:, None], budgets * signs
    ones = np.ones((1, n))
    if rng.random() < 0.5:
        a_eq, b_eq = ones, np.array([count])
    else:
        a_ub, b_ub = np.vstack([a_ub, ones]), np.append(b_ub, count)
        a_eq, b_eq = np.empty((0, n)), np.empty(0)
    upper = np.full(n, float(rng.choice([1, 1, 2, 3])))
    c = rng.normal(0.0, 1.0, size=n).round(3)
    return c, a_ub, b_ub, a_eq, b_eq, (np.zeros(n), upper)


def ill_scaled(rng):
    """Rows through or just past an interior point (half of them tight), each
    multiplied by a factor between 1e-4 and 1e4."""
    m, n = _shape(rng)
    matrix = rng.uniform(-1.0, 2.0, size=(m, n))
    upper = rng.uniform(1.0, 10.0, size=n)
    rhs = matrix @ (upper * rng.random(n)) + rng.random(m) * (rng.random(m) >= 0.5)
    scale = 10.0 ** rng.uniform(-4.0, 4.0, size=m)
    c = rng.uniform(-5.0, 5.0, size=n)
    return (c, *_split_rows(rng, matrix * scale[:, None], rhs * scale), (np.zeros(n), upper))


def near_infeasible(rng):
    """Every row tight at an integer anchor, and one row pinched from the
    other side: by nothing (a feasible sliver) or past it by a 1e-3 margin
    (infeasible, but only just)."""
    m, n = _shape(rng)
    matrix = rng.integers(-5, 6, size=(m, n)).astype(float)
    upper = rng.integers(1, 4, size=n).astype(float)
    anchor = np.floor(rng.random(n) * (upper + 1.0))
    rhs = matrix @ anchor
    pinched = int(rng.integers(m))
    margin = 0.0 if rng.random() < 0.5 else 1e-3 * (1.0 + abs(rhs[pinched]))
    a_ub = np.vstack([matrix, -matrix[pinched]])
    b_ub = np.append(rhs, -rhs[pinched] - margin)
    c = rng.integers(-3, 4, size=n).astype(float)
    return c, a_ub, b_ub, np.empty((0, n)), np.empty(0), (np.zeros(n), upper)


FAMILIES = {
    "tie_heavy": tie_heavy,
    "duplicated_columns": duplicated_columns,
    "paql_shaped": paql_shaped,
    "ill_scaled": ill_scaled,
    "near_infeasible": near_infeasible,
}


#: Columns of the narrowest wide instance.
WIDE_COLUMNS = 4_096


def wide_boxed(rng):
    """:func:`paql_shaped` at :data:`WIDE_COLUMNS` columns or more, each
    column boxed in ``[0, 1..3]``: the long dual steps flip thousands of
    columns."""
    m = int(rng.integers(1, 8))
    n = WIDE_COLUMNS + int(rng.integers(0, 2_000))
    count = float(rng.integers(1, n // 4))
    weights = rng.lognormal(0.0, 1.0, size=(m - 1, n)).round(3)
    budgets = np.median(weights, axis=1) * count * rng.uniform(0.5, 2.0, size=m - 1)
    signs = rng.choice([-1.0, 1.0], size=m - 1)
    a_ub, b_ub = weights * signs[:, None], budgets * signs
    a_eq, b_eq = np.ones((1, n)), np.array([count])
    if rng.random() < 0.5:
        a_ub, b_ub = np.vstack([a_ub, a_eq]), np.append(b_ub, count)
        a_eq, b_eq = np.empty((0, n)), np.empty(0)
    upper = rng.integers(1, 4, size=n).astype(float)
    c = rng.normal(0.0, 1.0, size=n).round(3)
    return c, a_ub, b_ub, a_eq, b_eq, (np.zeros(n), upper)


def wide_unboxed(rng):
    """:func:`wide_boxed`'s shape over nonnegative rows, with about one
    column in twenty unbounded above, column 0 among them at a negative cost:
    a maximised column with no upper bound, so the slack start is refused and
    the solve goes two-phase, its primal pricing full sweeps of thousands of
    columns.  The COUNT row keeps the optimum finite."""
    m = int(rng.integers(2, 8))
    n = WIDE_COLUMNS + int(rng.integers(0, 2_000))
    count = float(rng.integers(1, n // 4))
    a_ub = rng.lognormal(0.0, 1.0, size=(m - 1, n)).round(3)
    b_ub = np.median(a_ub, axis=1) * count * rng.uniform(0.5, 2.0, size=m - 1)
    a_eq, b_eq = np.ones((1, n)), np.array([count])
    if rng.random() < 0.5:
        a_ub, b_ub = np.vstack([a_ub, a_eq]), np.append(b_ub, count)
        a_eq, b_eq = np.empty((0, n)), np.empty(0)
    upper = rng.integers(1, 4, size=n).astype(float)
    unbounded = rng.random(n) < 0.05
    unbounded[0] = True
    upper[unbounded] = np.inf
    c = rng.normal(0.0, 1.0, size=n).round(3)
    c[0] = -abs(c[0]) - 0.5
    return c, a_ub, b_ub, a_eq, b_eq, (np.zeros(n), upper)


#: Wide instances are a few milliseconds each; fewer seeds than the families.
WIDE_SEEDS = 40
WIDE_TWO_PHASE_SEEDS = 12

#: NUMERICAL_ERROR seeds allowed per family, and steps per warm chain: the count
#: measured at this commit (none anywhere; harsher scalings of the same
#: generators reach 2 in 1 500 cold solves).
NUMERICAL_ERROR_CEILING = 0


def _disagreement(result, reference) -> str | None:
    if result.status.value != reference.status:
        return f"simplex {result.status.value}, oracle {reference.status}"
    if reference.status == "optimal":
        error = abs(result.objective - reference.objective)
        if error > OBJECTIVE_TOLERANCE * max(1.0, abs(reference.objective)):
            return f"simplex objective {result.objective!r}, oracle {reference.objective!r}"
    return None


def _oracle_disagreement(result, rows, bounds) -> str | None:
    reference = oracle_lp(*rows, bounds)
    if result.status.value != reference.status:
        reference = oracle_lp(*rows, bounds, presolve=False)
    return _disagreement(result, reference)


def assert_reduced_costs_of_the_basis(rows, lower, upper, result) -> None:
    """``result.reduced_costs`` is ``c - Aᵀy`` with ``y`` solved from the
    exported basis, and dual feasible at every column's bound."""
    c, a_ub, b_ub, a_eq, b_eq = rows
    work = _WorkMatrix(MatrixForm(c, a_ub, b_ub, a_eq, b_eq, (lower, upper), maximize=False))
    basic = result.basis.basic
    y = np.linalg.solve(work.a[:, basic].T, work.costs[basic])
    expected = (work.costs - y @ work.a)[: work.n]
    d = result.reduced_costs
    assert d.shape == (work.n,)
    scale = max(1.0, float(np.abs(c).max()), float(np.abs(y).max() * np.abs(work.a).max()))
    np.testing.assert_allclose(d, expected, rtol=0.0, atol=1e-7 * scale)
    status = result.basis.status[: work.n]
    movable = lower < upper
    assert (np.abs(d[status == BASIC]) <= 1e-7 * scale).all()
    assert (d[(status == AT_LOWER) & movable] >= -_EPSILON).all()
    assert (d[(status == AT_UPPER) & movable] <= _EPSILON).all()


@pytest.mark.parametrize("family", list(FAMILIES))
def test_exported_reduced_costs_are_the_final_basis_duals(family):
    optimal = 0
    for seed in range(SEEDS_PER_FAMILY):
        *rows, (lower, upper) = FAMILIES[family](np.random.default_rng(seed))
        result = solve_dense_simplex(*rows, np.column_stack([lower, upper]))
        if result.status is not SimplexStatus.OPTIMAL:
            assert result.reduced_costs is None
            continue
        assert_reduced_costs_of_the_basis(rows, lower, upper, result)
        optimal += 1
    assert optimal > SEEDS_PER_FAMILY // 10


@pytest.mark.parametrize("seed", range(3))
def test_exported_reduced_costs_on_wide_lps(seed):
    """A PaQL-shaped instance of thousands of columns."""
    rng = np.random.default_rng(seed)
    n = WIDE_COLUMNS + 1_000
    weights = rng.lognormal(0.0, 1.0, size=(2, n)).round(3)
    count = 40.0
    a_ub = np.vstack([weights, -weights[:1]])
    b_ub = np.array([1.1, 1.5, -0.6]) * np.median(weights, axis=1)[[0, 1, 0]] * count
    rows = (rng.normal(0.0, 1.0, size=n).round(3), a_ub, b_ub, np.ones((1, n)), np.array([count]))
    lower, upper = np.zeros(n), np.ones(n)
    result = solve_dense_simplex(*rows, np.column_stack([lower, upper]))
    assert result.status is SimplexStatus.OPTIMAL
    assert_reduced_costs_of_the_basis(rows, lower, upper, result)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_simplex_matches_the_oracle_or_says_numerical_error(family):
    generate = FAMILIES[family]
    numerical_errors, wrong = [], []
    for seed in range(SEEDS_PER_FAMILY):
        *rows, (lower, upper) = generate(np.random.default_rng(seed))
        bounds = np.column_stack([lower, upper])
        result = solve_dense_simplex(*rows, bounds)
        if result.status is SimplexStatus.NUMERICAL_ERROR:
            numerical_errors.append(seed)
            continue
        mismatch = _oracle_disagreement(result, rows, bounds)
        if mismatch is not None:
            wrong.append(f"{family} seed {seed}: {mismatch}")
    assert not wrong, "\n".join(wrong)
    assert len(numerical_errors) <= NUMERICAL_ERROR_CEILING, (
        f"{family} NUMERICAL_ERROR seeds: {numerical_errors}"
    )


def test_wide_boxed_lps_match_the_oracle():
    numerical_errors, wrong = [], []
    for seed in range(WIDE_SEEDS):
        *rows, (lower, upper) = wide_boxed(np.random.default_rng(seed))
        bounds = np.column_stack([lower, upper])
        result = solve_dense_simplex(*rows, bounds)
        if result.status is SimplexStatus.NUMERICAL_ERROR:
            numerical_errors.append(seed)
            continue
        mismatch = _oracle_disagreement(result, rows, bounds)
        if mismatch is not None:
            wrong.append(f"wide_boxed seed {seed}: {mismatch}")
        elif result.status is SimplexStatus.OPTIMAL:
            assert not result.two_phase
            assert_reduced_costs_of_the_basis(rows, lower, upper, result)
    assert not wrong, "\n".join(wrong)
    assert len(numerical_errors) <= NUMERICAL_ERROR_CEILING, (
        f"wide_boxed NUMERICAL_ERROR seeds: {numerical_errors}"
    )


def test_wide_two_phase_lps_match_the_oracle():
    optimal, numerical_errors, wrong = 0, [], []
    for seed in range(WIDE_TWO_PHASE_SEEDS):
        *rows, (lower, upper) = wide_unboxed(np.random.default_rng(seed))
        bounds = np.column_stack([lower, upper])
        result = solve_dense_simplex(*rows, bounds)
        if result.status is SimplexStatus.NUMERICAL_ERROR:
            numerical_errors.append(seed)
            continue
        assert result.two_phase and result.iterations > 1, seed
        mismatch = _oracle_disagreement(result, rows, bounds)
        if mismatch is not None:
            wrong.append(f"wide_unboxed seed {seed}: {mismatch}")
        elif result.status is SimplexStatus.OPTIMAL:
            assert_reduced_costs_of_the_basis(rows, lower, upper, result)
            optimal += 1
    assert not wrong, "\n".join(wrong)
    # Every seed is feasible and bounded, so each one ran the primal to the end.
    assert optimal == WIDE_TWO_PHASE_SEEDS - len(numerical_errors)
    assert len(numerical_errors) <= NUMERICAL_ERROR_CEILING, (
        f"wide_unboxed NUMERICAL_ERROR seeds: {numerical_errors}"
    )


def _branchable(x, lower, upper) -> np.ndarray:
    """Columns a branch-and-bound node could branch on: fractional and strictly
    inside their bounds, hence basic — tightening one forces a dual pivot."""
    fractional = np.abs(x - np.rint(x)) > 1e-6
    return np.nonzero(fractional & (x > lower + 1e-6) & (x < upper - 1e-6))[0]


@pytest.mark.parametrize("seed", range(WARM_CHAIN_SEEDS))
def test_warm_chain_matches_the_oracle_at_every_step(seed):
    """A dive with backtracking: tighten one column to the floor or ceiling of
    the last optimum, or give earlier tightenings back, and re-solve from the
    last exported basis.  An infeasible step exports none, so the chain carries
    on from the one before, as a sibling node does."""
    rng = np.random.default_rng(seed)
    generate = (paql_shaped, ill_scaled)[seed % 2]
    while True:  # the first instance of this stream with something to branch on
        *rows, (lower, upper) = generate(rng)
        result = solve_dense_simplex(*rows, np.column_stack([lower, upper]))
        if result.status is SimplexStatus.OPTIMAL and len(_branchable(result.x, lower, upper)):
            break
    basis, x = result.basis, result.x
    refactorizations = result.refactorizations
    trail: list[tuple[int, float, float]] = []
    warm_started, numerical_errors, wrong = 0, [], []
    for step in range(WARM_CHAIN_STEPS):
        candidates = _branchable(x, lower, upper) if x is not None else ()
        if len(candidates) and (not trail or rng.random() < 0.7):
            j = int(rng.choice(candidates))
            trail.append((j, lower[j], upper[j]))
            if np.ceil(x[j]) > upper[j] or rng.random() < 0.5:  # no up-branch past a bound
                upper[j] = np.floor(x[j])
            else:
                lower[j] = np.ceil(x[j])
        else:
            for _ in range(min(len(trail), int(rng.integers(1, 4)))):
                j, lower[j], upper[j] = trail.pop()
        bounds = np.column_stack([lower, upper])
        result = solve_dense_simplex(*rows, bounds, warm_start=basis)
        refactorizations += result.refactorizations
        warm_started += result.warm_started
        x = None
        if result.status is SimplexStatus.NUMERICAL_ERROR:
            numerical_errors.append(step)
            continue
        mismatch = _oracle_disagreement(result, rows, bounds)
        if mismatch is not None:
            wrong.append(f"seed {seed} step {step}: {mismatch}")
        if result.status is SimplexStatus.OPTIMAL:
            assert_reduced_costs_of_the_basis(rows, lower, upper, result)
            basis, x = result.basis, result.x
    assert not wrong, "\n".join(wrong)
    assert len(numerical_errors) <= NUMERICAL_ERROR_CEILING, (
        f"seed {seed} NUMERICAL_ERROR steps: {numerical_errors}"
    )
    # The chain must be what it claims: warm, and long enough that the update
    # count it hands from solve to solve crossed the reinversion interval.
    assert warm_started >= 0.9 * WARM_CHAIN_STEPS
    assert refactorizations >= 3
