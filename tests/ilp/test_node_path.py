"""The branch-and-bound node path against the parent's code, bit for bit.

``reference_simplex.py`` keeps the parent's simplex node path and rounding
heuristic verbatim.  Every test here runs the code under test and the
reference on the same input and asserts the same outcome: for an LP the
status, the iteration and reinversion counts, the bytes of ``x`` and the
exported basis (and, where flips are the point, the sequence of pivots and
status writes); for the primal ratio test the ``(step, row, leaving status)``
triple; for the rounding heuristic the adopted incumbent.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ilp.lp_backend as lp_backend
from repro.core.sketchrefine import SketchRefineEvaluator
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.matrix_form import MatrixForm
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.simplex import (
    _PARTIAL_PRICING_THRESHOLD,
    _PIVOT_EPSILON,
    _RATIO_TIE_TOLERANCE,
    AT_LOWER,
    AT_UPPER,
    BASIC,
    SimplexBasis,
    SimplexStatus,
    _BoundedRevisedSimplex,
    _WorkMatrix,
    solve_form_simplex,
)
from repro.paql.builder import query_over
from repro.partition.quadtree import QuadTreePartitioner
from repro.workloads.galaxy import galaxy_table

from .reference_simplex import ReferenceSimplex, reference_rounding, reference_solve_form


def assert_same_lp(result, reference) -> None:
    assert result.status is reference.status
    assert result.iterations == reference.iterations
    assert result.refactorizations == reference.refactorizations
    assert result.warm_started == reference.warm_started
    assert result.x.tobytes() == reference.x.tobytes()
    assert repr(result.objective) == repr(reference.objective)
    assert (result.basis is None) == (reference.basis is None)
    if reference.basis is not None:
        assert np.array_equal(result.basis.basic, reference.basis.basic)
        assert np.array_equal(result.basis.status, reference.basis.status)


def box_form(rng, n, mu, me, upper) -> MatrixForm:
    """A small LP over ``[0, upper]`` boxes with integer data."""
    coefficient = lambda *shape: rng.integers(-5, 6, shape).astype(float)  # noqa: E731
    return MatrixForm(
        c=coefficient(n), a_ub=coefficient(mu, n), b_ub=rng.integers(-3, 11, mu).astype(float),
        a_eq=coefficient(me, n), b_eq=rng.integers(-3, 11, me).astype(float),
        bounds=(np.zeros(n), np.full(n, float(upper))), maximize=False,
    )


# -- the primal ratio test -----------------------------------------------------------

_RATES = np.array([
    0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 30.0, 1.0 + 5e-11, -(1.0 - 5e-11),
    _PIVOT_EPSILON, -_PIVOT_EPSILON, np.nextafter(_PIVOT_EPSILON, 1.0),
    -np.nextafter(_PIVOT_EPSILON, 1.0), 1e-11, np.inf, -np.inf, np.nan,
])
_VALUES = np.array([
    0.0, -0.0, 1.0, 0.5, 1.0 + 5e-11, 1.0 - 5e-11, 1.0 + 3 * _RATIO_TIE_TOLERANCE, 2.0,
    -1.0, 1e300, np.inf, -np.inf, np.nan,
])
_LOWERS = np.array([0.0, 0.0, -1.0, 0.5, -np.inf, np.nan])
_WIDTHS = np.array([1.0, 1.0, 2.0, 0.0, 1.0 + 5e-11, np.inf])


class TestPrimalRatioTest:
    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), bland=st.booleans())
    def test_same_step_row_and_leaving_status(self, seed, bland):
        """±inf and NaN in the column, the basic values and the bounds, zero
        and near-threshold rates, ties inside the tie tolerance."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        form = MatrixForm(
            c=np.zeros(3), a_ub=np.zeros((m, 3)), b_ub=np.zeros(m),
            a_eq=np.empty((0, 3)), b_eq=np.empty(0),
            bounds=(np.zeros(3), np.ones(3)), maximize=False,
        )
        solver = _BoundedRevisedSimplex(_WorkMatrix(form), np.zeros(3), np.ones(3))
        ncols = solver.ncols
        solver.lower = rng.choice(_LOWERS, ncols)
        solver.upper = np.where(np.isinf(solver.lower), rng.choice(_VALUES, ncols),
                                solver.lower + rng.choice(_WIDTHS, ncols))
        entering = int(rng.integers(ncols))
        others = np.delete(np.arange(ncols), entering)
        solver.basis = rng.permutation(others)[:m].astype(np.int64)
        solver.xb = rng.choice(_VALUES, m)
        solver._bland = bland
        w = rng.choice(_RATES, m)
        direction = int(rng.choice([-1, 1]))

        got = solver._primal_ratio_test(entering, direction, w)
        with np.errstate(all="ignore"):
            expected = ReferenceSimplex._primal_ratio_test(solver, entering, direction, w)
        assert got[1:] == expected[1:]
        if expected[0] is None:
            assert got[0] is None
        else:
            assert type(got[0]) is float
            assert np.float64(got[0]).tobytes() == np.float64(expected[0]).tobytes()


# -- warm finish, flips, install ------------------------------------------------------

def traced(solver) -> list:
    """Record every pivot and status write the solver makes."""
    log: list = []
    apply_pivot, set_status = solver._apply_pivot, solver._set_status

    def pivot(row, entering, w):
        log.append(("pivot", row, entering, w.tobytes()))
        return apply_pivot(row, entering, w)

    def status(j, value):
        log.append(("status", j, value))
        set_status(j, value)

    solver._apply_pivot, solver._set_status = pivot, status
    return log


def solve_both(form: MatrixForm, warm_start: SimplexBasis | None = None):
    """Solve ``form`` under test and under the reference: results and logs."""
    work = _WorkMatrix(form)
    solver = _BoundedRevisedSimplex(work, *form.bounds)
    reference = ReferenceSimplex(work, *form.bounds)
    logs = traced(solver), traced(reference)
    return solver.solve(warm_start), reference.solve(warm_start), logs


class TestWarmFinish:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_bounded_lps_and_their_warm_chains(self, seed):
        """A cold solve, then up to six children each warm-started from the
        last optimal basis, the way a branch-and-bound dive runs."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        form = box_form(rng, n, int(rng.integers(0, 4)), int(rng.integers(0, 3)),
                        rng.choice([1, 2, 5]))
        result, reference, logs = solve_both(form)
        assert_same_lp(result, reference)
        assert logs[0] == logs[1]
        lower, upper = (bound.copy() for bound in form.bounds)
        for _ in range(6):
            basis = result.basis
            if basis is None:
                break
            j = int(rng.integers(n))
            split = float(np.floor(result.x[j]))
            if rng.random() < 0.5:
                upper[j] = max(lower[j], split)
            else:
                lower[j] = min(upper[j], split + 1.0)
            child = form.with_bounds(lower.copy(), upper.copy())
            result, reference, logs = solve_both(child, basis)
            assert_same_lp(result, reference)
            assert logs[0] == logs[1]

    def test_the_primal_clean_up_pivots_when_the_pricing_finds_a_column(self):
        """Two columns tie within the dual ratio tolerance; the dual enters the
        one with the larger pivot, which leaves the other 1.8e-9 dual
        infeasible — past the pricing threshold, so the clean-up pivots, from
        the move vector the dual left."""
        form = MatrixForm(
            c=np.array([0.0, 20.0, 30.0 * (1.0 + 9e-11)]),
            a_ub=np.array([[-1.0, -20.0, -30.0]]), b_ub=np.array([-10.0]),
            a_eq=np.empty((0, 3)), b_eq=np.empty(0),
            bounds=(np.zeros(3), np.array([0.0, 1.0, 1.0])), maximize=False,
        )
        # x0 basic at 10 (feasible when its upper bound was 10); the child
        # fixes it at 0.
        status = np.full(5, AT_LOWER, dtype=np.int8)
        status[0] = BASIC
        warm = SimplexBasis(np.array([0]), status, num_structural=3, num_ub=1, num_eq=0)
        result, reference, logs = solve_both(form, warm)
        assert result.warm_started and result.status is SimplexStatus.OPTIMAL
        # One dual pivot, one primal pivot, one pricing that finds nothing.
        assert result.iterations == 3
        assert [entry[2] for entry in logs[0] if entry[0] == "pivot"] == [2, 1]
        assert_same_lp(result, reference)
        assert logs[0] == logs[1]
        assert result.x == pytest.approx([0.0, 0.5, 0.0])

    def test_a_nan_basic_value_takes_the_same_path(self):
        """Two nonbasic columns at upper bounds of 1e308 with opposite
        coefficients: ``b - A x_N`` is ``inf - inf``, so x_B is NaN when the
        dual starts, and every comparison on it must fail as it did."""
        form = MatrixForm(
            c=np.array([-1.0, -1.0, 1.0]),
            a_ub=np.array([[10.0, -10.0, 1.0], [1.0, 1.0, 1.0]]), b_ub=np.array([1.0, 5.0]),
            a_eq=np.empty((0, 3)), b_eq=np.empty(0),
            bounds=(np.zeros(3), np.array([1e308, 1e308, 1.0])), maximize=False,
        )
        status = np.array([AT_UPPER, AT_UPPER, AT_LOWER, BASIC, BASIC, AT_LOWER, AT_LOWER],
                          dtype=np.int8)
        warm = SimplexBasis(np.array([3, 4]), status, num_structural=3, num_ub=2, num_eq=0)
        with np.errstate(all="ignore"):
            solver = _BoundedRevisedSimplex(_WorkMatrix(form), *form.bounds)
            assert solver._try_install(warm)
            assert np.isnan(solver.xb).any()
            result, reference, logs = solve_both(form, warm)
        assert_same_lp(result, reference)
        assert logs[0] == logs[1]

    def test_galaxy_refine_chains(self, monkeypatch):
        """Every LP of a refine-shaped SKETCHREFINE query — the sketch, each
        refine group's root and each node warm-started from its parent —
        against the reference, from the same warm start."""
        calls = []

        def checked(form, warm_start=None):
            result = solve_form_simplex(form, warm_start)
            assert_same_lp(result, reference_solve_form(form, warm_start))
            calls.append(result.warm_started)
            return result

        monkeypatch.setattr(lp_backend, "solve_form_simplex", checked)
        table = galaxy_table(6_000, seed=42)
        partitioning = QuadTreePartitioner(size_threshold=150).partition(
            table, ["petroMag_r", "redshift", "petroFlux_r"]
        )
        mean_z = float(np.mean(table.numeric_column("redshift")))
        mean_mag = float(np.mean(table.numeric_column("petroMag_r")))
        for cardinality in (200, 500):
            query = (
                query_over(table.name)
                .no_repetition()
                .count_equals(cardinality)
                .sum_between("redshift", 0.7 * mean_z * cardinality, 1.3 * mean_z * cardinality)
                .sum_between("petroMag_r", 0.9 * mean_mag * cardinality,
                             1.1 * mean_mag * cardinality)
                .maximize_sum("petroFlux_r")
                .build()
            )
            SketchRefineEvaluator().evaluate(table, query, partitioning)
        assert sum(calls) >= 100


class TestFlips:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_count_constrained_01_lps_pivot_for_pivot(self, seed):
        """``sum x = k`` over 0/1 columns, a knapsack row and costs of both
        signs: most primal iterations are bound flips."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60))
        form = MatrixForm(
            c=rng.normal(size=n), a_ub=rng.random((1, n)), b_ub=np.array([0.4 * n]),
            a_eq=np.ones((1, n)), b_eq=np.array([float(rng.integers(1, n))]),
            bounds=(np.zeros(n), np.ones(n)), maximize=False,
        )
        result, reference, logs = solve_both(form)
        assert_same_lp(result, reference)
        assert logs[0] == logs[1]
        pivots = sum(entry[0] == "pivot" for entry in logs[0])
        assert len(logs[0]) - 2 * pivots > 0  # status writes beyond the pivots': flips

    def test_wide_lp_on_partial_pricing(self):
        """Past the partial-pricing threshold a flip does not reuse the sweep;
        the candidate list prices the next iteration, as it did."""
        rng = np.random.default_rng(7)
        n = _PARTIAL_PRICING_THRESHOLD + 200
        form = MatrixForm(
            c=rng.normal(size=n), a_ub=rng.random((1, n)), b_ub=np.array([0.3 * n]),
            a_eq=np.ones((1, n)), b_eq=np.array([0.4 * n]),
            bounds=(np.zeros(n), np.ones(n)), maximize=False,
        )
        result, reference, logs = solve_both(form)
        assert result.status is SimplexStatus.OPTIMAL
        assert_same_lp(result, reference)
        assert logs[0] == logs[1]

    def test_beale_cycling_lp_under_bland(self):
        """Degenerate pivots switch the primal to Bland's rule, which prices
        afresh every iteration."""
        form = MatrixForm(
            c=np.array([-0.75, 150.0, -0.02, 6.0]),
            a_ub=np.array([
                [0.25, -60.0, -1.0 / 25.0, 9.0],
                [0.5, -90.0, -1.0 / 50.0, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ]),
            b_ub=np.array([0.0, 0.0, 1.0]), a_eq=np.empty((0, 4)), b_eq=np.empty(0),
            bounds=(np.zeros(4), np.full(4, np.inf)), maximize=False,
        )
        result, reference, logs = solve_both(form)
        assert result.status is SimplexStatus.OPTIMAL
        assert_same_lp(result, reference)
        assert logs[0] == logs[1]


class TestInstall:
    @pytest.mark.parametrize("marked", [[6, 7], [6]], ids=["two-marks", "one-mark"])
    def test_a_duplicate_basic_index_falls_back_cold(self, marked, monkeypatch):
        """``basic`` lists column 6 twice: beside two BASIC marks, and beside
        the one mark that matches the listed set.  Validation rejects it before
        any inverse is built."""
        rng = np.random.default_rng(3)
        form = box_form(rng, 6, 2, 0, 1)
        status = np.full(6 + 2 + 2, AT_LOWER, dtype=np.int8)
        status[marked] = BASIC
        duplicate = SimplexBasis(np.array([6, 6]), status, num_structural=6, num_ub=2, num_eq=0)
        with monkeypatch.context() as patch:
            patch.setattr(_BoundedRevisedSimplex, "_refactorize", None)
            assert not _BoundedRevisedSimplex(_WorkMatrix(form), *form.bounds)._try_install(
                duplicate
            )
        result, reference, _ = solve_both(form, duplicate)
        assert not result.warm_started
        assert_same_lp(result, reference)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_corrupted_bases_are_judged_the_same(self, seed):
        """An optimal basis with its list or statuses perturbed: duplicate and
        swapped indices, extra or missing BASIC marks, FREE and out-of-range
        statuses, infinite bounds to re-anchor against."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        form = box_form(rng, n, int(rng.integers(1, 4)), int(rng.integers(0, 2)), 1)
        basis = solve_form_simplex(form).basis
        if basis is None:
            return
        basic, status = basis.basic.copy(), basis.status.copy()
        for _ in range(int(rng.integers(0, 3))):
            kind = int(rng.integers(5))
            if kind == 0 and len(basic) > 1:
                basic[int(rng.integers(1, len(basic)))] = basic[0]
            elif kind == 1:
                basic[int(rng.integers(len(basic)))] = int(rng.integers(len(status)))
            else:
                status[int(rng.integers(len(status)))] = rng.choice([BASIC, AT_UPPER, 3, 7])
        lower, upper = (bound.copy() for bound in form.bounds)
        relaxed = rng.random(n) < 0.3
        lower[relaxed & (rng.random(n) < 0.5)] = -np.inf
        upper[relaxed] = np.inf
        child = form.with_bounds(lower, upper)
        warm = SimplexBasis(basic, status, n, basis.num_ub, basis.num_eq)

        solver = _BoundedRevisedSimplex(_WorkMatrix(child), *child.bounds)
        reference = ReferenceSimplex(_WorkMatrix(child), *child.bounds)
        accepted = solver._try_install(warm)
        assert accepted == reference._try_install(warm)
        if accepted:
            assert np.array_equal(solver.status, reference.status)
            assert np.array_equal(solver.move, reference.move)
            assert solver.xb.tobytes() == reference.xb.tobytes()
        result, expected, logs = solve_both(child, warm)
        assert_same_lp(result, expected)
        assert logs[0] == logs[1]


# -- the rounding heuristic ------------------------------------------------------------

def _rounding_model(rng) -> IlpModel:
    model = IlpModel()
    n = int(rng.integers(2, 7))
    for i in range(n):
        model.add_variable(f"x{i}", 0, float(rng.choice([1, 3])), is_integer=bool(rng.random() < 0.8))
    for _ in range(int(rng.integers(1, 4))):
        sense = rng.choice([ConstraintSense.LE, ConstraintSense.GE, ConstraintSense.EQ])
        model.add_constraint(
            {i: float(rng.integers(-3, 4)) for i in range(n)}, sense, float(rng.integers(0, 5))
        )
    sense = rng.choice([ObjectiveSense.MINIMIZE, ObjectiveSense.MAXIMIZE])
    model.set_objective(sense, {i: float(rng.integers(-4, 5)) for i in range(n)})
    return model


class TestRoundingHeuristic:
    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_the_same_incumbent_is_adopted(self, seed):
        rng = np.random.default_rng(seed)
        model = _rounding_model(rng)
        lower, upper, integer = model.bound_and_integrality_arrays()
        relaxation = rng.random(model.num_variables) * upper
        incumbent_value = None if rng.random() < 0.3 else float(rng.integers(-8, 9))
        args = (model, relaxation, integer, lower, upper, incumbent_value)
        got, expected = BranchAndBoundSolver._rounding_heuristic(*args), reference_rounding(*args)
        assert (got is None) == (expected is None)
        if expected is not None:
            assert got[0].tobytes() == expected[0].tobytes()
            assert repr(got[1]) == repr(expected[1])

    def test_a_first_feasible_point_that_does_not_improve_ends_the_heuristic(self):
        """Minimise ``x0 + x1`` over ``x0 + x1 <= 5`` from (0.6, 0.6) against
        an incumbent of 1.5: the nearest rounding (1, 1) is feasible at 2 and
        does not improve; the floor (0, 0) would, but is never tried."""
        model = IlpModel()
        model.add_variable("x0", 0, 1)
        model.add_variable("x1", 0, 1)
        model.add_constraint({0: 1.0, 1: 1.0}, ConstraintSense.LE, 5)
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0, 1: 1.0})
        lower, upper, integer = model.bound_and_integrality_arrays()
        args = (model, np.array([0.6, 0.6]), integer, lower, upper, 1.5)
        assert model.check_feasible(np.zeros(2)) and model.objective_value(np.zeros(2)) < 1.5
        assert reference_rounding(*args) is None
        assert BranchAndBoundSolver._rounding_heuristic(*args) is None
        adopted = BranchAndBoundSolver._rounding_heuristic(*args[:-1], 2.5)
        assert adopted is not None and adopted[1] == 2.0
