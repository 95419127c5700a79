"""Tests for the presolve/postsolve reductions on MatrixForm.

The key invariant: without an integrality mask the reduction preserves the LP
feasible region exactly, and with one it preserves the ILP optimum — so a
presolved solve must agree with a cold solve on status, objective and (for
the property tests) the restored assignment's feasibility.

Branch-and-bound's root call is the only presolve entry point in the library;
the LP-level parity tests here compose ``presolve_form`` + ``solve_lp_form`` +
``Postsolve.restore`` themselves (:func:`solve_presolved`).
:class:`TestRootCertificate` pins where the root certificate answers for the
first pass on Galaxy models.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import PackageQueryEngine
from repro.core.translator import translate_query
from repro.ilp import branch_and_bound
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.lp_backend import LpResult, solve_lp_form
from repro.ilp.matrix_form import MatrixForm
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.presolve import presolve_form
from repro.ilp.status import SolverStatus
from repro.workloads.galaxy import galaxy_table, galaxy_workload

from .oracle import oracle_form_lp, oracle_ilp
from .test_bind_gate import certified


def solve_presolved(form: MatrixForm) -> LpResult:
    """Reduce ``form`` (no integrality), solve the reduction, map it back."""
    reduction = presolve_form(form)
    if not reduction.feasible:
        return LpResult(SolverStatus.INFEASIBLE, np.empty(0), float("nan"))
    postsolve = reduction.postsolve
    if postsolve.num_reduced_vars == 0:
        values = postsolve.restore(np.empty(0))
        objective = form.objective_from_min(float(form.c @ values))
        return LpResult(SolverStatus.OPTIMAL, values, objective)
    result = solve_lp_form(reduction.form)
    if not result.status.has_solution:
        return result
    return LpResult(
        result.status,
        postsolve.restore(result.values),
        result.objective_value + postsolve.objective_offset,
    )


def budget_model(is_integer: bool = True) -> IlpModel:
    """0/1 knapsack where x0 and x5 can never fit and x4 is excluded."""
    model = IlpModel()
    for i in range(6):
        model.add_variable(f"x{i}", 0, 1, is_integer=is_integer)
    model.add_constraint(
        {0: 5.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 20.0},
        ConstraintSense.LE, 4.0, name="budget",
    )
    model.add_constraint({4: 1.0}, ConstraintSense.LE, 0.0, name="exclude")
    model.set_objective(ObjectiveSense.MAXIMIZE, {i: float(i + 1) for i in range(6)})
    return model


def integer_mask(model: IlpModel) -> np.ndarray:
    return model.bound_and_integrality_arrays()[2]


class TestReductions:
    def test_integrality_fixes_overweight_columns(self):
        model = budget_model()
        result = presolve_form(model.to_matrix(), integer_mask=integer_mask(model))
        assert result.feasible
        # x0 (5 > 4), x5 (20 > 4) and the excluded x4 can never enter.
        assert result.stats.vars_fixed == 3
        assert result.postsolve.kept_cols.tolist() == [1, 2, 3]
        assert result.postsolve.fixed_values[[0, 4, 5]].tolist() == [0.0, 0.0, 0.0]
        # After fixing, the budget row can never bind and the singleton
        # exclude row was absorbed into x4's bound: both rows removed.
        assert result.stats.rows_removed == 2
        assert result.form.a_ub.shape[0] == 0

    def test_lp_presolve_never_rounds(self):
        model = budget_model()
        result = presolve_form(model.to_matrix())  # no integer mask
        assert result.feasible
        # Only the genuinely-forced x4 fixes; x0/x5 keep fractional headroom.
        assert result.stats.vars_fixed == 1
        assert 0 in result.postsolve.kept_cols
        assert 5 in result.postsolve.kept_cols

    def test_singleton_row_becomes_bound(self):
        model = IlpModel()
        model.add_variable("x", 0, 10, is_integer=False)
        model.add_variable("y", 0, 10, is_integer=False)
        model.add_constraint({0: 2.0}, ConstraintSense.LE, 6.0, name="single")
        model.add_constraint({0: 1.0, 1: 1.0}, ConstraintSense.LE, 100.0, name="loose")
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 1.0, 1: 1.0})
        result = presolve_form(model.to_matrix())
        assert result.feasible
        # Both rows go: the singleton is absorbed into x <= 3, and the loose
        # row can never bind under the bounds.
        assert result.stats.rows_removed == 2
        lower, upper = result.form.bound_arrays()
        assert upper[0] == pytest.approx(3.0)

    def test_redundant_row_removed_variables_kept(self):
        model = IlpModel()
        model.add_variable("x", 0, 1)
        model.add_variable("y", 0, 1)
        model.add_constraint({0: 1.0, 1: 1.0}, ConstraintSense.LE, 5.0, name="loose")
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 1.0, 1: 2.0})
        result = presolve_form(model.to_matrix(), integer_mask=integer_mask(model))
        assert result.feasible
        assert result.stats.rows_removed == 1
        assert result.stats.vars_fixed == 0
        assert result.form.a_ub.shape == (0, 2)

    def test_forced_equality_row_fixes_variables(self):
        model = IlpModel()
        model.add_variable("x", 0, 1)
        model.add_variable("y", 0, 1)
        model.add_constraint({0: 1.0, 1: 1.0}, ConstraintSense.EQ, 2.0, name="both")
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0, 1: 1.0})
        result = presolve_form(model.to_matrix(), integer_mask=integer_mask(model))
        assert result.feasible
        assert result.stats.vars_fixed == 2
        assert result.postsolve.restore(np.empty(0)).tolist() == [1.0, 1.0]

    def test_infeasible_row_detected(self):
        model = IlpModel()
        model.add_variable("x", 0, 1)
        model.add_variable("y", 0, 1)
        model.add_constraint({0: 1.0, 1: 1.0}, ConstraintSense.GE, 3.0, name="impossible")
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0})
        result = presolve_form(model.to_matrix())
        assert not result.feasible
        assert result.form is None

    def test_propagated_infeasibility_detected(self):
        # Individually satisfiable rows whose propagation crosses the bounds.
        model = IlpModel()
        model.add_variable("x", 0, 10, is_integer=False)
        model.add_constraint({0: 1.0}, ConstraintSense.LE, 2.0, name="low")
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 5.0, name="high")
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0})
        assert not presolve_form(model.to_matrix()).feasible

    def test_equality_row_with_negative_coefficient_keeps_lp_optimum(self):
        """Regression: ``x - y = 0`` must not tighten y's *lower* bound.

        The GE-direction propagation of an equality row divides by the
        coefficient; for negative coefficients that flips the inequality, so
        the candidate is an upper bound.  Getting the side wrong fixed both
        variables at 10 here and silently changed the optimum from 0 to 10.
        """
        model = IlpModel()
        model.add_variable("x", 0, 10, is_integer=False)
        model.add_variable("y", 0, 10, is_integer=False)
        model.add_constraint({0: 1.0, 1: -1.0}, ConstraintSense.EQ, 0.0, name="tie")
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0})
        form = model.to_matrix()
        on = solve_presolved(form)
        off = solve_lp_form(form)
        assert on.status is off.status is SolverStatus.OPTIMAL
        assert on.objective_value == pytest.approx(0.0)
        assert off.objective_value == pytest.approx(0.0)

    def test_identity_reduction_returns_same_form(self):
        model = IlpModel()
        model.add_variable("x", 0, 1)
        model.add_variable("y", 0, 1)
        model.add_constraint({0: 1.0, 1: 1.0}, ConstraintSense.EQ, 1.0, name="pick_one")
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 2.0, 1: 1.0})
        form = model.to_matrix()
        result = presolve_form(form, integer_mask=integer_mask(model))
        assert result.feasible
        assert result.form is form  # the working-matrix cache stays valid
        assert result.postsolve.identity

    def test_unbounded_column_without_a_candidate_raises_no_warning(self):
        """A REPEAT-less column is ``[0, inf)``; a propagating row with a zero
        coefficient on it proposes it nothing, and the comparison against its
        infinite bound must not evaluate inf - inf."""
        form = MatrixForm(
            c=np.array([1.0, 0.0]),
            a_ub=np.array([[1.0, 0.0]]), b_ub=np.array([2.0]),
            a_eq=np.empty((0, 2)), b_eq=np.empty(0),
            bounds=(np.zeros(2), np.array([3.0, np.inf])), maximize=False,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = presolve_form(form, integer_mask=np.array([True, True]))
        np.testing.assert_array_equal(result.postsolve.tightened_upper, [2.0, np.inf])


class TestPostsolve:
    def test_restore_reinserts_fixed_values(self):
        model = budget_model()
        result = presolve_form(model.to_matrix(), integer_mask=integer_mask(model))
        restored = result.postsolve.restore(np.array([1.0, 0.0, 1.0]))
        assert restored.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 0.0]

    def test_objective_offset_accounts_for_fixed_columns(self):
        model = IlpModel()
        model.add_variable("x", 2, 2, is_integer=False)  # fixed by bounds
        model.add_variable("y", 0, 5, is_integer=False)
        model.add_constraint({1: 1.0}, ConstraintSense.LE, 3.0, name="cap")
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 10.0, 1: 1.0})
        form = model.to_matrix()
        on = solve_presolved(form)
        off = solve_lp_form(form)
        assert on.objective_value == pytest.approx(off.objective_value)
        assert on.objective_value == pytest.approx(23.0)
        assert on.values == pytest.approx(off.values)

    def test_postsolve_maps_no_basis_and_takes_no_propagate_flag(self):
        model = budget_model()
        postsolve = presolve_form(model.to_matrix(), integer_mask=integer_mask(model)).postsolve
        for name in ("restore_basis", "reduce_basis", "_column_maps"):
            assert not hasattr(postsolve, name), name
        lower, upper, _ = model.bound_and_integrality_arrays()
        with pytest.raises(TypeError, match="propagate"):
            postsolve.reduce_bounds(lower, upper, propagate=False)

    def test_reduce_bounds_propagates_branched_bounds(self):
        model = IlpModel()
        model.add_variable("x", 0, 4)
        model.add_variable("y", 0, 4)
        model.add_variable("z", 0, 1)
        model.add_constraint({0: 1.0, 1: 1.0}, ConstraintSense.LE, 5.0, name="pair")
        model.add_constraint({2: 1.0}, ConstraintSense.LE, 0.0, name="kill_z")
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: 1.0, 1: 1.0, 2: 1.0})
        result = presolve_form(model.to_matrix(), integer_mask=integer_mask(model))
        post = result.postsolve
        assert result.stats.vars_fixed == 1  # z
        lower, upper, _ = model.bound_and_integrality_arrays()
        # Branch: force x >= 3; one propagation pass should pull y down to 2.
        branched_lower = lower.copy()
        branched_lower[0] = 3.0
        reduced_l, reduced_u = post.reduce_bounds(branched_lower, upper.copy())
        x_pos = int(np.nonzero(post.kept_cols == 0)[0][0])
        y_pos = int(np.nonzero(post.kept_cols == 1)[0][0])
        assert reduced_l[x_pos] == pytest.approx(3.0)
        assert reduced_u[y_pos] == pytest.approx(2.0)


class TestSolveParity:
    def test_lp_presolve_parity(self):
        model = budget_model()
        form = model.to_matrix()
        on = solve_presolved(form)
        off = solve_lp_form(form)
        assert on.status is off.status is SolverStatus.OPTIMAL
        assert on.objective_value == pytest.approx(off.objective_value)
        assert on.objective_value == pytest.approx(oracle_form_lp(form).objective)
        assert on.values == pytest.approx(off.values, abs=1e-6)

    def test_lp_presolve_detects_infeasibility_without_solving(self):
        model = IlpModel()
        model.add_variable("x", 0, 1)
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 2.0, name="impossible")
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0})
        assert not presolve_form(model.to_matrix()).feasible
        assert solve_presolved(model.to_matrix()).status is SolverStatus.INFEASIBLE

    def test_bnb_presolve_parity_on_budget_model(self):
        on = BranchAndBoundSolver().solve(budget_model())
        reference = oracle_ilp(budget_model())
        assert on.status is SolverStatus.OPTIMAL
        assert reference.status == "optimal"
        assert on.objective_value == pytest.approx(reference.objective)
        assert on.stats.vars_fixed == 3
        assert on.stats.rows_removed == 2
        assert on.stats.presolve_ms > 0.0

    def test_bnb_all_variables_fixed_by_presolve(self):
        model = IlpModel()
        model.add_variable("x", 0, 1)
        model.add_variable("y", 0, 1)
        model.add_constraint({0: 1.0, 1: 1.0}, ConstraintSense.EQ, 2.0, name="both")
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 3.0, 1: 4.0})
        solution = BranchAndBoundSolver().solve(model)
        assert solution.status is SolverStatus.OPTIMAL
        assert solution.values.tolist() == [1.0, 1.0]
        assert solution.objective_value == pytest.approx(7.0)
        assert solution.stats.lp_solves == 0

    def test_bnb_presolve_infeasible_root(self):
        model = IlpModel()
        model.add_variable("x", 0, 1)
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 2.0, name="impossible")
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 1.0})
        solution = BranchAndBoundSolver().solve(model)
        assert solution.status is SolverStatus.INFEASIBLE
        assert solution.stats.lp_solves == 0

    def test_bnb_and_oracle_agree_on_an_infeasible_equality_pair(self):
        # Found by the property test below: HiGHS' MIP presolve answers this
        # one with "Solve error", so it also pins the oracle's second attempt.
        model = IlpModel()
        for i, upper in enumerate([2, 1, 1, 1]):
            model.add_variable(f"t{i}", 0, upper)
        model.add_constraint({i: 1.0 for i in range(4)}, ConstraintSense.EQ, 2.0, name="count")
        model.add_constraint(
            {0: 7.698, 1: 0.078, 2: 1.519, 3: 0.567}, ConstraintSense.EQ, 1.043, name="sum0"
        )
        model.set_objective(ObjectiveSense.MAXIMIZE, {0: -0.453, 1: -0.216, 2: -2.02, 3: -0.232})
        assert BranchAndBoundSolver().solve(model).status is SolverStatus.INFEASIBLE
        assert oracle_ilp(model).status == "infeasible"


@st.composite
def paql_shaped_models(draw):
    """Random 0/1 package-query-shaped ILPs: COUNT row + SUM windows."""
    n = draw(st.integers(min_value=4, max_value=14))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    model = IlpModel()
    for i in range(n):
        model.add_variable(f"t{i}", 0, draw(st.sampled_from([1, 1, 2])))
    count = draw(st.integers(min_value=1, max_value=max(1, n // 2)))
    sense = draw(st.sampled_from([ConstraintSense.EQ, ConstraintSense.LE]))
    model.add_constraint({i: 1.0 for i in range(n)}, sense, float(count), name="count")
    num_sums = draw(st.integers(min_value=1, max_value=3))
    for k in range(num_sums):
        weights = rng.lognormal(0.0, 1.0, n).round(3)
        if draw(st.booleans()):
            # Mixed-sign rows (AVG-style linearisations subtract the bound
            # from every coefficient) exercise the inequality-flipping
            # branches of the propagation.
            weights = weights - float(np.median(weights))
        direction = draw(
            st.sampled_from([ConstraintSense.LE, ConstraintSense.GE, ConstraintSense.EQ])
        )
        # Budgets around the expected package weight keep a mix of feasible
        # and infeasible instances, with some columns individually too heavy.
        budget = float(np.median(np.abs(weights)) * count * draw(st.floats(0.5, 2.0)))
        model.add_constraint(
            {i: float(w) for i, w in enumerate(weights)}, direction, budget, name=f"sum{k}"
        )
    objective = rng.normal(0.0, 1.0, n).round(3)
    sense = draw(st.sampled_from([ObjectiveSense.MAXIMIZE, ObjectiveSense.MINIMIZE]))
    model.set_objective(sense, {i: float(c) for i, c in enumerate(objective)})
    return model


class TestPresolveProperties:
    @settings(max_examples=40, deadline=None)
    @given(model=paql_shaped_models())
    def test_presolved_ilp_solve_matches_the_oracle(self, model):
        limits = SolverLimits(node_limit=4000, relative_gap=1e-9)
        on = BranchAndBoundSolver(limits=limits).solve(model)
        reference = oracle_ilp(model)
        assert on.status.value == reference.status
        if on.status is SolverStatus.OPTIMAL:
            assert on.objective_value == pytest.approx(reference.objective, abs=1e-6)
            assert model.check_feasible(on.values)

    @settings(max_examples=40, deadline=None)
    @given(model=paql_shaped_models())
    def test_presolved_lp_relaxation_matches_highs(self, model):
        form = model.to_matrix()
        on = solve_presolved(form)
        reference = oracle_form_lp(form)
        assert on.status.value == reference.status
        if on.status is SolverStatus.OPTIMAL:
            assert on.objective_value == pytest.approx(reference.objective, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(model=paql_shaped_models())
    def test_presolved_simplex_restores_original_space_solutions(self, model):
        form = model.to_matrix()
        result = solve_presolved(form)
        if result.status is SolverStatus.OPTIMAL:
            assert len(result.values) == model.num_variables
            lower, upper, _ = model.bound_and_integrality_arrays()
            assert np.all(result.values >= lower - 1e-6)
            assert np.all(result.values <= upper + 1e-6)


class TestRootCertificate:
    """Where the one-pass certificate answers for the root pass on PaQL
    models (``tests/ilp/test_bind_gate.py`` holds it against the reference)."""

    def test_every_galaxy_direct_root_is_certified(self):
        table = galaxy_table(1_600, seed=42)
        queries = galaxy_workload(table).queries
        assert len(queries) == 7
        for entry in queries:
            model = translate_query(table, entry.query).model
            form = model.to_matrix()
            mask = integer_mask(model)
            assert certified(form, mask), entry.name
            result = presolve_form(form, integer_mask=mask)
            assert result.form is form and result.postsolve.identity
            assert result.stats.passes == 1 and result.stats.bounds_tightened == 0

    def test_refine_roots_that_fix_columns_are_not_certified(self, monkeypatch, refine_shaped_query):
        """Every root a refine-shaped SKETCHREFINE evaluation presolves: those
        the pass reduces are never certified, and the certified ones are the
        identity."""
        roots = []

        def recording(form, integer_mask=None, **kwargs):
            result = presolve_form(form, integer_mask=integer_mask, **kwargs)
            roots.append((certified(form, integer_mask), result))
            return result

        monkeypatch.setattr(branch_and_bound, "presolve_form", recording)
        table = galaxy_table(2_400, seed=42)
        engine = PackageQueryEngine()
        engine.register_table(table, name="galaxy")
        engine.build_partitioning(
            "galaxy", ["petroMag_r", "redshift", "petroFlux_r"], size_threshold=250
        )
        engine.execute(
            refine_shaped_query(table, "galaxy", 300), method="sketchrefine", cache="bypass"
        )
        fixing = [fired for fired, result in roots if result.stats.vars_fixed]
        assert len(fixing) >= 3 and not any(fixing)
        for fired, result in roots:
            if fired:
                assert result.postsolve.identity and result.stats.rows_removed == 0
        assert 0 < sum(fired for fired, _ in roots) < len(roots)
