"""The row-slack gate of ``repro.ilp.presolve`` changes no output bit.

``presolve_form`` and ``Postsolve.reduce_bounds`` leave a row out of a
propagation pass when its slack is at least its reach, and skip the pass when
no row is left.  ``tests/ilp/reference_presolve.py`` keeps the ungated code of
the parent commit; here the two are run side by side on seeded instances —
the fuzz families of ``test_lp_fuzz.py`` and the refine ILPs SKETCHREFINE
builds on a Galaxy table — along random branch paths, with unbounded
columns, fractional bounds on integer columns, and the knife edge where slack
equals reach.  Node bounds must be ``np.array_equal``; root reductions must
agree field by field.  Every gated call runs with warnings as errors.

The root certificate (``_certified_identity``) returns the identity reduction
without running a pass; the corpus must hold roots on both sides of it, and
its knife edges — activity within ``_row_tolerance`` of the right-hand side,
slack within the certificate's margin of the gate's threshold, fractional,
fixed and infinite bounds, all-zero rows, no equality rows, no pass budget —
are held against the reference field by field like every other root.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.engine import PackageQueryEngine
from repro.core.sketchrefine import PartitionedQuery
from repro.ilp.matrix_form import MatrixForm
from repro.ilp.presolve import (
    _CERTIFICATE_MARGIN,
    _GATE_MARGIN,
    _certified_identity,
    _round_integer_bounds,
    _row_tolerance,
    presolve_form,
)
from repro.workloads.galaxy import galaxy_table

from .reference_presolve import reference_presolve_form, reference_reduce_bounds
from .test_lp_fuzz import near_infeasible, paql_shaped, tie_heavy

FAMILIES = {"paql_shaped": paql_shaped, "tie_heavy": tie_heavy, "near_infeasible": near_infeasible}
SEEDS_PER_FAMILY = 30
PATHS_PER_INSTANCE = 3
MAX_DEPTH = 30


class Tally:
    """What the instances exercised, so an all-skip or all-run corpus fails."""

    def __init__(self) -> None:
        self.calls = 0
        self.skipped = 0         # the gate proved no pass could tighten anything
        self.rows_tightened = 0  # the row pass moved a bound
        self.unbounded = 0       # calls on a reduction with an infinite root bound
        self.fractional = 0      # calls whose bounds were fractional on an integer column
        self.certified_roots = 0    # roots the certificate answered without a pass
        self.uncertified_roots = 0  # roots it left to the pass


def _form(c, a_ub, b_ub, a_eq, b_eq, bounds) -> MatrixForm:
    lower, upper = bounds
    return MatrixForm(
        c=np.asarray(c, dtype=np.float64), a_ub=a_ub, b_ub=np.asarray(b_ub, dtype=np.float64),
        a_eq=a_eq, b_eq=np.asarray(b_eq, dtype=np.float64),
        bounds=(lower.copy(), upper.copy()), maximize=False,
    )


def certified(form: MatrixForm, integer_mask) -> bool:
    mask = None if integer_mask is None else np.asarray(integer_mask, dtype=bool)
    return _certified_identity(form, *form.bound_arrays(), mask)


def assert_same_root(
    form: MatrixForm, integer_mask, max_passes: int | None = None, tally: Tally | None = None
):
    """Gated and reference ``presolve_form`` agree field by field; returns the
    gated postsolve record (``None`` when the root is infeasible)."""
    extra = {} if max_passes is None else {"max_passes": max_passes}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = presolve_form(form, integer_mask=integer_mask, **extra)
        fired = certified(form, integer_mask)
    ref = reference_presolve_form(form, integer_mask=integer_mask, **extra)
    if tally is not None:
        tally.certified_roots += fired
        tally.uncertified_roots += not fired
    if fired:  # the identity, and nothing but the identity
        assert ref.feasible and ref.form is form and ref.postsolve.identity
    assert got.feasible == ref.feasible
    for name in ("vars_fixed", "rows_removed", "bounds_tightened", "passes"):
        assert getattr(got.stats, name) == getattr(ref.stats, name), name
    if not ref.feasible:
        assert got.form is None and got.postsolve is None
        return None
    assert (got.form is form) == (ref.form is form)
    assert got.postsolve.identity == ref.postsolve.identity
    for name in ("kept_cols", "fixed_values", "tightened_lower", "tightened_upper"):
        assert np.array_equal(getattr(got.postsolve, name), getattr(ref.postsolve, name)), name
    # The rows kept: the reduced matrices and right-hand sides.
    for name in ("a_ub", "b_ub", "a_eq", "b_eq"):
        assert np.array_equal(getattr(got.form, name), getattr(ref.form, name)), name
    return got.postsolve


def _le_rows(form: MatrixForm) -> np.ndarray:
    """Every constraint as a dense ``<=`` row (an equality is two)."""
    return np.vstack([form.a_ub, form.a_eq, -form.a_eq])


def assert_same_nodes(rng, postsolve, form, integer_mask, tally: Tally) -> None:
    """Random branch paths from the root; every prefix is a node, the root's
    own bounds (where no pass may run) included.  Each path
    leans on one constraint row — seven branches in ten move a column of that
    row the way that uses up its slack — so that rows do come to bind."""
    orig_lower, orig_upper = form.bound_arrays()
    le_rows = _le_rows(form)
    n = len(orig_lower)
    unbounded = not (
        np.isfinite(postsolve.tightened_lower).all() and np.isfinite(postsolve.tightened_upper).all()
    )
    root_l = orig_lower.copy()
    root_u = orig_upper.copy()
    root_l[postsolve.kept_cols] = postsolve.tightened_lower
    root_u[postsolve.kept_cols] = postsolve.tightened_upper
    for _ in range(PATHS_PER_INSTANCE):
        lower, upper = orig_lower.copy(), orig_upper.copy()
        fractional = False
        leaned_on = le_rows[int(rng.integers(len(le_rows)))] if len(le_rows) else np.zeros(n)
        for depth in range(int(rng.integers(1, MAX_DEPTH + 1)) + 1):
            if depth:  # depth 0 is the root's own bounds
                j = int(rng.integers(n))
                up = rng.random() < 0.5
                if rng.random() < 0.7 and np.any(leaned_on):
                    j = int(rng.choice(np.nonzero(leaned_on)[0]))
                    up = leaned_on[j] > 0
                low = max(lower[j], root_l[j])
                high = min(upper[j], root_u[j])
                low = low if np.isfinite(low) else -3.0
                high = high if np.isfinite(high) else low + 5.0
                value = np.floor(rng.uniform(low, max(low, high)))
                if rng.random() < 0.03:     # a caller that is not branch-and-bound
                    value += 0.5
                    fractional = fractional or bool(integer_mask is not None and integer_mask[j])
                if up and value + 1.0 <= high:
                    lower[j] = value + 1.0
                else:
                    upper[j] = value
            plain_l = np.maximum(postsolve.tightened_lower, lower[postsolve.kept_cols])
            plain_u = np.minimum(postsolve.tightened_upper, upper[postsolve.kept_cols])
            _round_integer_bounds(plain_l, plain_u, postsolve.integer_mask)
            before = postsolve.propagations
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got_l, got_u = postsolve.reduce_bounds(lower, upper)
            ref_l, ref_u = reference_reduce_bounds(postsolve, lower, upper)
            assert np.array_equal(got_l, ref_l)
            assert np.array_equal(got_u, ref_u)
            tally.calls += 1
            tally.skipped += postsolve.propagations == before
            tally.unbounded += unbounded
            tally.fractional += fractional
            tally.rows_tightened += not (
                np.array_equal(ref_l, plain_l) and np.array_equal(ref_u, plain_u)
            )


@pytest.mark.parametrize("family", list(FAMILIES))
def test_gated_propagation_equals_the_reference_on_fuzz_forms(family):
    tally = Tally()
    for seed in range(SEEDS_PER_FAMILY):
        rng = np.random.default_rng([seed, 0])
        *rows, (lower, upper) = FAMILIES[family](np.random.default_rng(seed))
        form = _form(*rows, (lower, upper))
        n = form.num_variables
        # All-integer (PaQL's case), mixed, and pure LP.
        integer_mask = (np.ones(n, dtype=bool), rng.random(n) < 0.7, None)[seed % 3]
        postsolve = assert_same_root(form, integer_mask, tally=tally)
        if seed % 5 == 0:  # a pass budget that runs out: the final refresh must run
            assert_same_root(form, integer_mask, max_passes=1, tally=tally)
            assert_same_root(form, integer_mask, max_passes=0, tally=tally)
        if postsolve is not None and postsolve.num_reduced_vars:
            assert_same_nodes(rng, postsolve, form, integer_mask, tally)
    # Roots on both sides of the certificate.
    assert tally.certified_roots > 0
    assert tally.uncertified_roots > 0
    # The corpus sits on both sides of the gate, and the passes that ran
    # mattered.  tie_heavy and near_infeasible roots only ever tighten bounds:
    # ``identity`` reductions, whose nodes propagate no row (their bounds
    # still differ from the unrounded reference's where a branch was
    # fractional).
    assert tally.calls > 1_000
    assert tally.skipped > tally.calls // 10
    if family == "paql_shaped":
        assert tally.calls - tally.skipped > tally.calls // 10
    else:
        assert tally.skipped == tally.calls
    assert tally.rows_tightened > 20 or family == "near_infeasible"
    assert tally.fractional > 100
    if family == "tie_heavy":
        assert tally.unbounded > 100


@pytest.fixture(scope="module")
def galaxy_refine_models(refine_shaped_query):
    """Refine ILPs over the largest groups of a Galaxy partitioning: one
    group's tuples as 0/1 columns under a COUNT equality and two two-sided SUM
    rows, the rest of the package standing at the table's means."""
    table = galaxy_table(2_400, seed=42)
    engine = PackageQueryEngine()
    engine.register_table(table, name="galaxy")
    partitioning = engine.build_partitioning(
        "galaxy", ["petroMag_r", "redshift", "petroFlux_r"], size_threshold=250
    )
    cardinality = 300
    query = refine_shaped_query(table, "galaxy", cardinality)
    problem = PartitionedQuery.build(table, query, partitioning)
    largest = sorted(problem.eligible_groups, key=lambda gid: -len(problem.groups[gid]))[:6]
    models = []
    # The group's share of the package: a few tuples (its COUNT row binds a
    # few branches down, the regime of the benchmark's c200) up to a third.
    for gid, share in zip(largest, (2, 4, 8, 16, 32, 64)):
        fixed = (cardinality - share) * problem.linearisation.constraint_matrix.mean(axis=1)
        models.append(problem.refine_model(gid, fixed))
    return models


def test_gated_propagation_equals_the_reference_on_galaxy_refine_models(galaxy_refine_models):
    tally = Tally()
    for index, model in enumerate(galaxy_refine_models):
        rng = np.random.default_rng([index, 0])
        form = model.to_matrix()
        integer_mask = model.bound_and_integrality_arrays()[2]
        postsolve = assert_same_root(form, integer_mask, tally=tally)
        assert postsolve is not None
        assert_same_nodes(rng, postsolve, form, integer_mask, tally)
    # Refine roots reduce (their COUNT row fixes columns): never certified.
    assert tally.certified_roots == 0
    assert tally.skipped > tally.calls // 10
    assert tally.calls - tally.skipped > tally.calls // 10
    assert tally.rows_tightened > 20


def _count_row_form(num_columns: int, count: float) -> MatrixForm:
    """``sum(x) <= count`` over 0/1 columns, a second row so presolve keeps a
    genuine reduction (one column is fixed by its bounds), objective ``-x``."""
    a_ub = np.vstack([np.ones(num_columns), np.arange(1.0, num_columns + 1.0)])
    b_ub = np.array([count, 1e6])
    upper = np.ones(num_columns)
    upper[-1] = 0.0
    rows = (-np.ones(num_columns), a_ub, b_ub, np.empty((0, num_columns)), np.empty(0))
    return _form(*rows, (np.zeros(num_columns), upper))


def test_slack_equal_to_reach_is_not_skipped():
    """A COUNT row one short of full: slack exactly 1.0, reach exactly 1.0.
    The gate skips only beyond its margin, so the pass runs — and agrees."""
    form = _count_row_form(8, 4.0)
    integer_mask = np.ones(8, dtype=bool)
    postsolve = assert_same_root(form, integer_mask)
    assert postsolve is not None and not postsolve.identity
    lower, upper = form.bound_arrays()
    lower[:3] = 1.0   # three columns branched up: min-activity 3, slack 1 == reach
    ran = postsolve.propagations
    got = postsolve.reduce_bounds(lower, upper)
    ref = reference_reduce_bounds(postsolve, lower, upper)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    assert postsolve.propagations == ran + 1, "slack == reach must not count as 'cannot bind'"

    lower[3] = 1.0    # four up: slack 0, every other column is fixed to 0
    got = postsolve.reduce_bounds(lower, upper)
    ref = reference_reduce_bounds(postsolve, lower, upper)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    assert got[1].sum() == 4.0

    lower[:] = 0.0
    lower[:2] = 1.0   # two up: slack 2 clears the reach, nothing to do
    ran = postsolve.propagations
    got = postsolve.reduce_bounds(lower, upper)
    ref = reference_reduce_bounds(postsolve, lower, upper)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    assert postsolve.propagations == ran


def _certifiable_form(lower=None, upper=None, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    """Four 0/1 columns under ``COUNT <= 2``, a weighted ``<= 5`` row and
    ``COUNT = 2``: every row's slack clears its reach, none is redundant or
    forced, so the certificate answers for the pass.  Any part can be swapped."""
    a_ub = np.array([[1.0, 1.0, 1.0, 1.0], [3.0, 1.0, 2.0, 1.0]]) if a_ub is None else a_ub
    b_ub = np.array([2.0, 5.0]) if b_ub is None else b_ub
    a_eq = np.ones((1, 4)) if a_eq is None else a_eq
    b_eq = np.array([2.0]) if b_eq is None else b_eq
    lower = np.zeros(4) if lower is None else lower
    upper = np.ones(4) if upper is None else upper
    return _form(-np.arange(1.0, 5.0), a_ub, b_ub, a_eq, b_eq, (lower, upper))


INTEGRAL = np.ones(4, dtype=bool)


def test_certified_root_is_the_pass_result():
    for max_passes, passes in ((None, 1), (8, 1), (1, 1), (0, 0), (-1, 0)):
        form = _certifiable_form()
        assert certified(form, INTEGRAL) and certified(form, None)
        assert_same_root(form, INTEGRAL, max_passes=max_passes)
        extra = {} if max_passes is None else {"max_passes": max_passes}
        result = presolve_form(form, integer_mask=INTEGRAL, **extra)
        assert result.form is form and result.stats.passes == passes


def test_certificate_refuses_bounds_the_pass_would_change():
    """A fractional bound on an integer column (rounding moves it), a fixed
    column, one fixed within ``_FIX_TOLERANCE``, an infinite bound."""
    fractional = np.ones(4)
    fractional[1] = 1.5
    fixed = np.ones(4)
    fixed[2] = 0.0
    nearly_fixed = np.ones(4)
    nearly_fixed[2] = 1e-10
    unbounded = np.ones(4)
    unbounded[0] = np.inf
    for upper in (fractional, fixed, nearly_fixed, unbounded):
        form = _certifiable_form(upper=upper)
        assert not certified(form, INTEGRAL)
        assert_same_root(form, INTEGRAL)
        assert_same_root(form, None)
    # On a continuous column a fractional bound rounds nowhere.
    assert certified(_certifiable_form(upper=fractional), None)
    assert certified(_certifiable_form(upper=fractional), ~INTEGRAL)


def test_certificate_on_degenerate_row_blocks():
    """An all-zero row is redundant (or, under a negative right-hand side,
    infeasible); no equality rows, or no rows at all, is certifiable."""
    zero_row = np.vstack([np.ones(4), np.zeros(4)])
    for b_ub in (np.array([2.0, 1.0]), np.array([2.0, 0.0]), np.array([2.0, -1.0])):
        form = _certifiable_form(a_ub=zero_row, b_ub=b_ub)
        assert not certified(form, INTEGRAL)
        assert_same_root(form, INTEGRAL)
    no_eq = _certifiable_form(a_eq=np.empty((0, 4)), b_eq=np.empty(0))
    no_rows = _certifiable_form(a_ub=np.empty((0, 4)), b_ub=np.empty(0), a_eq=np.empty((0, 4)), b_eq=np.empty(0))
    for form in (no_eq, no_rows):
        assert certified(form, INTEGRAL)
        assert_same_root(form, INTEGRAL)


def test_certificate_at_the_row_tolerance():
    """``COUNT <= b`` over four 0/1 columns, ``b`` around ``4 - tol``: at or
    above it the pass drops the row as redundant, below it keeps the row; the
    certificate answers only a margin below.  ``COUNT = b`` around ``4 + tol``
    is the infeasibility edge of an equality row."""
    tol = float(_row_tolerance(np.array([4.0]))[0])
    margin = _CERTIFICATE_MARGIN * 4.0
    for steps in (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        b = 4.0 - tol + steps * margin
        form = _certifiable_form(a_ub=np.ones((1, 4)), b_ub=np.array([b]))
        assert_same_root(form, INTEGRAL)
        assert certified(form, INTEGRAL) == (steps <= -2.0), steps
        eq_form = _certifiable_form(b_eq=np.array([4.0 + tol + steps * margin]))
        assert_same_root(eq_form, INTEGRAL)
        assert not certified(eq_form, INTEGRAL)


def test_certificate_at_the_gate_threshold():
    """``2 x0 + x1 + x2 <= b`` over ``[0, 1]^4``: reach 2, magnitude 4.  At
    ``b = 2 ± margin`` the pass really tightens ``x0`` (continuous) or rounds
    it back (integral); around the gate's threshold ``2 + 1e-6 · 4`` it
    proves the row cannot bind, and the certificate answers only past its
    own margin."""
    margin = _CERTIFICATE_MARGIN * 4.0
    threshold = 2.0 + _GATE_MARGIN * 4.0
    a_ub = np.array([[2.0, 1.0, 1.0, 0.0]])
    tightened = 0
    for b in (2.0 - margin, 2.0, 2.0 + margin):
        form = _certifiable_form(a_ub=a_ub, b_ub=np.array([b]))
        assert not certified(form, None)
        assert_same_root(form, INTEGRAL)
        tightened += assert_same_root(form, None).tightened_upper[0] < 1.0
    assert tightened == 1   # 2 - margin: x0 <= 1 - margin / 2
    for steps in (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0):
        form = _certifiable_form(a_ub=a_ub, b_ub=np.array([threshold + steps * margin]))
        assert_same_root(form, INTEGRAL)
        assert_same_root(form, None)
        assert certified(form, None) == (steps >= 3.0), steps


def test_root_row_with_slack_equal_to_reach_is_still_propagated():
    """At the root the same knife edge: ``x + y <= 3`` over ``[0, 3]^2`` has
    slack 3 and reach 3; ``2x + y <= 3`` has reach 6 and halves ``x``."""
    for a_ub in (np.array([[1.0, 1.0]]), np.array([[2.0, 1.0]])):
        rows = (np.array([-1.0, -1.0]), a_ub, np.array([3.0]), np.empty((0, 2)), np.empty(0))
        form = _form(*rows, (np.zeros(2), np.full(2, 3.0)))
        assert_same_root(form, np.ones(2, dtype=bool))
        assert_same_root(form, None)
