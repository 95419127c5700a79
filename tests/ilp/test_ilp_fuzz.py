"""Seeded differential fuzzing of branch and bound against the HiGHS MILP oracle.

``test_lp_fuzz.py`` holds the simplex to ``linprog`` one LP at a time; this is
the level above it: the same instance families, every column integer (and
again with seven columns in ten integer, and with none), solved by
:class:`BranchAndBoundSolver` — with no presolve in front of it, reduced-cost
fixing against the incumbent, branching ties broken by dual penalty, nodes
dropped on their inherited bound — and by ``scipy.optimize.milp``, which
shares no code with it.  The families' own generators run with the column count capped at 16, so
that every tree closes well inside the time ceiling at a gap of 1e-9 — at 10
for ``duplicated_columns``: a handful of distinct columns repeated under an
equality row with a fractional right-hand side is integer-infeasible yet
LP-feasible in every box, and a branch and bound without symmetry handling
enumerates it (at 12 columns, 14 000 nodes and the first ceiling exit).

The contract: the same status, and when that is ``optimal`` the same objective
to 1e-6 relative.  No disagreement is tolerated on any of the four families.

``ill_scaled`` stays at the LP level.  Its seed 16 under the same cap is why:
branch and bound returns an integral point whose residual on an equality row
of scale 0.0026 is 3e-7 — inside the simplex's absolute feasibility tolerance
— where HiGHS calls the instance infeasible (seeds 31, 66, 73 and 95 of the
first hundred are the same story, and equality rows over continuous-valued
coefficients keep another ten trees open past the ceiling).  That is a
question of tolerances on rows scaled by up to 1e±4, not a defect of either
solver, and an exact-status contract cannot express it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense

from . import test_lp_fuzz
from .oracle import oracle_ilp

#: Family -> column cap.
FAMILIES = {"tie_heavy": 16, "duplicated_columns": 10, "paql_shaped": 16, "near_infeasible": 16}
SEEDS_PER_FAMILY = 100
OBJECTIVE_TOLERANCE = 1e-6
TIME_CEILING_SECONDS = 5.0


def _model(c, a_ub, b_ub, a_eq, b_eq, bounds, is_integer) -> IlpModel:
    lower, upper = bounds
    model = IlpModel("ilp-fuzz")
    for j in range(len(c)):
        model.add_variable(f"x{j}", float(lower[j]), float(upper[j]), is_integer=bool(is_integer[j]))
    for matrix, rhs, sense in ((a_ub, b_ub, ConstraintSense.LE), (a_eq, b_eq, ConstraintSense.EQ)):
        for row, bound in zip(matrix, rhs):
            model.add_constraint(
                {int(j): float(row[j]) for j in np.nonzero(row)[0]}, sense, float(bound)
            )
    model.set_objective(
        ObjectiveSense.MINIMIZE, {int(j): float(c[j]) for j in np.nonzero(c)[0]}
    )
    return model


def _integer_mask(integrality: str, seed: int, n: int) -> np.ndarray:
    if integrality == "all":
        return np.ones(n, dtype=bool)
    if integrality == "mixed":
        return np.random.default_rng([seed, 0]).random(n) < 0.7
    return np.zeros(n, dtype=bool)


def _match_the_oracle(family: str, integrality: str, monkeypatch) -> None:
    monkeypatch.setattr(
        test_lp_fuzz, "_shape",
        lambda rng: (int(rng.integers(1, 8)), int(rng.integers(2, FAMILIES[family] + 1))),
    )
    generate = test_lp_fuzz.FAMILIES[family]
    solver = BranchAndBoundSolver(
        limits=SolverLimits(relative_gap=1e-9, time_limit_seconds=TIME_CEILING_SECONDS)
    )
    wrong, statuses = [], set()
    for seed in range(SEEDS_PER_FAMILY):
        c, *rows = generate(np.random.default_rng(seed))
        model = _model(c, *rows, _integer_mask(integrality, seed, len(c)))
        solution = solver.solve(model)
        reference = oracle_ilp(model)
        statuses.add(reference.status)
        if solution.status.value != reference.status:
            wrong.append(
                f"{family} {integrality} seed {seed}: B&B {solution.status.value}, "
                f"oracle {reference.status}"
            )
        elif reference.status == "optimal":
            error = abs(solution.objective_value - reference.objective)
            if error > OBJECTIVE_TOLERANCE * max(1.0, abs(reference.objective)):
                wrong.append(
                    f"{family} {integrality} seed {seed}: B&B objective {solution.objective_value!r}, "
                    f"oracle {reference.objective!r}"
                )
    assert not wrong, "\n".join(wrong)
    assert "optimal" in statuses


@pytest.mark.parametrize("family", FAMILIES)
def test_branch_and_bound_matches_the_milp_oracle(family, monkeypatch):
    _match_the_oracle(family, "all", monkeypatch)


@pytest.mark.parametrize("integrality", ["mixed", "none"])
@pytest.mark.parametrize("family", FAMILIES)
def test_mixed_and_continuous_columns_match_the_milp_oracle(family, integrality, monkeypatch):
    _match_the_oracle(family, integrality, monkeypatch)
