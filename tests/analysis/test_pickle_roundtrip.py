"""Regression guard: every SolveTask-reachable class pickles faithfully.

The class list is read from the pickle-safety checker's ``payload_classes``
config — the same source of truth the static rule enforces — so the checker
and this runtime guard cannot drift apart: a class added to the checker must
be constructible and round-trippable here, and a class pickled by the solve
plane must be registered with the checker.

Beyond per-class round-trips, the end-to-end property is asserted: solving a
pickled-and-restored task yields results bit-identical to the original, and
every derived cache arrives empty on the far side.
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np
import pytest

from repro.analysis.checkers.pickle_safety import PickleSafetyChecker
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.db.catalog import Database
from repro.db.wal import WalRecord
from repro.exec.tasks import SolveTask, SolveTaskResult, run_solve_task
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.matrix_form import MatrixForm
from repro.ilp.presolve import Postsolve, presolve_form
from repro.ilp.simplex import SimplexBasis, solve_form_simplex
from repro.ilp.status import Solution, SolveStats


def _small_model() -> IlpModel:
    model = IlpModel("pickle-guard")
    for i in range(4):
        model.add_variable(f"x{i}", upper=3)
    model.add_constraint(
        {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}, ConstraintSense.LE, 5, name="count"
    )
    model.add_constraint(
        {0: 2.0, 1: 1.0, 3: 4.0}, ConstraintSense.GE, 3, name="budget"
    )
    model.set_objective(ObjectiveSense.MAXIMIZE, {0: 3.0, 1: 1.0, 2: 2.0, 3: 0.5})
    return model


@pytest.fixture(scope="module")
def payload_instances() -> dict[str, Any]:
    """One live instance of every class the pickle-safety checker registers."""
    model = _small_model()
    # Materialise the model's memo so the round-trip assertions are
    # meaningful: a fresh object with an empty one would pass trivially.
    form = model.to_matrix()
    result = presolve_form(form)
    assert result.feasible and result.postsolve is not None

    solver = BranchAndBoundSolver()
    solution = solver.solve(model)
    assert solution.has_solution
    assert solution.root_basis is not None, "the solve should export its root basis"

    task = SolveTask(
        task_id=7, model=model, solver=solver,
        warm_basis=solution.root_basis, rng_seed=11,
    )
    task_result = run_solve_task(task)

    # Durable-service payloads: a WAL update record and a pinned snapshot
    # view of a small live catalog.
    db = Database()
    db.create_table(
        Table(
            Schema.numeric(["x"]), {"x": np.arange(5, dtype=float)}, name="pickle_guard"
        )
    )
    snapshot = db.snapshot()
    wal_record = WalRecord.update(
        "pickle_guard",
        db.table("pickle_guard").make_delta(insert=[(9.0,)], delete=[0]),
        "maintain",
    )

    return {
        "SolveTask": task,
        "SolveTaskResult": task_result,
        "IlpModel": model,
        "MatrixForm": form,
        "Postsolve": result.postsolve,
        "SimplexBasis": solution.root_basis,
        "SolveStats": solution.stats,
        "Solution": solution,
        "BranchAndBoundSolver": solver,
        "SolverLimits": solver.limits,
        "WalRecord": wal_record,
        "SnapshotHandle": snapshot,
        "PinnedTable": snapshot.pins["pickle_guard"],
    }


def test_instance_list_matches_checker_class_list(
    payload_instances: dict[str, Any]
) -> None:
    """The checker's payload_classes and this test cover exactly the same set."""
    configured = set(PickleSafetyChecker.default_config["payload_classes"])
    assert configured == set(payload_instances), (
        "pickle-safety payload_classes and the round-trip guard drifted apart; "
        "update both together"
    )
    # Every name resolves to the class the instance actually is.
    for name, instance in payload_instances.items():
        assert type(instance).__name__ == name


def test_every_payload_class_roundtrips(payload_instances: dict[str, Any]) -> None:
    for name, instance in payload_instances.items():
        restored = pickle.loads(pickle.dumps(instance))
        assert type(restored) is type(instance), name


def test_derived_caches_arrive_empty(payload_instances: dict[str, Any]) -> None:
    model: IlpModel = pickle.loads(pickle.dumps(payload_instances["IlpModel"]))
    assert payload_instances["IlpModel"]._matrix_cache is not None
    assert model._matrix_cache is None

    form: MatrixForm = payload_instances["MatrixForm"]
    form.cache["scratch"] = object()
    restored_form: MatrixForm = pickle.loads(pickle.dumps(form))
    assert restored_form.cache == {}

    postsolve: Postsolve = pickle.loads(pickle.dumps(payload_instances["Postsolve"]))
    assert postsolve._node_rows is None
    assert postsolve._cutoff_rows is None
    assert postsolve._bind_gate is None

    # A restored snapshot handle is a detached, self-contained view: the
    # live manager (and through it the whole catalog) never ships.
    handle = pickle.loads(pickle.dumps(payload_instances["SnapshotHandle"]))
    assert handle._manager is None
    assert handle.versions() == payload_instances["SnapshotHandle"].versions()


def test_basis_factor_drops_on_pickle(payload_instances: dict[str, Any]) -> None:
    """An exported basis carries its inverse locally but never pickles it."""
    form: MatrixForm = payload_instances["MatrixForm"]
    lp = solve_form_simplex(form)
    assert lp.basis is not None
    assert lp.basis._factor is not None, "small solve should export its inverse"
    restored: SimplexBasis = pickle.loads(pickle.dumps(lp.basis))
    assert restored._factor is None
    # The stripped basis still warm-starts: the installer reinverts from the
    # basic index set instead of trusting a shipped inverse.
    warm = solve_form_simplex(form, warm_start=restored)
    assert warm.warm_started
    assert warm.objective == lp.objective


def test_cutoff_rows_drop_on_pickle(payload_instances: dict[str, Any]) -> None:
    """Neither the lazily-built objective-cutoff row nor the gate that decides
    whether it is propagated ships with a Postsolve."""
    postsolve: Postsolve = payload_instances["Postsolve"]
    # The reduced objective ranges over [-19.5, 0] on the root box: a cutoff
    # of -15 leaves a slack of 4.5 against a reach of 9, so the row binds (a
    # cutoff far above 0 is proven unable to, and no row would be built).
    reduced_l, reduced_u = postsolve.reduce_bounds(
        postsolve.orig_lower,
        postsolve.orig_upper,
        objective_cutoff_min=-15.0,
    )
    assert np.any(reduced_l > postsolve.orig_lower), "the cutoff should have tightened a bound"
    assert postsolve._cutoff_rows is not None, "cutoff propagation should memoize its row"
    assert postsolve._bind_gate is not None, "the bind gate should be memoized"
    restored: Postsolve = pickle.loads(pickle.dumps(postsolve))
    assert restored._cutoff_rows is None
    assert restored._bind_gate is None


def test_restored_model_solves_identically(payload_instances: dict[str, Any]) -> None:
    model: IlpModel = payload_instances["IlpModel"]
    restored: IlpModel = pickle.loads(pickle.dumps(model))
    solver = BranchAndBoundSolver()
    original = solver.solve(model)
    again = solver.solve(restored)
    assert original.status is again.status
    assert original.objective_value == again.objective_value
    assert np.array_equal(original.values, again.values)
    # The coefficient block and its parallels arrive equal and read-only again.
    for name in ("_rows", "_rhs", "_objective", "_lower", "_upper", "_integer"):
        assert np.array_equal(getattr(restored, name), getattr(model, name)), name
        assert not getattr(restored, name).flags.writeable, name
    assert restored._rows.flags.c_contiguous
    assert [c.name for c in restored.constraints] == [c.name for c in model.constraints]
    assert [c.sense for c in restored.constraints] == [c.sense for c in model.constraints]
    assert restored.objective.sense is model.objective.sense


def test_restored_task_executes_identically(payload_instances: dict[str, Any]) -> None:
    task: SolveTask = payload_instances["SolveTask"]
    reference: SolveTaskResult = payload_instances["SolveTaskResult"]
    restored_task: SolveTask = pickle.loads(pickle.dumps(task))
    rerun = run_solve_task(restored_task)
    assert rerun.task_id == reference.task_id
    assert rerun.status is reference.status
    assert rerun.objective_value == reference.objective_value
    assert np.array_equal(rerun.values, reference.values)
    assert rerun.warm_started == reference.warm_started
