"""Integer linear program model.

An :class:`IlpModel` holds integer (or continuous) variables with bounds, a
set of linear constraints and a linear objective.  The PaQL translator builds
one of these per package (sub)query; the solvers in this package consume it.

Everything is stored as arrays.  The columns are three parallel arrays —
lower bound, upper bound (``+inf`` when unbounded) and integrality — which
:meth:`IlpModel.add_variable` appends to one column at a time for hand-built
models and :meth:`IlpModel.add_variables` extends by a whole block in one
call (the translator's path: a DIRECT translation has one column per
candidate tuple and creates no per-tuple Python object).  Constraints and the
objective store their coefficients as parallel ``indices``/``values`` arrays
(coefficient triplets), not Python dicts.  :class:`Variable` is a read-only
view of one column, made on demand.  The model is deliberately
solver-agnostic: :meth:`IlpModel.to_matrix` exports the sparse-first
:class:`~repro.ilp.matrix_form.MatrixForm` IR that every LP/ILP solver
consumes, handing it the bound arrays as they are.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.errors import SolverError
from repro.ilp.matrix_form import MatrixForm, assemble_matrix, choose_sparse

__all__ = [
    "ConstraintSense",
    "ObjectiveSense",
    "Variable",
    "Constraint",
    "Objective",
    "IlpModel",
    "MatrixForm",
]


class ConstraintSense(enum.Enum):
    """Direction of a linear constraint."""

    LE = "<="
    GE = ">="
    EQ = "="


class ObjectiveSense(enum.Enum):
    """Optimisation direction."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def better(self, a: float, b: float) -> bool:
        """Whether objective value ``a`` is strictly better than ``b``."""
        return a < b if self is ObjectiveSense.MINIMIZE else a > b

    @property
    def worst_value(self) -> float:
        return float("inf") if self is ObjectiveSense.MINIMIZE else float("-inf")


@dataclass(frozen=True)
class Variable:
    """Read-only view of one column of an :class:`IlpModel`.

    The model stores its columns as arrays; a view is made when a caller asks
    for one (:meth:`IlpModel.add_variable`, :meth:`IlpModel.variable_by_name`).

    Attributes:
        name: Unique variable name within the model.
        lower: Lower bound (>= 0 for package multiplicities).
        upper: Upper bound; ``None`` means unbounded above.
        is_integer: Whether the variable is integrality-constrained.
        index: Column position in the model.
    """

    name: str
    lower: float = 0.0
    upper: float | None = None
    is_integer: bool = True
    index: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.upper is not None and self.upper < self.lower:
            raise SolverError(
                f"variable {self.name!r}: upper bound {self.upper} < lower bound {self.lower}"
            )


def _coefficient_arrays(
    coefficients: Mapping[int, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Convert a coefficient mapping to sorted (indices, values) arrays, dropping zeros."""
    if not coefficients:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    indices = np.fromiter(coefficients.keys(), dtype=np.int64, count=len(coefficients))
    values = np.fromiter(coefficients.values(), dtype=np.float64, count=len(coefficients))
    # Structural zero-dropping: exactly-0.0 marks a non-entry of the sparse
    # triplets (a tolerance would silently drop small real coefficients).
    nonzero = values.astype(bool)
    if not nonzero.all():
        indices, values = indices[nonzero], values[nonzero]
    order = np.argsort(indices, kind="stable")
    return indices[order], values[order]


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a column array read-only: exported matrix forms alias it."""
    array.flags.writeable = False
    return array


def _validate_arrays(
    indices: np.ndarray, values: np.ndarray, num_variables: int, what: str
) -> tuple[np.ndarray, np.ndarray]:
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if indices.shape != values.shape:
        raise SolverError(
            f"{what}: indices and values have mismatched lengths "
            f"({len(indices)} vs {len(values)})"
        )
    if indices.size:
        if indices.min() < 0 or indices.max() >= num_variables:
            raise SolverError(f"{what} references an unknown variable index")
        if np.unique(indices).size != indices.size:
            raise SolverError(f"{what} contains duplicate variable indices")
    # Structural zero-dropping, as in _coefficient_arrays.
    nonzero = values.astype(bool)
    if not nonzero.all():
        indices, values = indices[nonzero], values[nonzero]
    return indices, values


class Constraint:
    """A linear constraint ``values · x[indices]  <sense>  rhs``.

    Coefficients are stored as parallel ``indices``/``values`` arrays.  The
    dict view :attr:`coefficients` is materialised lazily for compatibility
    and introspection; hot paths (evaluation, matrix assembly) never touch it.
    """

    __slots__ = ("name", "indices", "values", "sense", "rhs", "_coefficients")

    def __init__(
        self,
        name: str,
        coefficients: Mapping[int, float] | None,
        sense: ConstraintSense,
        rhs: float,
        *,
        indices: np.ndarray | None = None,
        values: np.ndarray | None = None,
    ):
        self.name = name
        if indices is None:
            indices, values = _coefficient_arrays(coefficients or {})
        self.indices = indices
        self.values = values
        self.sense = sense
        self.rhs = float(rhs)
        self._coefficients: dict[int, float] | None = None

    @property
    def coefficients(self) -> dict[int, float]:
        """Mapping view of the coefficients (built lazily, then cached)."""
        if self._coefficients is None:
            self._coefficients = dict(zip(self.indices.tolist(), self.values.tolist()))
        return self._coefficients

    def __getstate__(self) -> dict:
        """Ship the constraint without its lazy dict view.

        ``_coefficients`` duplicates the indices/values arrays as a Python
        dict; inside a pickled :class:`SolveTask` it would roughly double the
        per-constraint payload for state the worker can rebuild lazily.
        """
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["_coefficients"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def evaluate(self, values: np.ndarray) -> float:
        """Evaluate the left-hand side under a full assignment ``values``."""
        if not self.indices.size:
            return 0.0
        return float(self.values @ values[self.indices])

    def is_satisfied(self, values: np.ndarray, tolerance: float = 1e-6) -> bool:
        """Whether the constraint holds under ``values`` (with tolerance)."""
        lhs = self.evaluate(values)
        if self.sense is ConstraintSense.LE:
            return lhs <= self.rhs + tolerance
        if self.sense is ConstraintSense.GE:
            return lhs >= self.rhs - tolerance
        return abs(lhs - self.rhs) <= tolerance

    def violation(self, values: np.ndarray) -> float:
        """Return how much the constraint is violated (0 when satisfied)."""
        lhs = self.evaluate(values)
        if self.sense is ConstraintSense.LE:
            return max(0.0, lhs - self.rhs)
        if self.sense is ConstraintSense.GE:
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)

    def __repr__(self) -> str:
        return (
            f"Constraint(name={self.name!r}, nnz={self.nnz}, "
            f"sense={self.sense.value!r}, rhs={self.rhs})"
        )


class Objective:
    """A linear objective ``optimise values · x[indices]``."""

    __slots__ = ("sense", "indices", "values", "_coefficients")

    def __init__(
        self,
        sense: ObjectiveSense,
        coefficients: Mapping[int, float] | None = None,
        *,
        indices: np.ndarray | None = None,
        values: np.ndarray | None = None,
    ):
        self.sense = sense
        if indices is None:
            indices, values = _coefficient_arrays(coefficients or {})
        self.indices = indices
        self.values = values
        self._coefficients: dict[int, float] | None = None

    @property
    def coefficients(self) -> dict[int, float]:
        """Mapping view of the coefficients (built lazily, then cached)."""
        if self._coefficients is None:
            self._coefficients = dict(zip(self.indices.tolist(), self.values.tolist()))
        return self._coefficients

    def __getstate__(self) -> dict:
        """Ship the objective without its lazy dict view (see Constraint)."""
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["_coefficients"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    def evaluate(self, values: np.ndarray) -> float:
        if not self.indices.size:
            return 0.0
        return float(self.values @ values[self.indices])

    def __repr__(self) -> str:
        return f"Objective(sense={self.sense.value!r}, nnz={self.indices.size})"


class IlpModel:
    """A mutable integer linear program.

    Typical usage::

        model = IlpModel(name="example")
        x = [model.add_variable(f"x{i}", upper=1) for i in range(3)]
        model.add_constraint({0: 1.0, 1: 1.0, 2: 1.0}, ConstraintSense.EQ, 2, name="count")
        model.set_objective(ObjectiveSense.MINIMIZE, {0: 3.0, 1: 1.0, 2: 2.0})
    """

    def __init__(self, name: str = "ilp"):
        self.name = name
        self.constraints: list[Constraint] = []
        self.objective = Objective(ObjectiveSense.MINIMIZE, {})
        #: Storage override for :meth:`to_matrix`: ``True`` forces CSR,
        #: ``False`` forces dense, ``None`` (default) decides by size/density.
        self.sparse_matrix: bool | None = None
        self._lower = np.empty(0)
        self._upper = np.empty(0)
        self._integer = np.empty(0, dtype=bool)
        #: Column names; ``None`` for the anonymous columns of a block.
        self._names: list[str | None] = []
        self._matrix_cache: dict[bool, MatrixForm] = {}

    # -- construction -----------------------------------------------------------

    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: float | None = None,
        is_integer: bool = True,
    ) -> Variable:
        """Add one named column; the returned view's ``index`` identifies it."""
        if name in self._names:
            raise SolverError(f"duplicate variable name: {name!r}")
        variable = Variable(name, lower, upper, is_integer, index=self.num_variables)
        self._append_columns(
            [lower], [np.inf if upper is None else upper], [is_integer], [name]
        )
        return variable

    def add_variables(
        self, lower: np.ndarray, upper: np.ndarray, is_integer: np.ndarray | bool = True
    ) -> None:
        """Append a block of anonymous columns in one call.

        ``lower`` and ``upper`` are equal-length arrays (``+inf`` for no upper
        bound); ``is_integer`` is an array or one flag for the whole block.
        This is how the PaQL translator creates one column per candidate
        tuple without a per-tuple Python object.
        """
        lower = np.asarray(lower, dtype=np.float64).reshape(-1)
        upper = np.asarray(upper, dtype=np.float64).reshape(-1)
        if lower.shape != upper.shape:
            raise SolverError(
                f"lower and upper bounds have mismatched lengths "
                f"({len(lower)} vs {len(upper)})"
            )
        if np.any(upper < lower):
            raise SolverError("a variable's upper bound is below its lower bound")
        is_integer = np.broadcast_to(np.asarray(is_integer, dtype=bool), lower.shape)
        self._append_columns(lower, upper, is_integer, [None] * len(lower))

    def _append_columns(self, lower, upper, is_integer, names: list) -> None:
        self._lower = _frozen(np.append(self._lower, lower))
        self._upper = _frozen(np.append(self._upper, upper))
        self._integer = _frozen(np.append(self._integer, np.asarray(is_integer, dtype=bool)))
        self._names.extend(names)
        self._matrix_cache = {}

    def add_constraint(
        self,
        coefficients: Mapping[int, float],
        sense: ConstraintSense,
        rhs: float,
        name: str | None = None,
    ) -> Constraint:
        """Add a linear constraint over variable indices."""
        indices, values = _coefficient_arrays(
            {int(i): float(c) for i, c in coefficients.items()}
        )
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_variables):
            raise SolverError("constraint references unknown variable index")
        constraint = Constraint(
            name or f"c{len(self.constraints)}",
            None,
            sense,
            float(rhs),
            indices=indices,
            values=values,
        )
        self.constraints.append(constraint)
        self._matrix_cache = {}
        return constraint

    def add_constraint_arrays(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        sense: ConstraintSense,
        rhs: float,
        name: str | None = None,
    ) -> Constraint:
        """Add a constraint from parallel coefficient arrays (the fast path).

        ``indices`` must be unique; zero coefficients are dropped.  This is
        how the PaQL translator feeds per-tuple coefficient vectors into the
        model without materialising intermediate dicts.
        """
        indices, values = _validate_arrays(
            indices, values, self.num_variables, f"constraint {name or len(self.constraints)}"
        )
        constraint = Constraint(
            name or f"c{len(self.constraints)}",
            None,
            sense,
            float(rhs),
            indices=indices,
            values=values,
        )
        self.constraints.append(constraint)
        self._matrix_cache = {}
        return constraint

    def set_objective(self, sense: ObjectiveSense, coefficients: Mapping[int, float]) -> None:
        """Set the linear objective.  An empty mapping yields a feasibility problem."""
        indices, values = _coefficient_arrays(
            {int(i): float(c) for i, c in coefficients.items()}
        )
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_variables):
            raise SolverError("objective references unknown variable index")
        self.objective = Objective(sense, None, indices=indices, values=values)
        self._matrix_cache = {}

    def set_objective_arrays(
        self, sense: ObjectiveSense, indices: np.ndarray, values: np.ndarray
    ) -> None:
        """Set the objective from parallel coefficient arrays (the fast path)."""
        indices, values = _validate_arrays(indices, values, self.num_variables, "objective")
        self.objective = Objective(sense, None, indices=indices, values=values)
        self._matrix_cache = {}

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Ship the model without its memoized matrix export.

        The cached :class:`MatrixForm` (and its form-level working caches)
        is derived, process-local state; a worker that unpickles the model
        re-exports it on demand.  Dropping it keeps solve-task payloads lean
        and guarantees no scratch objects are shared across processes.
        """
        state = self.__dict__.copy()
        state["_matrix_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._matrix_cache = {}
        # Unpickled arrays come back writeable.
        for columns in (self._lower, self._upper, self._integer):
            _frozen(columns)

    # -- introspection -----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._lower)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def constraint_nnz(self) -> int:
        """Structural non-zeros across all constraints."""
        return sum(c.nnz for c in self.constraints)

    @property
    def is_pure_feasibility(self) -> bool:
        return self.objective.indices.size == 0

    def variable_by_name(self, name: str) -> Variable:
        """A view of the column :meth:`add_variable` created under ``name``."""
        try:
            index = self._names.index(name)
        except ValueError:
            raise SolverError(f"variable {name!r} not found") from None
        upper = float(self._upper[index])
        return Variable(
            name,
            float(self._lower[index]),
            None if np.isinf(upper) else upper,
            bool(self._integer[index]),
            index=index,
        )

    def objective_value(self, values: np.ndarray) -> float:
        """Evaluate the objective under a full assignment."""
        return self.objective.evaluate(values)

    def bound_and_integrality_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(lower, upper, is_integer)`` column arrays.

        ``upper`` uses ``+inf`` for unbounded variables.  These are the
        model's own storage, shared with every exported matrix form and
        marked read-only; copy before changing anything.
        """
        return self._lower, self._upper, self._integer

    def check_feasible(self, values: np.ndarray, tolerance: float = 1e-6) -> bool:
        """Whether ``values`` satisfies all bounds, integrality and constraints."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.num_variables,):
            return False
        lower, upper, is_integer = self.bound_and_integrality_arrays()
        if np.any(values < lower - tolerance) or np.any(values > upper + tolerance):
            return False
        if np.any(is_integer & (np.abs(values - np.rint(values)) > tolerance)):
            return False
        return all(c.is_satisfied(values, tolerance) for c in self.constraints)

    def total_violation(self, values: np.ndarray) -> float:
        """Sum of constraint violations under ``values`` (useful in tests)."""
        return float(sum(c.violation(values) for c in self.constraints))

    # -- export -------------------------------------------------------------------

    def to_matrix(self, sparse: bool | None = None) -> MatrixForm:
        """Export to the :class:`MatrixForm` IR (``A_ub x <= b_ub``, ``A_eq x = b_eq``).

        Assembly is O(nnz): per-constraint coefficient arrays are concatenated
        into triplets and handed to the CSR builder (or scattered into a dense
        array for tiny/dense models — see :mod:`repro.ilp.matrix_form` for the
        fallback policy).  ``sparse`` overrides that policy; ``None`` defers to
        :attr:`sparse_matrix` and then to the automatic choice.

        The export is memoized per storage kind: repeated calls return the
        same :class:`MatrixForm` instance until the model gains a variable,
        a constraint or a new objective.  Callers must treat the returned
        arrays as read-only (branch-and-bound shares them across every node,
        varying only the bounds).
        """
        if sparse is None:
            sparse = self.sparse_matrix
        if sparse is None:
            entries = self.num_constraints * self.num_variables
            sparse = choose_sparse(entries, self.constraint_nnz)
        cached = self._matrix_cache.get(sparse)
        if cached is None:
            cached = self._build_matrix(sparse)
            self._matrix_cache[sparse] = cached
        return cached

    def _build_matrix(self, make_sparse: bool) -> MatrixForm:
        n = self.num_variables
        ub_cols: list[np.ndarray] = []
        ub_data: list[np.ndarray] = []
        ub_rhs: list[float] = []
        eq_cols: list[np.ndarray] = []
        eq_data: list[np.ndarray] = []
        eq_rhs: list[float] = []
        for constraint in self.constraints:
            if constraint.sense is ConstraintSense.LE:
                ub_cols.append(constraint.indices)
                ub_data.append(constraint.values)
                ub_rhs.append(constraint.rhs)
            elif constraint.sense is ConstraintSense.GE:
                ub_cols.append(constraint.indices)
                ub_data.append(-constraint.values)
                ub_rhs.append(-constraint.rhs)
            else:
                eq_cols.append(constraint.indices)
                eq_data.append(constraint.values)
                eq_rhs.append(constraint.rhs)

        def build(cols: list[np.ndarray], data: list[np.ndarray]):
            num_rows = len(cols)
            if not num_rows:
                return assemble_matrix(
                    0, n,
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    np.empty(0),
                    make_sparse,
                )
            lengths = [len(c) for c in cols]
            row_ids = np.repeat(np.arange(num_rows, dtype=np.int64), lengths)
            col_ids = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
            values = np.concatenate(data) if data else np.empty(0)
            return assemble_matrix(num_rows, n, row_ids, col_ids, values, make_sparse)

        objective = np.zeros(n)
        objective[self.objective.indices] = self.objective.values
        if self.objective.sense is ObjectiveSense.MAXIMIZE:
            objective = -objective

        return MatrixForm(
            c=objective,
            a_ub=build(ub_cols, ub_data),
            b_ub=np.array(ub_rhs),
            a_eq=build(eq_cols, eq_data),
            b_eq=np.array(eq_rhs),
            bounds=(self._lower, self._upper),
            maximize=self.objective.sense is ObjectiveSense.MAXIMIZE,
        )

    def copy(self) -> "IlpModel":
        """Return a deep copy of the model (constraints and bounds included)."""
        clone = IlpModel(name=self.name)
        clone._append_columns(self._lower, self._upper, self._integer, self._names)
        for constraint in self.constraints:
            clone.add_constraint_arrays(
                constraint.indices.copy(),
                constraint.values.copy(),
                constraint.sense,
                constraint.rhs,
                name=constraint.name,
            )
        clone.set_objective_arrays(
            self.objective.sense,
            self.objective.indices.copy(),
            self.objective.values.copy(),
        )
        return clone

    def __repr__(self) -> str:
        return (
            f"IlpModel(name={self.name!r}, variables={self.num_variables}, "
            f"constraints={self.num_constraints}, sense={self.objective.sense.value})"
        )
