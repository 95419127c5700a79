"""Integer linear program model.

An :class:`IlpModel` holds integer (or continuous) variables with bounds, a
set of linear constraints and a linear objective.  The PaQL translator builds
one of these per package (sub)query; the solvers in this package consume it.

Everything is stored as arrays, and this module is the one place that decides
how.  The columns are three parallel arrays — lower bound, upper bound
(``+inf`` when unbounded) and integrality — which
:meth:`IlpModel.add_variable` appends to one column at a time for hand-built
models and :meth:`IlpModel.add_variables` extends by a whole block in one
call (the translator's path: a DIRECT translation has one column per
candidate tuple and creates no per-tuple Python object).  The constraints are
one dense, C-contiguous, read-only ``(m, n)`` coefficient block with parallel
senses, right-hand sides and names, and the objective is one length-``n``
vector: a PaQL global constraint has a coefficient for every eligible tuple,
so its row is dense from the start.  :meth:`IlpModel.add_constraints` takes
the translator's block over whole; :meth:`IlpModel.add_constraint` writes one
row from a ``{column: coefficient}`` mapping.  :class:`Variable`,
:class:`Constraint` and :class:`Objective` are read-only views of one column,
one row and the objective vector, made on demand.  The model is deliberately
solver-agnostic: :meth:`IlpModel.to_matrix` exports the
:class:`~repro.ilp.matrix_form.MatrixForm` IR that every LP/ILP solver
consumes — the rows split by sense, the bound arrays as they are.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.errors import SolverError
from repro.ilp.matrix_form import MatrixForm

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


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a model array read-only: views and exported matrix forms alias it."""
    array.flags.writeable = False
    return array


def _nonzero_mapping(vector: np.ndarray) -> dict[int, float]:
    columns = np.nonzero(vector)[0]
    return dict(zip(columns.tolist(), vector[columns].tolist()))


def _holds(lhs: float, sense: ConstraintSense, rhs: float, tolerance: float) -> bool:
    """Whether ``lhs <sense> rhs`` holds within ``tolerance``."""
    if sense is ConstraintSense.LE:
        return lhs <= rhs + tolerance
    if sense is ConstraintSense.GE:
        return lhs >= rhs - tolerance
    return abs(lhs - rhs) <= tolerance


@dataclass(frozen=True, eq=False, repr=False)
class Constraint:
    """Read-only view of one constraint ``row · x  <sense>  rhs`` of an :class:`IlpModel`.

    Attributes:
        name: Constraint name.
        row: The model's coefficient row, one entry per column (read-only).
        sense: Direction of the constraint.
        rhs: Right-hand side.
    """

    name: str
    row: np.ndarray
    sense: ConstraintSense
    rhs: float

    @property
    def coefficients(self) -> dict[int, float]:
        """The non-zero coefficients by column index, built on every call."""
        return _nonzero_mapping(self.row)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.row))

    def evaluate(self, values: np.ndarray) -> float:
        """Evaluate the left-hand side under a full assignment ``values``."""
        return float(self.row @ values)

    def is_satisfied(self, values: np.ndarray, tolerance: float = 1e-6) -> bool:
        """Whether the constraint holds under ``values`` (with tolerance)."""
        return _holds(self.evaluate(values), self.sense, self.rhs, tolerance)

    def __repr__(self) -> str:
        return (
            f"Constraint(name={self.name!r}, nnz={self.nnz}, "
            f"sense={self.sense.value!r}, rhs={self.rhs})"
        )


@dataclass(frozen=True, eq=False, repr=False)
class Objective:
    """Read-only view of the objective ``optimise vector · x`` of an :class:`IlpModel`."""

    sense: ObjectiveSense
    vector: np.ndarray

    @property
    def coefficients(self) -> dict[int, float]:
        """The non-zero coefficients by column index, built on every call."""
        return _nonzero_mapping(self.vector)

    def evaluate(self, values: np.ndarray) -> float:
        return float(self.vector @ values)

    def __repr__(self) -> str:
        return f"Objective(sense={self.sense.value!r}, nnz={np.count_nonzero(self.vector)})"


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
        self._lower = np.empty(0)
        self._upper = np.empty(0)
        self._integer = np.empty(0, dtype=bool)
        #: Column names; ``None`` for the anonymous columns of a block.
        self._names: list[str | None] = []
        #: The ``(m, n)`` coefficient block and what is parallel to its rows.
        self._rows = np.empty((0, 0))
        self._senses: list[ConstraintSense] = []
        self._rhs = np.empty(0)
        self._row_names: list[str] = []
        self._objective_sense = ObjectiveSense.MINIMIZE
        self._objective = np.empty(0)
        self._matrix_cache: MatrixForm | None = None

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
        """New columns have coefficient zero in every row and in the objective."""
        self._lower = _frozen(np.append(self._lower, lower))
        self._upper = _frozen(np.append(self._upper, upper))
        self._integer = _frozen(np.append(self._integer, np.asarray(is_integer, dtype=bool)))
        self._names.extend(names)
        padding = np.zeros((self.num_constraints, len(names)))
        self._rows = _frozen(np.hstack([self._rows, padding]))
        self._objective = _frozen(np.append(self._objective, np.zeros(len(names))))
        self._matrix_cache = None

    def _dense_vector(self, coefficients: Mapping[int, float], what: str) -> np.ndarray:
        """A ``{column: coefficient}`` mapping as one length-``n`` vector."""
        columns = np.fromiter(
            (int(i) for i in coefficients), dtype=np.int64, count=len(coefficients)
        )
        if columns.size and (columns.min() < 0 or columns.max() >= self.num_variables):
            raise SolverError(f"{what} references unknown variable index")
        if np.unique(columns).size != columns.size:
            raise SolverError(f"{what} contains duplicate variable indices")
        vector = np.zeros(self.num_variables)
        vector[columns] = np.fromiter(
            (float(c) for c in coefficients.values()), dtype=np.float64, count=columns.size
        )
        return vector

    def add_constraint(
        self,
        coefficients: Mapping[int, float],
        sense: ConstraintSense,
        rhs: float,
        name: str | None = None,
    ) -> Constraint:
        """Add a linear constraint over variable indices."""
        row = self._dense_vector(coefficients, "constraint")
        self.add_constraints(
            row[np.newaxis], [sense], [rhs], [name or f"c{self.num_constraints}"]
        )
        return self.constraints[-1]

    def add_constraints(
        self,
        block: np.ndarray,
        senses: Sequence[ConstraintSense],
        rhs: np.ndarray,
        names: Sequence[str],
    ) -> None:
        """Append a block of constraint rows in one call.

        ``block`` holds one coefficient per (row, column); ``senses``, ``rhs``
        and ``names`` are parallel to its rows.  The model takes a float64
        C-contiguous block over as it is — marked read-only, not copied —
        which is how the PaQL translator hands in the rows it built.
        """
        block = np.ascontiguousarray(block, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
        if block.ndim != 2 or block.shape[1] != self.num_variables:
            raise SolverError(
                f"constraint block of shape {block.shape} does not match "
                f"{self.num_variables} variables"
            )
        if not len(block) == len(senses) == len(rhs) == len(names):
            raise SolverError(
                f"constraint block has {len(block)} rows but {len(senses)} senses, "
                f"{len(rhs)} right-hand sides and {len(names)} names"
            )
        self._rows = _frozen(np.vstack([self._rows, block]) if self.num_constraints else block)
        self._senses.extend(senses)
        self._rhs = _frozen(np.append(self._rhs, rhs))
        self._row_names.extend(names)
        self._matrix_cache = None

    def set_objective(self, sense: ObjectiveSense, coefficients: Mapping[int, float]) -> None:
        """Set the linear objective.  An empty mapping yields a feasibility problem."""
        self.set_objective_vector(sense, self._dense_vector(coefficients, "objective"))

    def set_objective_vector(self, sense: ObjectiveSense, vector: np.ndarray) -> None:
        """Set the objective from one coefficient per column (taken over, read-only)."""
        vector = np.ascontiguousarray(vector, dtype=np.float64)
        if vector.shape != (self.num_variables,):
            raise SolverError(
                f"objective of shape {vector.shape} does not match "
                f"{self.num_variables} variables"
            )
        self._objective_sense = sense
        self._objective = _frozen(vector)
        self._matrix_cache = None

    # -- introspection -----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._lower)

    @property
    def num_constraints(self) -> int:
        return len(self._senses)

    @property
    def constraints(self) -> list[Constraint]:
        """A view of every constraint row, in model order."""
        return [
            Constraint(name, row, sense, float(rhs))
            for name, row, sense, rhs in zip(
                self._row_names, self._rows, self._senses, self._rhs
            )
        ]

    @property
    def objective(self) -> Objective:
        return Objective(self._objective_sense, self._objective)

    @property
    def constraint_nnz(self) -> int:
        """Non-zero coefficients across all constraints."""
        return int(np.count_nonzero(self._rows))

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
        if (values < lower - tolerance).any() or (values > upper + tolerance).any():
            return False
        if (is_integer & (np.abs(values - np.rint(values)) > tolerance)).any():
            return False
        # Row by row off the block, as Constraint.is_satisfied reads one row.
        return all(
            _holds(float(row @ values), sense, rhs, tolerance)
            for row, sense, rhs in zip(self._rows, self._senses, self._rhs.tolist())
        )

    # -- export -------------------------------------------------------------------

    def to_matrix(self) -> MatrixForm:
        """Export to the :class:`MatrixForm` IR (``A_ub x <= b_ub``, ``A_eq x = b_eq``).

        ``A_ub`` holds the LE and GE rows in model order, GE rows negated;
        ``A_eq`` the EQ rows in model order.

        The export is memoized: repeated calls return the same
        :class:`MatrixForm` instance until the model gains a variable, a
        constraint or a new objective.  Callers must treat the returned
        arrays as read-only (branch-and-bound shares them across every node,
        varying only the bounds).
        """
        if self._matrix_cache is None:
            self._matrix_cache = self._build_matrix()
        return self._matrix_cache

    def _build_matrix(self) -> MatrixForm:
        is_eq = np.array([sense is ConstraintSense.EQ for sense in self._senses], dtype=bool)
        a_ub, b_ub = self._rows[~is_eq], self._rhs[~is_eq]
        is_ge = np.array(
            [sense is ConstraintSense.GE for sense in self._senses], dtype=bool
        )[~is_eq]
        a_ub[is_ge] = -a_ub[is_ge]
        b_ub[is_ge] = -b_ub[is_ge]
        maximize = self._objective_sense is ObjectiveSense.MAXIMIZE
        return MatrixForm(
            c=-self._objective if maximize else self._objective,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=self._rows[is_eq],
            b_eq=self._rhs[is_eq],
            bounds=(self._lower, self._upper),
            maximize=maximize,
        )

    def __repr__(self) -> str:
        return (
            f"IlpModel(name={self.name!r}, variables={self.num_variables}, "
            f"constraints={self.num_constraints}, sense={self._objective_sense.value})"
        )
