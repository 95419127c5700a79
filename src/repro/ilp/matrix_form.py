"""The matrix-form IR shared by every LP/ILP consumer.

A :class:`MatrixForm` is the single intermediate representation between an
:class:`~repro.ilp.model.IlpModel` and the solvers: the minimisation-form
objective vector, the ``A_ub x <= b_ub`` / ``A_eq x = b_eq`` constraint
matrices and the variable bounds — always a ``(lower, upper)`` pair of
arrays, the model's own column arrays at export.

The constraint matrices are dense ``numpy`` arrays, the storage the model
keeps its rows in (see :mod:`repro.ilp.model`); anything else is rejected at
construction, so no consumer checks or branches on a storage kind.

The form is immutable once built and is designed for structural sharing:
:meth:`with_bounds` derives a per-node view for branch-and-bound that shares
the objective and constraint buffers (and the ``cache`` dict, which the
simplex uses to memoise its assembled working matrix) while carrying its own
bounds vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SolverError


@dataclass
class MatrixForm:
    """Matrix export of an :class:`~repro.ilp.model.IlpModel` (a minimisation).

    Attributes:
        c: Objective vector (already negated for maximisation models).
        a_ub: ``<=`` constraint matrix, a 2-D float ``ndarray`` with one
            column per variable.  GE model constraints appear negated here.
        b_ub: Right-hand sides of the ``<=`` rows.
        a_eq: Equality constraint matrix (same type and width as ``a_ub``).
        b_eq: Right-hand sides of the equality rows.
        bounds: The ``(lower_array, upper_array)`` pair, ``±inf`` meaning
            unbounded.  :meth:`~repro.ilp.model.IlpModel.to_matrix` hands
            over the model's own column arrays; branch-and-bound swaps in
            per-node arrays without copying the matrices (see
            :meth:`with_bounds`).
        maximize: Whether the source model maximises (for converting the
            minimised objective back).
        cache: Scratch dict shared by every :meth:`with_bounds` view of this
            form.  The simplex stores its assembled working matrix here so all
            branch-and-bound nodes reuse one copy.
    """

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    bounds: tuple[np.ndarray, np.ndarray]
    maximize: bool
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The solvers index and multiply these as arrays, and ``np.asarray``
        # of a sparse-matrix object, say, is a 0-d object array.
        for name in ("a_ub", "a_eq"):
            matrix = getattr(self, name)
            if not (
                isinstance(matrix, np.ndarray)
                and matrix.ndim == 2
                and matrix.dtype.kind == "f"
                and matrix.shape[1] == len(self.c)
            ):
                raise SolverError(
                    f"MatrixForm.{name} must be a 2-D float ndarray with {len(self.c)} "
                    f"columns, got {type(matrix).__name__} of shape "
                    f"{getattr(matrix, 'shape', None)}"
                )

    # -- pickling ---------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Ship the form without its per-process working caches.

        The ``cache`` dict holds the simplex's assembled working matrix —
        derived, process-local state that would bloat the pickle and, worse,
        alias one process's scratch objects into another.  Workers rebuild it
        on first use.
        """
        state = self.__dict__.copy()
        state["cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.cache = {}

    # -- introspection -----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self.c)

    @property
    def nnz(self) -> int:
        """Non-zero coefficients across both constraint matrices."""
        return int(np.count_nonzero(self.a_ub)) + int(np.count_nonzero(self.a_eq))

    # -- objective / bounds -------------------------------------------------------

    def objective_from_min(self, min_value: float) -> float:
        """Convert the minimised objective value back to the model's sense."""
        return -min_value if self.maximize else min_value

    def bound_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounds as ``(lower, upper)`` float arrays using ``±inf``.

        Always returns fresh arrays: :attr:`bounds` aliases the model's
        columns or bounds shared across branch-and-bound nodes, so handing out
        the live arrays would let a caller silently corrupt sibling nodes.
        """
        return self.bounds[0].copy(), self.bounds[1].copy()

    def with_bounds(self, lower: np.ndarray, upper: np.ndarray) -> "MatrixForm":
        """A view of this form with different variable bounds.

        The objective and constraint buffers — and the ``cache`` holding the
        simplex's assembled working matrix — are shared, not copied: this is
        the cheap path branch-and-bound uses to materialise a child node.
        """
        return MatrixForm(
            c=self.c,
            a_ub=self.a_ub,
            b_ub=self.b_ub,
            a_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=(lower, upper),
            maximize=self.maximize,
            cache=self.cache,
        )
