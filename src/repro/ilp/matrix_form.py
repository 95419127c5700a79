"""The matrix-form IR shared by every LP/ILP consumer.

A :class:`MatrixForm` is the single intermediate representation between an
:class:`~repro.ilp.model.IlpModel` and the solvers: the minimisation-form
objective vector, the ``A_ub x <= b_ub`` / ``A_eq x = b_eq`` constraint
matrices and the variable bounds — always a ``(lower, upper)`` pair of
arrays, the model's own column arrays at export.

The constraint matrices are dense ``numpy`` arrays, the storage the model
keeps its rows in (see :mod:`repro.ilp.model`); anything else is rejected at
construction, so no consumer checks or branches on a storage kind.

The form enforces its own immutability: it is a frozen dataclass, and every
array it holds is read-only (a writable array passed in is wrapped in a
read-only view, so the caller's array is never flipped).  It is designed for
structural sharing: :meth:`with_bounds` derives a per-node view for
branch-and-bound that shares the objective and constraint buffers (and the
``cache`` dict, which the simplex uses to memoise its assembled working
matrix) while carrying its own bounds vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SolverError


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself when it is read-only, else a read-only view of it."""
    if not array.flags.writeable:
        return array
    view = array.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class MatrixForm:
    """Matrix export of an :class:`~repro.ilp.model.IlpModel` (a minimisation).

    Immutable: rebinding a field raises ``FrozenInstanceError`` and the
    arrays below are read-only, so a store through any form raises rather
    than corrupting the nodes that share its buffers.  Only ``cache`` is
    writable.

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
        for name in ("c", "a_ub", "b_ub", "a_eq", "b_eq"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        lower, upper = self.bounds
        object.__setattr__(self, "bounds", (_read_only(lower), _read_only(upper)))

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

        Always returns fresh, writable arrays: :attr:`bounds` is read-only
        (it aliases the model's columns or a node's bounds), and callers of
        this method edit what they get.
        """
        return self.bounds[0].copy(), self.bounds[1].copy()

    def with_bounds(self, lower: np.ndarray, upper: np.ndarray) -> "MatrixForm":
        """A view of this form with different variable bounds.

        The objective and constraint buffers — and the ``cache`` holding the
        simplex's assembled working matrix — are shared, not copied: this is
        the cheap path branch-and-bound uses to materialise a child node.
        The shared arrays were made read-only when this form was built, so
        only the two new bound arrays are wrapped (in read-only views: the
        caller keeps writing its own arrays).
        """
        view = object.__new__(MatrixForm)
        view.__dict__.update(self.__dict__, bounds=(_read_only(lower), _read_only(upper)))
        return view
