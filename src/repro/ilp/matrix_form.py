"""The matrix-form IR shared by every LP/ILP consumer.

A :class:`MatrixForm` is the single intermediate representation between an
:class:`~repro.ilp.model.IlpModel` and the solvers: the minimisation-form
objective vector, the ``A_ub x <= b_ub`` / ``A_eq x = b_eq`` constraint
matrices and the variable bounds — always a ``(lower, upper)`` pair of
arrays, the model's own column arrays at export.

Storage is *sparse-first*: constraint matrices are ``scipy.sparse`` CSR
(``data`` / ``indices`` / ``indptr`` arrays) assembled in O(nnz) from the
model's per-constraint coefficient arrays.  Two situations fall back to plain
dense ``numpy`` arrays:

* tiny models (fewer than :data:`DENSE_FALLBACK_ENTRIES` matrix entries),
  where per-call ``scipy.sparse`` overhead dominates any storage saving, and
* very dense matrices, where CSR's index arrays would make the sparse copy
  *larger* than the dense one (package-query COUNT/SUM rows are often fully
  dense; a CSR entry costs 12 bytes against 8 for a dense cell).

Both representations expose the same interface, so consumers never branch on
the storage kind except through :attr:`MatrixForm.is_sparse`.

The form is immutable once built and is designed for structural sharing:
:meth:`with_bounds` derives a per-node view for branch-and-bound that shares
the objective and constraint buffers (and the ``cache`` dict, which the
simplex uses to memoise its assembled working matrix) while carrying its own
bounds vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse as sp

#: Below this many matrix entries (rows x cols) the dense fallback is used
#: unconditionally: every package-query refine ILP and most unit-test models
#: live here, and dense numpy beats scipy.sparse on per-call overhead.
DENSE_FALLBACK_ENTRIES = 16_384

#: Approximate bytes per stored CSR entry (float64 value + int32 column
#: index); used to decide whether the sparse copy would actually be smaller.
_CSR_BYTES_PER_ENTRY = 12
_DENSE_BYTES_PER_ENTRY = 8


def choose_sparse(num_entries: int, nnz: int) -> bool:
    """Whether CSR storage is worthwhile for a matrix of the given shape.

    Sparse wins when the matrix is big enough to matter *and* the CSR copy is
    genuinely smaller than the dense one.
    """
    if num_entries <= DENSE_FALLBACK_ENTRIES:
        return False
    return nnz * _CSR_BYTES_PER_ENTRY < num_entries * _DENSE_BYTES_PER_ENTRY


def _matrix_bytes(matrix) -> int:
    if sp.issparse(matrix):
        return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    return matrix.nbytes


@dataclass
class MatrixForm:
    """Matrix export of an :class:`~repro.ilp.model.IlpModel` (a minimisation).

    Attributes:
        c: Objective vector (already negated for maximisation models).
        a_ub: ``<=`` constraint matrix — ``scipy.sparse.csr_matrix`` or a
            dense ``ndarray`` (see module docstring for the fallback policy).
            GE model constraints appear negated here.
        b_ub: Right-hand sides of the ``<=`` rows.
        a_eq: Equality constraint matrix (same storage policy as ``a_ub``).
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
    a_ub: "sp.csr_matrix | np.ndarray"
    b_ub: np.ndarray
    a_eq: "sp.csr_matrix | np.ndarray"
    b_eq: np.ndarray
    bounds: tuple[np.ndarray, np.ndarray]
    maximize: bool
    cache: dict = field(default_factory=dict, repr=False, compare=False)

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

    # -- storage introspection ---------------------------------------------------

    @property
    def is_sparse(self) -> bool:
        """Whether the constraint matrices use CSR storage."""
        return sp.issparse(self.a_ub) or sp.issparse(self.a_eq)

    @property
    def num_variables(self) -> int:
        return len(self.c)

    @property
    def nnz(self) -> int:
        """Structural non-zeros across both constraint matrices."""
        total = 0
        for matrix in (self.a_ub, self.a_eq):
            if sp.issparse(matrix):
                total += matrix.nnz
            else:
                total += int(np.count_nonzero(matrix))
        return total

    def constraint_storage_bytes(self) -> int:
        """Bytes actually held by the constraint matrices (this storage kind)."""
        return _matrix_bytes(self.a_ub) + _matrix_bytes(self.a_eq)

    def dense_storage_bytes(self) -> int:
        """Bytes a fully dense copy of the constraint matrices would take."""
        rows = self.a_ub.shape[0] + self.a_eq.shape[0]
        return rows * self.num_variables * _DENSE_BYTES_PER_ENTRY

    def sparse_storage_bytes(self) -> int:
        """Bytes a CSR copy of the constraint matrices would take."""
        rows = self.a_ub.shape[0] + self.a_eq.shape[0]
        indptr = (rows + 2) * 4
        return self.nnz * _CSR_BYTES_PER_ENTRY + indptr

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


def assemble_matrix(
    num_rows: int,
    num_cols: int,
    row_ids: np.ndarray,
    col_ids: np.ndarray,
    data: np.ndarray,
    make_sparse: bool,
) -> "sp.csr_matrix | np.ndarray":
    """Assemble a constraint matrix from coefficient triplets in O(nnz).

    ``row_ids``/``col_ids``/``data`` are parallel triplet arrays; duplicate
    (row, col) pairs must not occur (the model enforces uniqueness per
    constraint).
    """
    if make_sparse:
        matrix = sp.csr_matrix(
            (data, (row_ids, col_ids)), shape=(num_rows, num_cols), dtype=np.float64
        )
        return matrix
    dense = np.zeros((num_rows, num_cols))
    dense[row_ids, col_ids] = data
    return dense
