"""The simplex basis, held as an explicit dense inverse.

The LPs this library solves have one row per global PaQL constraint: every LP
of the ``benchmarks/e2e`` workloads has a 2-7 row basis, thousands of them per
query.  At that size the cost of a basis solve is the cost of *calling* it, so
:class:`BasisFactor` keeps ``B⁻¹`` itself as one ``(m, m)`` array and every
solve is a single product:

* :meth:`BasisFactor.ftran` — ``B⁻¹ v`` (entering-column transformation,
  basic-value computation) is ``inv @ v``,
* :meth:`BasisFactor.btran` — ``v B⁻¹``, the solution of ``y B = v``
  (dual/pricing vector) is ``v @ inv``, and
* :meth:`BasisFactor.btran_row` — row ``r`` of ``B⁻¹`` (the dual-simplex
  pivot row) is a row read.

The inverse is **built** by :meth:`BasisFactor.factorize` from an LU
factorisation with partial pivoting (LAPACK ``getrf`` via
:func:`scipy.linalg.lu_factor`), which is also where a singular or non-finite
basis matrix is rejected, and **advanced** per pivot by the rank-one
product-form update (:meth:`BasisFactor.update`).  An explicit inverse drifts
as updates accumulate, so three things bound the drift: ``update`` refuses a
pivot smaller than :data:`STABILITY_TOLERANCE` relative to its column (the
caller reinverts from the basis columns instead), the caller reinverts every
``_REFACTOR_INTERVAL`` updates whatever happened in between — :attr:`updates`
counts them and travels with a snapshot, so a chain of warm starts cannot
outrun the interval — and whoever installs an inherited inverse checks its
residual against their own matrix first (see :mod:`repro.ilp.simplex`).

``update`` writes the new inverse to a *new* array and never touches the old
one.  That is what makes :meth:`snapshot` O(1): a snapshot shares the array by
reference, and neither side can change what the other sees.  An optimal solve
exports its basis with a snapshot attached and a related reoptimisation
(branch-and-bound child, SKETCHREFINE backtracking retry) installs it instead
of reinverting.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg as sla

#: A pivot must be at least this large relative to the largest entry of its
#: transformed column; smaller pivots refuse the update and force a
#: reinversion (the product-form analogue of partial pivoting).
STABILITY_TOLERANCE = 1e-8

#: U diagonal entries below this (relative to the largest) mean the basis
#: matrix is numerically singular and the factorisation is rejected.
_SINGULAR_TOLERANCE = 1e-12


class BasisFactor:
    """The inverse of a basis matrix and the count of pivots folded into it.

    Instances are created through :meth:`factorize` (or :meth:`identity` for
    the all-artificial start basis, whose matrix is I) and advanced by
    :meth:`update` after each simplex pivot.  The array an instance holds is
    read-only once built — an update replaces it — so it may be shared with
    any number of :meth:`snapshot` copies.
    """

    __slots__ = ("m", "updates", "_inv")

    def __init__(self, inverse: np.ndarray, updates: int = 0):
        self.m = inverse.shape[0]
        #: Pivots applied since the inverse was last built from basis columns.
        self.updates = updates
        inverse.setflags(write=False)
        self._inv = inverse

    # -- construction -------------------------------------------------------------

    @classmethod
    def identity(cls, m: int) -> "BasisFactor":
        """The factor of the ``m×m`` identity (the all-artificial basis)."""
        return cls(np.eye(m))

    @classmethod
    def factorize(cls, basis_matrix: np.ndarray) -> "BasisFactor | None":
        """Invert a basis matrix through its LU; ``None`` when singular/non-finite."""
        matrix = np.asarray(basis_matrix, dtype=np.float64)
        m = matrix.shape[0]
        if m == 0:
            return cls.identity(0)
        if not np.all(np.isfinite(matrix)):
            return None
        try:
            lu, piv = sla.lu_factor(matrix, check_finite=False)
        except (ValueError, sla.LinAlgError):
            return None
        if not np.all(np.isfinite(lu)):
            return None
        diag = np.abs(np.diagonal(lu))
        if diag.min() <= _SINGULAR_TOLERANCE * max(1.0, float(diag.max())):
            return None
        return cls(sla.lu_solve((lu, piv), np.eye(m), check_finite=False))

    def snapshot(self) -> "BasisFactor":
        """An O(1) copy that answers for the basis this factor represents now.

        The inverse array is shared, not copied; later :meth:`update` calls on
        either side replace that side's array and leave the other's alone.
        """
        return BasisFactor(self._inv, self.updates)

    def matches(self, m: int) -> bool:
        """Whether this factor solves systems of the given dimension."""
        return self.m == m

    # -- solves -------------------------------------------------------------------

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """``B⁻¹ v`` — forward transformation."""
        return self._inv @ v

    def btran(self, v: np.ndarray) -> np.ndarray:
        """``v B⁻¹`` — backward transformation."""
        return v @ self._inv

    def btran_row(self, r: int) -> np.ndarray:
        """Row ``r`` of ``B⁻¹`` (``e_r B⁻¹``), the dual-simplex pivot row (a view)."""
        return self._inv[r]

    # -- updates ------------------------------------------------------------------

    def update(self, row: int, w: np.ndarray) -> bool:
        """Fold in a pivot at ``row`` whose FTRAN'd entering column is ``w``.

        ``w`` must be ``ftran`` of the entering column *before* the update
        (the classic product-form construction).  Returns ``False`` — inverse
        left as it was — when the pivot element is too small relative to the
        column to be numerically trustworthy; the caller must reinvert instead.
        """
        pivot = float(w[row])
        if not math.isfinite(pivot):
            return False
        if abs(pivot) < STABILITY_TOLERANCE * max(1.0, float(np.abs(w).max())):
            return False
        pivot_row = self._inv[row] / pivot
        inverse = self._inv - w[:, None] * pivot_row
        inverse[row] = pivot_row
        inverse.setflags(write=False)
        self._inv = inverse
        self.updates += 1
        return True
