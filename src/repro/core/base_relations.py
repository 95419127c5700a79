"""Base-relation computation (Section 3.1–3.2 of the paper).

Base predicates (the WHERE clause) filter input tuples *before* the ILP is
built: any tuple failing the predicate gets ``x_i = 0`` and can therefore be
eliminated from the problem entirely, which the paper notes "can significantly
reduce the size of the problem".

Filtered aggregates — the sub-query form ``(SELECT COUNT(*) FROM P WHERE
P.carbs > 0)`` — similarly need per-tuple indicator vectors (the paper's
``R_c`` / ``R_p`` base relations); those are produced here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataset.table import Table
from repro.db.expressions import Expression
from repro.paql.ast import PackageQuery


@dataclass
class BaseRelation:
    """The tuples eligible to participate in packages for a query.

    Attributes:
        table: The original input relation (never copied).
        eligible_indices: Row indices of the original table that satisfy the
            base predicate, in ascending order.  ILP variables are created for
            exactly these rows.
    """

    table: Table
    eligible_indices: np.ndarray

    @property
    def num_eligible(self) -> int:
        return len(self.eligible_indices)


def compute_base_relation(table: Table, query: PackageQuery) -> BaseRelation:
    """Apply the query's base predicate and return the eligible rows."""
    if query.base_predicate is None:
        return BaseRelation(table, np.arange(table.num_rows, dtype=np.int64))
    mask = np.asarray(query.base_predicate.evaluate(table), dtype=bool)
    return BaseRelation(table, np.nonzero(mask)[0].astype(np.int64))


def indicator_vector(table: Table, condition: Expression, rows: np.ndarray) -> np.ndarray:
    """Return 0/1 indicators of ``condition`` for the given rows of ``table``.

    This implements the paper's indicator base relations (``1_{R_c}(t_i)``)
    used to translate filtered aggregates into linear coefficients.
    """
    mask = np.asarray(condition.evaluate(table), dtype=bool)
    return mask[np.asarray(rows, dtype=np.int64)].astype(np.float64)
