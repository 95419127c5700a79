"""Property tests for the simplex basis inverse (:mod:`repro.ilp.factor`).

The invariants here are what lets the simplex trust FTRAN/BTRAN blindly:

* on a freshly inverted basis, ``ftran``/``btran``/``btran_row`` agree with
  ``np.linalg.inv`` to 1e-9,
* after ``k`` rank-one pivot updates the solves still agree with the inverse
  of the *updated* basis matrix,
* a snapshot shares the owner's array yet answers for the basis at snapshot
  time, whichever side pivots afterwards, and
* end to end, simplex solves over the basis inverse land on the HiGHS
  oracle's objective.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp.factor import BasisFactor
from repro.ilp.simplex import SimplexStatus, solve_dense_simplex

from .oracle import oracle_lp


def _random_basis(rng: np.random.Generator, m: int) -> np.ndarray:
    """A well-conditioned random ``m×m`` basis matrix (diagonally boosted)."""
    matrix = rng.uniform(-1.0, 1.0, size=(m, m))
    matrix += np.eye(m) * (1.0 + np.abs(matrix).sum(axis=1))
    return matrix


class TestFactorAgreesWithExplicitInverse:
    @pytest.mark.parametrize("m", [1, 2, 5, 13, 40])
    def test_ftran_btran_btran_row_match_inverse(self, m: int) -> None:
        rng = np.random.default_rng(m)
        for _ in range(5):
            basis = _random_basis(rng, m)
            inverse = np.linalg.inv(basis)
            factor = BasisFactor.factorize(basis)
            assert factor is not None
            v = rng.uniform(-10.0, 10.0, size=m)
            np.testing.assert_allclose(factor.ftran(v), inverse @ v, atol=1e-9)
            np.testing.assert_allclose(factor.btran(v), v @ inverse, atol=1e-9)
            for r in range(m):
                np.testing.assert_allclose(
                    factor.btran_row(r), inverse[r], atol=1e-9
                )

    def test_identity_factor_is_the_identity(self) -> None:
        factor = BasisFactor.identity(6)
        v = np.arange(6, dtype=np.float64)
        np.testing.assert_allclose(factor.ftran(v), v)
        np.testing.assert_allclose(factor.btran(v), v)
        np.testing.assert_allclose(factor.btran_row(3), np.eye(6)[3])

    def test_zero_dimension(self) -> None:
        factor = BasisFactor.identity(0)
        assert factor.ftran(np.zeros(0)).shape == (0,)
        assert factor.btran(np.zeros(0)).shape == (0,)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_matrix_rejected(self) -> None:
        singular = np.ones((3, 3))
        assert BasisFactor.factorize(singular) is None

    def test_non_finite_matrix_rejected(self) -> None:
        bad = np.eye(3)
        bad[1, 1] = np.nan
        assert BasisFactor.factorize(bad) is None


class TestUpdateConsistency:
    @pytest.mark.parametrize("m,k", [(4, 2), (8, 5), (20, 15), (30, 30)])
    def test_solves_agree_after_k_pivots(self, m: int, k: int) -> None:
        """After k rank-one updates, the factor solves the updated basis."""
        rng = np.random.default_rng(1000 * m + k)
        basis_matrix = _random_basis(rng, m)
        factor = BasisFactor.factorize(basis_matrix)
        assert factor is not None

        current = basis_matrix.copy()
        applied = 0
        while applied < k:
            # A pivot replaces one basis column with a new entering column.
            row = int(rng.integers(m))
            column = rng.uniform(-5.0, 5.0, size=m)
            column[row] += 10.0  # keep the pivot element trustworthy
            w = factor.ftran(column)
            if not factor.update(row, w):
                continue
            current[:, row] = column
            applied += 1

        assert factor.updates == k
        inverse = np.linalg.inv(current)
        v = rng.uniform(-10.0, 10.0, size=m)
        np.testing.assert_allclose(factor.ftran(v), inverse @ v, atol=1e-7)
        np.testing.assert_allclose(factor.btran(v), v @ inverse, atol=1e-7)
        r = int(rng.integers(m))
        np.testing.assert_allclose(factor.btran_row(r), inverse[r], atol=1e-7)

    def test_update_refuses_tiny_pivot(self) -> None:
        factor = BasisFactor.factorize(np.eye(3))
        assert factor is not None
        w = np.array([1.0, 1e-12, 0.5])
        assert not factor.update(1, w)
        assert factor.updates == 0
        np.testing.assert_array_equal(factor.ftran(w), w)

    def test_snapshot_shares_the_array_and_neither_side_disturbs_the_other(self) -> None:
        rng = np.random.default_rng(7)
        m = 6
        basis_matrix = _random_basis(rng, m)
        owner = BasisFactor.factorize(basis_matrix)
        assert owner is not None
        column = rng.uniform(-2.0, 2.0, size=m)
        column[2] += 10.0
        assert owner.update(2, owner.ftran(column))

        snapshot = owner.snapshot()
        assert np.shares_memory(snapshot.btran_row(0), owner.btran_row(0))
        assert snapshot.updates == 1  # the count travels with the inverse
        at_snapshot = np.column_stack([basis_matrix[:, :2], column, basis_matrix[:, 3:]])
        v = rng.uniform(-1.0, 1.0, size=m)

        # The owner pivots on: the snapshot still answers for the old basis.
        column_owner = rng.uniform(-2.0, 2.0, size=m)
        column_owner[4] += 10.0
        assert owner.update(4, owner.ftran(column_owner))
        np.testing.assert_allclose(snapshot.ftran(v), np.linalg.inv(at_snapshot) @ v, atol=1e-9)
        np.testing.assert_allclose(snapshot.btran(v), v @ np.linalg.inv(at_snapshot), atol=1e-9)

        # And vice versa: a pivot on the snapshot leaves the owner's basis alone.
        column_snapshot = rng.uniform(-2.0, 2.0, size=m)
        column_snapshot[0] += 10.0
        assert snapshot.update(0, snapshot.ftran(column_snapshot))
        after_owner = at_snapshot.copy()
        after_owner[:, 4] = column_owner
        after_snapshot = at_snapshot.copy()
        after_snapshot[:, 0] = column_snapshot
        np.testing.assert_allclose(owner.ftran(v), np.linalg.inv(after_owner) @ v, atol=1e-9)
        np.testing.assert_allclose(snapshot.ftran(v), np.linalg.inv(after_snapshot) @ v, atol=1e-9)
        assert (owner.updates, snapshot.updates) == (2, 2)

    def test_a_shared_inverse_cannot_be_written_through_a_row_view(self) -> None:
        factor = BasisFactor.factorize(_random_basis(np.random.default_rng(3), 4))
        assert factor is not None
        with pytest.raises(ValueError):
            factor.btran_row(1)[0] = 0.0


class TestFactorisedSolves:
    def test_random_lps_match_the_oracle(self) -> None:
        """Solves over the basis inverse land on the oracle's objective."""
        rng = np.random.default_rng(21)
        for trial in range(8):
            n, mu = 12, 6
            c = rng.uniform(-5.0, 5.0, size=n)
            a_ub = rng.uniform(-1.0, 2.0, size=(mu, n))
            b_ub = rng.uniform(5.0, 20.0, size=mu)
            bounds = [(0.0, float(u)) for u in rng.uniform(1.0, 10.0, size=n)]
            result = solve_dense_simplex(
                c, a_ub, b_ub, np.empty((0, n)), np.empty(0), bounds
            )
            reference = oracle_lp(c, a_ub, b_ub, bounds=bounds)
            assert result.status is SimplexStatus.OPTIMAL, trial
            assert reference.status == "optimal", trial
            assert abs(result.objective - reference.objective) <= 1e-7 * max(
                1.0, abs(reference.objective)
            )
