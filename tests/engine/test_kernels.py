"""Tests for the column-sweep kernels of the OPM matrix equation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.engine import kernels
from repro.engine.backends import PencilBank, select_backend
from repro.errors import SolverError
from repro.opmat import (
    differentiation_coefficients,
    differentiation_matrix,
    fractional_differentiation_coefficients,
    fractional_differentiation_matrix,
)


def brute_force(E, A, R, D):
    """Dense Kronecker reference for E X D = A X + R."""
    n, m = R.shape
    big = np.kron(D.T, E) - np.kron(np.eye(m), A)
    return np.linalg.solve(big, R.T.reshape(-1)).reshape(m, n).T


def bank(E, A, mode="auto"):
    return PencilBank(select_backend(E, A, mode=mode))


@pytest.fixture
def small_system(rng):
    n, m = 4, 9
    E = np.eye(n) + 0.05 * rng.standard_normal((n, n))
    A = -np.eye(n) - 0.3 * rng.standard_normal((n, n))
    R = rng.standard_normal((n, m))
    return E, A, R


class TestToeplitzSolve:
    def test_matches_brute_force_first_order(self, small_system):
        E, A, R = small_system
        m, h = R.shape[1], 0.2
        coeffs = differentiation_coefficients(m, h)
        pencils = bank(E, A)
        X = kernels.sweep_toeplitz(pencils, R, coeffs, alternating_tail=True)
        np.testing.assert_allclose(
            X, brute_force(E, A, R, differentiation_matrix(m, h)), rtol=1e-9
        )
        assert pencils.factorisations == 1

    def test_matches_brute_force_fractional(self, small_system):
        E, A, R = small_system
        m, h, alpha = R.shape[1], 0.2, 0.6
        coeffs = fractional_differentiation_coefficients(alpha, m, h)
        X = kernels.sweep_toeplitz(bank(E, A), R, coeffs)
        np.testing.assert_allclose(
            X,
            brute_force(E, A, R, fractional_differentiation_matrix(alpha, m, h)),
            rtol=1e-9,
        )

    def test_alternating_and_general_paths_agree(self, small_system):
        E, A, R = small_system
        coeffs = differentiation_coefficients(R.shape[1], 0.37)
        X_fast = kernels.sweep_toeplitz(bank(E, A), R, coeffs, alternating_tail=True)
        X_slow = kernels.sweep_toeplitz(bank(E, A), R, coeffs, alternating_tail=False)
        np.testing.assert_allclose(X_fast, X_slow, rtol=1e-10)

    def test_sparse_and_dense_agree(self, small_system):
        E, A, R = small_system
        coeffs = differentiation_coefficients(R.shape[1], 0.1)
        X_dense = kernels.sweep_toeplitz(bank(E, A), R, coeffs)
        X_sparse = kernels.sweep_toeplitz(
            bank(sp.csr_matrix(E), sp.csr_matrix(A)), R, coeffs
        )
        np.testing.assert_allclose(X_dense, X_sparse, rtol=1e-9)

    def test_rejects_non_alternating_with_fast_tail(self, small_system):
        E, A, R = small_system
        coeffs = fractional_differentiation_coefficients(0.5, R.shape[1], 0.1)
        with pytest.raises(SolverError, match="alternat"):
            kernels.sweep_toeplitz(bank(E, A), R, coeffs, alternating_tail=True)

    def test_rejects_rhs_shape(self, small_system):
        E, A, R = small_system
        with pytest.raises(SolverError):
            kernels.sweep_toeplitz(
                bank(E, A), R[:, :3], differentiation_coefficients(9, 0.1)
            )

    def test_singular_pencil_raises(self):
        E = np.zeros((2, 2))
        A = np.zeros((2, 2))
        R = np.ones((2, 3))
        with pytest.raises(SolverError, match="singular"):
            kernels.sweep_toeplitz(bank(E, A), R, differentiation_coefficients(3, 0.1))

    def test_m_equals_one(self, small_system):
        E, A, _ = small_system
        R = np.ones((4, 1))
        coeffs = differentiation_coefficients(1, 0.5)
        X = kernels.sweep_toeplitz(bank(E, A), R, coeffs, alternating_tail=True)
        np.testing.assert_allclose(
            X[:, 0], np.linalg.solve(coeffs[0] * E - A, R[:, 0])
        )


class TestGeneralSolve:
    def test_matches_brute_force(self, small_system, rng):
        E, A, R = small_system
        m = R.shape[1]
        D = np.triu(rng.standard_normal((m, m))) + 5.0 * np.eye(m)
        X = kernels.sweep_general(bank(E, A), R, D)
        np.testing.assert_allclose(X, brute_force(E, A, R, D), rtol=1e-8)

    def test_caches_by_diagonal(self, small_system):
        E, A, R = small_system
        m = R.shape[1]
        diag = np.array([2.0, 3.0, 2.0, 3.0, 2.0, 3.0, 2.0, 3.0, 2.0])
        D = np.diag(diag) + np.triu(np.ones((m, m)), 1)
        pencils = bank(E, A)
        kernels.sweep_general(pencils, R, D)
        assert pencils.factorisations == 2

    def test_rejects_lower_triangular(self, small_system):
        E, A, R = small_system
        m = R.shape[1]
        D = np.tril(np.ones((m, m)))
        with pytest.raises(SolverError, match="upper triangular"):
            kernels.sweep_general(bank(E, A), R, D)

    def test_rejects_nonsquare_d(self, small_system):
        E, A, R = small_system
        with pytest.raises(SolverError):
            kernels.sweep_general(bank(E, A), R, np.ones((3, 9)))
