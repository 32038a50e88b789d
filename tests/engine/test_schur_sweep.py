"""The Schur-rotated integral sweep against a dense Kronecker oracle.

Spectral sessions, the ``jacobi`` zoo method, the spectral march and
the kernel pair :func:`~repro.engine.kernels.schur_form` +
:func:`~repro.engine.kernels.sweep_integral` on any ``F`` (the
defective Walsh/Haar integration matrices included) solve the
integral form ``E Z - A Z F = S`` as a block column sweep in the real
Schur coordinates of ``F``.  Every test here solves the same
equation through the explicit ``nm x nm`` Kronecker system
``(I (x) E - F^T (x) A) vec(Z) = vec(S)`` (:mod:`tests.kron_oracle`)
and compares at a stated relative tolerance: the two routes round
differently, so agreement is to the last few bits, not bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.basis import HaarBasis, WalshBasis
from repro.core import DescriptorSystem, FractionalDescriptorSystem
from repro.engine import Event, Simulator, kernels
from repro.engine.backends import PencilBank, select_backend
from repro.engine.inputs import project_input

from ..kron_oracle import integral_solve, session_oracle

RTOL = 1e-11

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.cir"))


def assert_relative(got, want, rtol=RTOL):
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= rtol, f"relative error {err:.3g} > {rtol:g}"


def ladder(alpha: float, sections: int = 8):
    """Sparse RC ladder driven at its first node, as an order-alpha system."""
    n = sections
    main = -2.0 * np.ones(n)
    main[-1] = -1.0
    A = sp.diags([main, np.ones(n - 1), np.ones(n - 1)], [0, 1, -1], format="csr")
    E = sp.identity(n, format="csr")
    B = np.zeros((n, 1))
    B[0, 0] = 1.0
    if alpha == 1.0:
        return DescriptorSystem(E, A, B)
    return FractionalDescriptorSystem(alpha, E, A, B)


def drive(t):
    return 1.0 + np.sin(3.0 * t)


class TestSpectralSessions:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("m", [24, 64])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0, 1.5])
    @pytest.mark.parametrize("basis", ["chebyshev", "legendre"])
    def test_matches_kron_oracle(self, basis, alpha, m, backend):
        sim = Simulator(ladder(alpha), (2.0, m), basis=basis, backend=backend)
        res = sim.run(drive)
        assert sim.backend == backend
        F = sim.bundle.fractional_integration_matrix(alpha)
        assert_relative(res.coefficients, session_oracle(sim, F, drive))

    def test_batched_sweep_matches_oracle(self):
        sim = Simulator(ladder(0.5), (2.0, 24), basis="chebyshev")
        inputs = [1.0, drive, lambda t: np.cos(t)]
        batch = sim.sweep(inputs)
        F = sim.bundle.fractional_integration_matrix(0.5)
        for got, u in zip(batch, inputs):
            assert_relative(got.coefficients, session_oracle(sim, F, u))

    def test_nonzero_initial_state(self):
        system = DescriptorSystem(
            [[1.0, 0.0], [0.0, 2.0]],
            [[-1.0, 0.5], [0.3, -2.0]],
            [[1.0], [0.0]],
            x0=[0.4, -0.2],
        )
        sim = Simulator(system, (1.5, 24), basis="legendre")
        F = sim.bundle.fractional_integration_matrix(1.0)
        assert_relative(sim.run(drive).coefficients, session_oracle(sim, F, drive))


class TestJacobiMethod:
    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    def test_matches_kron_oracle(self, alpha):
        sim = Simulator(ladder(alpha), (2.0, 24), method="jacobi")
        res = sim.run(drive)
        F = sim.method.integration_operator(sim.bundle.solver_bundle, alpha)
        assert_relative(res.coefficients, session_oracle(sim, F, drive))


class TestSpectralMarch:
    @pytest.mark.parametrize("basis", ["chebyshev", "legendre"])
    def test_pencil_event_march_matches_oracle(self, basis):
        """Each window of a classical march with a switch closure equals
        the window solved through the Kronecker oracle on the active
        pencil, carrying the terminal state."""
        system = ladder(1.0, sections=4)
        A_after = 2.0 * system.A
        sim = Simulator(system, (0.5, 16), basis=basis)
        res = sim.march(1.0, 2.0, events=[Event(t=1.0, A=A_after)])
        assert res.info["restamps"] == 1
        bundle = sim.bundle
        F = bundle.fractional_integration_matrix(1.0)
        ones = bundle.ones_coefficients()
        terminal = bundle.terminal_vector()
        U = sim.project(1.0)
        w0 = np.zeros(system.n_states)
        A = system.A
        for k, window in enumerate(res.windows):
            if k == 2:
                A = A_after
            R = system.B @ U + np.outer(np.asarray(A @ w0).reshape(-1), ones)
            X = integral_solve(system.E, A, F, R @ F) + np.outer(w0, ones)
            assert_relative(window.coefficients, X)
            w0 = X @ terminal


class TestExampleDecks:
    @pytest.mark.parametrize("deck", EXAMPLES, ids=[p.stem for p in EXAMPLES])
    def test_chebyshev_deck_matches_oracle(self, deck):
        probe = Simulator.from_netlist(deck)
        sim = Simulator.from_netlist(
            deck, (probe.basis.t_end, 24), basis="chebyshev"
        )
        res = sim.run()
        F = sim.bundle.fractional_integration_matrix(sim.system.alpha)
        assert_relative(res.coefficients, session_oracle(sim, F, sim.bound_input))


class TestIntegralSolver:
    @pytest.mark.parametrize("family", [WalshBasis, HaarBasis])
    @pytest.mark.parametrize("m", [16, 64, 256])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_walsh_haar_match_kron_oracle(self, family, m, alpha):
        """Walsh/Haar F is defective, yet the Schur sweep of the
        integral form ``E Z - A Z F = B U F`` matches the Kronecker
        solve."""
        system = FractionalDescriptorSystem(
            alpha,
            [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 2.0]],
            [[-1.0, 0.4, 0.0], [0.2, -1.0, 0.3], [0.0, 0.5, -1.5]],
            [[1.0], [0.0], [0.5]],
        )
        basis = family(1.0, m)
        F = (
            basis.integration_matrix()
            if alpha == 1.0
            else basis.fractional_integration_matrix(alpha)
        )
        R = system.B @ project_input(drive, basis, system.n_inputs)
        T, Q = kernels.schur_form(F)
        assert Q is not None  # the rotated sweep, not the triangular one
        bank = PencilBank(select_backend(-1.0 * system.A, -1.0 * system.E))
        Z = kernels.sweep_integral(bank, R, T, Q)
        assert_relative(Z @ F, integral_solve(system.E, system.A, F, R) @ F)


class TestKernels:
    def test_triangular_operator_is_not_rotated(self):
        F = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
        T, Q = kernels.schur_form(F)
        assert Q is None
        assert np.array_equal(T, F)

    def test_full_operator_rotates_to_real_schur(self, rng):
        F = rng.standard_normal((6, 6))
        T, Q = kernels.schur_form(F)
        assert not np.iscomplexobj(T) and np.allclose(np.tril(T, -2), 0.0)
        np.testing.assert_allclose(Q @ T @ Q.T, F, atol=1e-13)

    def test_sweep_integral_batched_matches_oracle(self, rng):
        n, m, k = 3, 7, 4
        E = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        A = -np.eye(n) + 0.2 * rng.standard_normal((n, n))
        F = 0.3 * rng.standard_normal((m, m))
        S = rng.standard_normal((n, m, k))
        T, Q = kernels.schur_form(F)
        bank = PencilBank(select_backend(-A, -E))
        Z = kernels.sweep_integral(bank, S, T, Q)
        assert Z.dtype == np.float64 and Z.shape == (n, m, k)
        # one factorisation per real eigenvalue or conjugate pair
        pairs = np.count_nonzero(np.diag(T, -1))
        assert pairs and bank.factorisations == m - pairs
        for i in range(k):
            assert_relative(Z[:, :, i], integral_solve(E, A, F, S[:, :, i]))

    def test_complex_shifts_use_complex_pencils(self):
        bank = PencilBank(select_backend(np.eye(2), -np.eye(2)))
        x = bank.solve(1.0 + 2.0j, np.ones((2, 1), dtype=complex))
        np.testing.assert_allclose(x, np.full((2, 1), 1.0 / (2.0 + 2.0j)))
        y = bank.solve(1.0, np.ones((2, 1)))
        assert y.dtype == np.float64
        assert bank.cached_shifts == [(0, 1.0 + 2.0j), (0, 1.0)]
