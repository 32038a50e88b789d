"""The integral formulation through the session, on every basis.

Integrating ``E d^alpha x = A x + B u`` once (fractionally) gives
``E Z = A Z F + (B U + A x0 1^T) F`` with ``F`` the basis's (fractional)
integration matrix.  The session solves it for the polynomial and
Laguerre families, and for any :class:`FractionalMethod` that supplies
``F`` -- here the block-pulse Tustin and Riemann-Liouville matrices,
through the public method-instance extension point.
"""

import numpy as np
import pytest

from repro.basis import (
    BlockPulseBasis,
    ChebyshevBasis,
    LaguerreBasis,
    LegendreBasis,
    TimeGrid,
)
from repro.core import DescriptorSystem, FractionalDescriptorSystem, simulate_opm
from repro.engine import Simulator
from repro.errors import BasisError
from repro.fractional import FractionalMethod, fde_step_response

from ..kron_oracle import session_oracle


class BlockPulseIntegration(FractionalMethod):
    """The block-pulse integral form with the ``'tustin'`` (inverse of
    the paper's ``D^alpha``) or ``'rl'`` (Riemann-Liouville projection)
    fractional integration matrix; both are the classical matrix at
    ``alpha = 1``."""

    name = "block-pulse-integral"

    def __init__(self, construction: str) -> None:
        self.construction = construction

    def params(self) -> tuple:
        return (self.construction,)

    def integration_operator(self, bundle, alpha: float) -> np.ndarray:
        self.check_bundle(bundle)
        return bundle.basis.fractional_integration_matrix(
            alpha, construction=self.construction
        )


def integral_form(system, u, m, t_end, construction="tustin"):
    basis = BlockPulseBasis(TimeGrid.uniform(t_end, m))
    return Simulator(system, basis, method=BlockPulseIntegration(construction)).run(u)


class TestBlockPulseIntegralForm:
    def test_matches_differential_form(self, scalar_ode):
        res_int = integral_form(scalar_ode, 1.0, 200, 5.0)
        res_diff = simulate_opm(scalar_ode, 1.0, (5.0, 200))
        np.testing.assert_allclose(
            res_int.coefficients, res_diff.coefficients, atol=1e-9
        )

    def test_fractional_tustin_matches_differential(self, scalar_fde):
        res_int = integral_form(scalar_fde, 1.0, 64, 1.0, "tustin")
        res_diff = simulate_opm(scalar_fde, 1.0, (1.0, 64))
        # same truncated-ring operator inverted -> identical solution
        np.testing.assert_allclose(
            res_int.coefficients, res_diff.coefficients, atol=1e-8
        )

    def test_fractional_rl_construction_accurate(self, scalar_fde):
        res = integral_form(scalar_fde, 1.0, 800, 2.0, "rl")
        t = np.linspace(0.2, 1.8, 9)
        np.testing.assert_allclose(
            res.states(t)[0], fde_step_response(0.5, 1.0, t), atol=5e-3
        )

    def test_rl_and_tustin_converge_together(self, scalar_fde):
        t = np.linspace(0.2, 1.8, 9)
        exact = fde_step_response(0.5, 1.0, t)
        errs = {}
        for construction in ("tustin", "rl"):
            res = integral_form(scalar_fde, 1.0, 1600, 2.0, construction)
            errs[construction] = np.max(np.abs(res.states(t)[0] - exact))
        assert errs["tustin"] < 5e-3 and errs["rl"] < 5e-3


class TestSpectralBases:
    def test_legendre_exponential_accuracy(self, scalar_ode):
        # smooth problem: spectral basis reaches ~1e-12 with 16 terms
        res = simulate_opm(scalar_ode, 1.0, LegendreBasis(5.0, 16))
        t = np.linspace(0.2, 4.8, 11)
        np.testing.assert_allclose(res.states(t)[0], 1.0 - np.exp(-t), atol=1e-10)

    def test_chebyshev_exponential_accuracy(self, scalar_ode):
        res = simulate_opm(scalar_ode, 1.0, ChebyshevBasis(5.0, 16))
        t = np.linspace(0.2, 4.8, 11)
        np.testing.assert_allclose(res.states(t)[0], 1.0 - np.exp(-t), atol=1e-9)

    def test_legendre_beats_block_pulse_per_dof(self, scalar_ode):
        t = np.linspace(0.2, 4.8, 11)
        exact = 1.0 - np.exp(-t)
        spectral = simulate_opm(scalar_ode, 1.0, LegendreBasis(5.0, 16))
        bpf = simulate_opm(scalar_ode, 1.0, (5.0, 16))
        err_spec = np.max(np.abs(spectral.states(t)[0] - exact))
        err_bpf = np.max(np.abs(bpf.states(t)[0] - exact))
        assert err_spec < err_bpf / 1e3

    def test_legendre_x0(self):
        system = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]], x0=[2.0])
        res = simulate_opm(system, 0.0, LegendreBasis(4.0, 16))
        t = np.linspace(0.0, 3.9, 9)
        np.testing.assert_allclose(res.states(t)[0], 2.0 * np.exp(-t), atol=1e-9)

    def test_legendre_fractional(self, scalar_fde):
        res = simulate_opm(scalar_fde, 1.0, LegendreBasis(2.0, 24))
        t = np.linspace(0.3, 1.9, 7)
        np.testing.assert_allclose(
            res.states(t)[0], fde_step_response(0.5, 1.0, t), atol=5e-3
        )

    def test_mimo_system(self):
        system = DescriptorSystem(
            np.eye(2), -np.diag([1.0, 3.0]), np.eye(2), C=np.array([[1.0, 1.0]])
        )
        res = simulate_opm(
            system, lambda t: np.vstack([np.ones_like(t), np.sin(t)]),
            LegendreBasis(3.0, 20),
        )
        assert res.output_coefficients.shape == (1, 20)


class TestLaguerreHorizon:
    def test_semi_infinite_solve(self):
        # x' = -x + e^{-2t}, x(0) = 0  ->  x = e^{-t} - e^{-2t}
        system = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])
        res = simulate_opm(system, lambda t: np.exp(-2.0 * t), LaguerreBasis(1.0, 32))
        t = np.linspace(0.0, 6.0, 25)
        exact = np.exp(-t) - np.exp(-2.0 * t)
        np.testing.assert_allclose(res.states(t)[0], exact, atol=1e-5)

    def test_triangular_fast_path_used(self):
        system = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])
        res = simulate_opm(
            system, lambda t: np.exp(-t) * np.sin(t), LaguerreBasis(1.0, 24)
        )
        # Laguerre operational matrices are upper-triangular Toeplitz, so
        # the one-factorisation column sweep (no Schur rotation) is taken
        assert res.info["method"] == "opm-toeplitz[laguerre]"
        assert res.info["factorisations"] == 1

    def test_fractional_on_laguerre(self):
        # d^1/2 x = -x + e^{-t}: validate against a fine BPF solve
        system = FractionalDescriptorSystem(0.5, [[1.0]], [[-1.0]], [[1.0]])
        lag = simulate_opm(system, lambda t: np.exp(-t), LaguerreBasis(1.0, 48))
        bpf = simulate_opm(system, lambda t: np.exp(-t), (8.0, 4000))
        t = np.linspace(0.5, 7.0, 14)
        np.testing.assert_allclose(
            lag.states(t)[0], bpf.states_smooth(t)[0], atol=2e-3
        )


def two_state(alpha: float, x0=None):
    """A coupled two-state system of order ``alpha``."""
    E, A, B = [[1.0, 0.0], [0.0, 2.0]], [[-1.0, 0.5], [0.3, -2.0]], [[1.0], [0.0]]
    if alpha == 1.0:
        return DescriptorSystem(E, A, B, x0=x0)
    return FractionalDescriptorSystem(alpha, E, A, B, x0=x0)


def drive(t):
    return 1.0 + np.sin(3.0 * t)


class TestKronOracle:
    """The triangular integral sweeps (block pulses through a method
    instance, Laguerre natively) against the dense Kronecker solve."""

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("construction", ["tustin", "rl"])
    def test_block_pulse_method_matches_kron_oracle(self, construction, alpha):
        basis = BlockPulseBasis(TimeGrid.uniform(2.0, 32))
        sim = Simulator(two_state(alpha), basis, method=BlockPulseIntegration(construction))
        F = basis.fractional_integration_matrix(alpha, construction=construction)
        expected = session_oracle(sim, F, drive)
        np.testing.assert_allclose(sim.run(drive).coefficients, expected, rtol=1e-10, atol=1e-12)

    def test_block_pulse_x0_matches_kron_oracle(self):
        basis = BlockPulseBasis(TimeGrid.uniform(1.5, 32))
        system = two_state(1.0, x0=[0.4, -0.2])
        sim = Simulator(system, basis, method=BlockPulseIntegration("rl"))
        F = basis.fractional_integration_matrix(1.0, construction="rl")
        expected = session_oracle(sim, F, drive)
        np.testing.assert_allclose(sim.run(drive).coefficients, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_laguerre_matches_kron_oracle(self, alpha):
        sim = Simulator(two_state(alpha), LaguerreBasis(1.0, 24))
        F = sim.bundle.fractional_integration_matrix(alpha)
        expected = session_oracle(sim, F, lambda t: np.exp(-t))
        got = sim.run(lambda t: np.exp(-t)).coefficients
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


class TestValidation:
    def test_rejects_non_system(self):
        with pytest.raises(TypeError):
            simulate_opm("x", 1.0, LegendreBasis(1.0, 4))

    def test_rejects_non_basis(self, scalar_ode):
        with pytest.raises(TypeError):
            simulate_opm(scalar_ode, 1.0, "basis")

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_rejects_unknown_construction(self, alpha):
        system = FractionalDescriptorSystem(alpha, [[1.0]], [[-1.0]], [[1.0]])
        with pytest.raises(BasisError, match="'tustin' or 'rl'.*'bogus'"):
            integral_form(system, 1.0, 16, 1.0, construction="bogus")

    def test_method_labels(self, scalar_ode):
        res = integral_form(scalar_ode, 1.0, 16, 1.0)
        assert res.info["method"] == "block-pulse-integral[BlockPulse]"
        # a triangular F sweeps with one factorisation and no rotation
        assert res.info["factorisations"] == 1 and not res.info["schur"]
        # a full spectral F sweeps in Schur coordinates, one
        # factorisation per real eigenvalue or conjugate pair
        for basis in (LegendreBasis(1.0, 8), ChebyshevBasis(1.0, 8)):
            res = simulate_opm(scalar_ode, 1.0, basis)
            assert res.info["method"] == f"opm-spectral[{basis.name}]"
            assert 1 <= res.info["factorisations"] <= 8
