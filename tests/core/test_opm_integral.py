"""Tests for the integral-form OPM solver (basis-agnostic)."""

import numpy as np
import pytest

from repro.basis import (
    BlockPulseBasis,
    ChebyshevBasis,
    LegendreBasis,
    TimeGrid,
)
from repro.core import (
    DescriptorSystem,
    FractionalDescriptorSystem,
    simulate_opm,
    simulate_opm_integral,
)
from repro.errors import BasisError
from repro.fractional import fde_step_response


class TestBlockPulseIntegralForm:
    def test_matches_differential_form(self, scalar_ode):
        basis = BlockPulseBasis(TimeGrid.uniform(5.0, 200))
        res_int = simulate_opm_integral(scalar_ode, 1.0, basis)
        res_diff = simulate_opm(scalar_ode, 1.0, basis.grid)
        np.testing.assert_allclose(
            res_int.coefficients, res_diff.coefficients, atol=1e-9
        )

    def test_fractional_tustin_matches_differential(self, scalar_fde):
        basis = BlockPulseBasis(TimeGrid.uniform(1.0, 64))
        res_int = simulate_opm_integral(scalar_fde, 1.0, basis, construction="tustin")
        res_diff = simulate_opm(scalar_fde, 1.0, basis.grid)
        # same truncated-ring operator inverted -> identical solution
        np.testing.assert_allclose(
            res_int.coefficients, res_diff.coefficients, atol=1e-8
        )

    def test_fractional_rl_construction_accurate(self, scalar_fde):
        basis = BlockPulseBasis(TimeGrid.uniform(2.0, 800))
        res = simulate_opm_integral(scalar_fde, 1.0, basis, construction="rl")
        t = np.linspace(0.2, 1.8, 9)
        np.testing.assert_allclose(
            res.states(t)[0], fde_step_response(0.5, 1.0, t), atol=5e-3
        )

    def test_rl_and_tustin_converge_together(self, scalar_fde):
        t = np.linspace(0.2, 1.8, 9)
        exact = fde_step_response(0.5, 1.0, t)
        errs = {}
        for construction in ("tustin", "rl"):
            basis = BlockPulseBasis(TimeGrid.uniform(2.0, 1600))
            res = simulate_opm_integral(scalar_fde, 1.0, basis, construction=construction)
            errs[construction] = np.max(np.abs(res.states(t)[0] - exact))
        assert errs["tustin"] < 5e-3 and errs["rl"] < 5e-3


class TestSpectralBases:
    def test_legendre_exponential_accuracy(self, scalar_ode):
        # smooth problem: spectral basis reaches ~1e-12 with 16 terms
        res = simulate_opm_integral(scalar_ode, 1.0, LegendreBasis(5.0, 16))
        t = np.linspace(0.2, 4.8, 11)
        np.testing.assert_allclose(res.states(t)[0], 1.0 - np.exp(-t), atol=1e-10)

    def test_chebyshev_exponential_accuracy(self, scalar_ode):
        res = simulate_opm_integral(scalar_ode, 1.0, ChebyshevBasis(5.0, 16))
        t = np.linspace(0.2, 4.8, 11)
        np.testing.assert_allclose(res.states(t)[0], 1.0 - np.exp(-t), atol=1e-9)

    def test_legendre_beats_block_pulse_per_dof(self, scalar_ode):
        t = np.linspace(0.2, 4.8, 11)
        exact = 1.0 - np.exp(-t)
        spectral = simulate_opm_integral(scalar_ode, 1.0, LegendreBasis(5.0, 16))
        bpf = simulate_opm(scalar_ode, 1.0, (5.0, 16))
        err_spec = np.max(np.abs(spectral.states(t)[0] - exact))
        err_bpf = np.max(np.abs(bpf.states(t)[0] - exact))
        assert err_spec < err_bpf / 1e3

    def test_legendre_x0(self):
        system = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]], x0=[2.0])
        res = simulate_opm_integral(system, 0.0, LegendreBasis(4.0, 16))
        t = np.linspace(0.0, 3.9, 9)
        np.testing.assert_allclose(res.states(t)[0], 2.0 * np.exp(-t), atol=1e-9)

    def test_legendre_fractional(self, scalar_fde):
        res = simulate_opm_integral(scalar_fde, 1.0, LegendreBasis(2.0, 24))
        t = np.linspace(0.3, 1.9, 7)
        np.testing.assert_allclose(
            res.states(t)[0], fde_step_response(0.5, 1.0, t), atol=5e-3
        )

    def test_mimo_system(self):
        system = DescriptorSystem(
            np.eye(2), -np.diag([1.0, 3.0]), np.eye(2), C=np.array([[1.0, 1.0]])
        )
        res = simulate_opm_integral(
            system, lambda t: np.vstack([np.ones_like(t), np.sin(t)]),
            LegendreBasis(3.0, 20),
        )
        assert res.output_coefficients.shape == (1, 20)


class TestLaguerreHorizon:
    def test_semi_infinite_solve(self):
        # x' = -x + e^{-2t}, x(0) = 0  ->  x = e^{-t} - e^{-2t}
        from repro.basis import LaguerreBasis

        system = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])
        basis = LaguerreBasis(1.0, 32)
        res = simulate_opm_integral(
            system, lambda t: np.exp(-2.0 * t), basis
        )
        t = np.linspace(0.0, 6.0, 25)
        exact = np.exp(-t) - np.exp(-2.0 * t)
        np.testing.assert_allclose(res.states(t)[0], exact, atol=1e-5)

    def test_triangular_fast_path_used(self):
        from repro.basis import LaguerreBasis

        system = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])
        res = simulate_opm_integral(
            system, lambda t: np.exp(-t) * np.sin(t), LaguerreBasis(1.0, 24)
        )
        # Laguerre integration matrix is upper-triangular Toeplitz, so
        # the column sweep (not the dense fallback) must be taken
        assert res.info["method"].startswith("opm-integral[")
        assert res.info["factorisations"] == 1

    def test_fractional_on_laguerre(self):
        # d^1/2 x = -x + e^{-t}: validate against a fine BPF solve
        from repro.basis import LaguerreBasis
        from repro.core import FractionalDescriptorSystem, simulate_opm

        system = FractionalDescriptorSystem(0.5, [[1.0]], [[-1.0]], [[1.0]])
        lag = simulate_opm_integral(
            system, lambda t: np.exp(-t), LaguerreBasis(1.0, 48)
        )
        bpf = simulate_opm(system, lambda t: np.exp(-t), (8.0, 4000))
        t = np.linspace(0.5, 7.0, 14)
        np.testing.assert_allclose(
            lag.states(t)[0], bpf.states_smooth(t)[0], atol=2e-3
        )


class TestValidation:
    def test_rejects_non_system(self):
        with pytest.raises(TypeError):
            simulate_opm_integral("x", 1.0, LegendreBasis(1.0, 4))

    def test_rejects_non_basis(self, scalar_ode):
        with pytest.raises(TypeError):
            simulate_opm_integral(scalar_ode, 1.0, "basis")

    @pytest.mark.parametrize(
        "basis",
        [
            BlockPulseBasis(TimeGrid.uniform(1.0, 16)),
            LegendreBasis(1.0, 8),
            ChebyshevBasis(1.0, 8),
        ],
        ids=["block-pulse", "legendre", "chebyshev"],
    )
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_rejects_unknown_construction(self, basis, alpha):
        system = FractionalDescriptorSystem(alpha, [[1.0]], [[-1.0]], [[1.0]])
        with pytest.raises(BasisError, match="'tustin' or 'rl'.*'bogus'"):
            simulate_opm_integral(system, 1.0, basis, construction="bogus")

    def test_method_labels(self, scalar_ode):
        basis = BlockPulseBasis(TimeGrid.uniform(1.0, 16))
        res = simulate_opm_integral(scalar_ode, 1.0, basis)
        assert res.info["method"].startswith("opm-integral")
        assert res.info["method"] == "opm-integral[tustin]"
        # non-triangular F (spectral, and Walsh/Haar -- NOT the engine's
        # differential-form pwconst plan) sweeps in Schur coordinates,
        # one factorisation per real eigenvalue or conjugate pair
        from repro.basis import WalshBasis

        for other in (LegendreBasis(1.0, 8), WalshBasis(1.0, 8)):
            res2 = simulate_opm_integral(scalar_ode, 1.0, other)
            assert res2.info["method"] == "opm-integral[schur]"
            assert 1 <= res2.info["factorisations"] <= 8
