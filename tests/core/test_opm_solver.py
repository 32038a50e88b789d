"""Tests for the main OPM solver (paper sections III-IV)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.basis import TimeGrid, WalshBasis
from repro.core import (
    DescriptorSystem,
    FractionalDescriptorSystem,
    simulate_opm,
)
from repro.core.opm_solver import project_input, resolve_grid
from repro.basis import BlockPulseBasis
from repro.errors import ModelError
from repro.fractional import fde_step_response


class TestResolveGrid:
    def test_passthrough(self):
        g = TimeGrid.uniform(1.0, 4)
        assert resolve_grid(g) is g

    def test_tuple_convenience(self):
        g = resolve_grid((2.0, 8))
        assert g.t_end == 2.0 and g.m == 8

    def test_rejects_other(self):
        with pytest.raises(TypeError):
            resolve_grid([1.0, 2.0, 3.0])


class TestProjectInput:
    def test_scalar(self):
        basis = BlockPulseBasis(TimeGrid.uniform(1.0, 4))
        U = project_input(2.5, basis, 3)
        np.testing.assert_array_equal(U, np.full((3, 4), 2.5))

    def test_scalar_callable_single_input(self):
        basis = BlockPulseBasis(TimeGrid.uniform(1.0, 4))
        U = project_input(lambda t: t, basis, 1)
        np.testing.assert_allclose(U, [basis.grid.midpoints])

    def test_vector_callable(self):
        basis = BlockPulseBasis(TimeGrid.uniform(1.0, 4))
        U = project_input(lambda t: np.vstack([t, -t]), basis, 2)
        np.testing.assert_allclose(U[0], -U[1])

    def test_coefficient_array_passthrough(self):
        basis = BlockPulseBasis(TimeGrid.uniform(1.0, 4))
        coeffs = np.arange(8.0).reshape(2, 4)
        np.testing.assert_array_equal(project_input(coeffs, basis, 2), coeffs)

    def test_1d_coefficients_single_input(self):
        basis = BlockPulseBasis(TimeGrid.uniform(1.0, 4))
        U = project_input(np.arange(4.0), basis, 1)
        assert U.shape == (1, 4)

    def test_rejects_1d_for_multi_input(self):
        basis = BlockPulseBasis(TimeGrid.uniform(1.0, 4))
        with pytest.raises(ModelError):
            project_input(np.arange(4.0), basis, 2)

    def test_rejects_wrong_shape(self):
        basis = BlockPulseBasis(TimeGrid.uniform(1.0, 4))
        with pytest.raises(ModelError):
            project_input(np.zeros((2, 5)), basis, 2)


class TestFirstOrderAccuracy:
    def test_step_response_converges_second_order(self, scalar_ode):
        # evaluate at the grid midpoints (the block-pulse representation
        # points); off-midpoint sampling adds an O(h) cell offset that
        # would mask the scheme's own second-order accuracy
        errors = []
        for m in (100, 200, 400):
            res = simulate_opm(scalar_ode, 1.0, (5.0, m))
            t = res.grid.midpoints
            errors.append(np.max(np.abs(res.states(t)[0] - (1.0 - np.exp(-t)))))
        rate01 = np.log2(errors[0] / errors[1])
        rate12 = np.log2(errors[1] / errors[2])
        assert 1.7 < rate01 < 2.3 and 1.7 < rate12 < 2.3

    def test_matches_trapezoidal_accuracy_class(self, scalar_ode):
        # paper claim: "similar performance to trapezoidal or Gear's"
        from repro.baselines import simulate_transient

        m = 200
        opm = simulate_opm(scalar_ode, 1.0, (5.0, m))
        t = opm.grid.midpoints  # representation points for both methods
        exact = 1.0 - np.exp(-t)
        opm_err = np.max(np.abs(opm.states(t)[0] - exact))
        trap_err = np.max(
            np.abs(simulate_transient(scalar_ode, 1.0, 5.0, m).states(t)[0] - exact)
        )
        be_err = np.max(
            np.abs(
                simulate_transient(scalar_ode, 1.0, 5.0, m, method="backward-euler")
                .states(t)[0] - exact
            )
        )
        assert opm_err < 10.0 * trap_err  # same order of magnitude
        assert opm_err < be_err / 5.0  # clearly better than first-order

    def test_sinusoidal_input(self, scalar_ode):
        # x' = -x + sin(t), x(0)=0 -> x = (sin t - cos t + e^{-t})/2
        res = simulate_opm(scalar_ode, lambda t: np.sin(t), (6.0, 600))
        t = res.grid.midpoints
        exact = 0.5 * (np.sin(t) - np.cos(t) + np.exp(-t))
        np.testing.assert_allclose(res.states(t)[0], exact, atol=2e-4)

    def test_dae_with_singular_e(self):
        # x1' = -x1 + u ; 0 = x2 - x1  (algebraic constraint)
        E = np.array([[1.0, 0.0], [0.0, 0.0]])
        A = np.array([[-1.0, 0.0], [-1.0, 1.0]])
        B = np.array([[1.0], [0.0]])
        system = DescriptorSystem(E, A, B)
        res = simulate_opm(system, 1.0, (5.0, 300))
        X = res.coefficients
        np.testing.assert_allclose(X[0], X[1], atol=1e-12)  # constraint holds

    def test_nonzero_initial_condition(self):
        system = DescriptorSystem([[1.0]], [[-2.0]], [[1.0]], x0=[3.0])
        res = simulate_opm(system, 0.0, (2.0, 400))
        t = res.grid.midpoints
        np.testing.assert_allclose(res.states(t)[0], 3.0 * np.exp(-2.0 * t), atol=1e-3)

    def test_factorisation_count_uniform(self, scalar_ode):
        res = simulate_opm(scalar_ode, 1.0, (1.0, 64))
        assert res.info["factorisations"] == 1
        assert res.info["method"] == "opm-alternating"

    def test_wall_time_recorded(self, scalar_ode):
        res = simulate_opm(scalar_ode, 1.0, (1.0, 16))
        assert res.wall_time is not None and res.wall_time >= 0.0


class TestFractionalAccuracy:
    def test_half_order_step_vs_mittag_leffler(self, scalar_fde):
        res = simulate_opm(scalar_fde, 1.0, (2.0, 1600))
        t = np.linspace(0.1, 1.9, 10)
        exact = fde_step_response(0.5, 1.0, t)
        np.testing.assert_allclose(res.states(t)[0], exact, atol=4e-3)

    def test_fractional_converges_with_m(self, scalar_fde):
        t = np.linspace(0.2, 1.8, 7)
        exact = fde_step_response(0.5, 1.0, t)
        errs = [
            np.max(np.abs(simulate_opm(scalar_fde, 1.0, (2.0, m)).states(t)[0] - exact))
            for m in (100, 400, 1600)
        ]
        assert errs[2] < errs[1] < errs[0]

    def test_alpha_order_three_halves(self):
        # d^{3/2} x = -x + u behaves like a damped oscillator
        system = FractionalDescriptorSystem(1.5, [[1.0]], [[-1.0]], [[1.0]])
        res = simulate_opm(system, 1.0, (20.0, 800))
        x = res.coefficients[0]
        assert np.max(x) > 1.05  # overshoot: fractional order > 1 rings
        assert abs(x[-1] - 1.0) < 0.1  # settles toward DC gain 1

    def test_fractional_method_label(self, scalar_fde):
        res = simulate_opm(scalar_fde, 1.0, (1.0, 32))
        assert res.info["method"] == "opm-toeplitz"
        assert res.info["alpha"] == 0.5

    def test_fractional_caputo_ic_shift(self):
        # d^0.5 x = -x with x(0) = 1: relaxation E_{0.5}(-t^0.5)
        from repro.fractional import fde_relaxation

        system = FractionalDescriptorSystem(0.5, [[1.0]], [[-1.0]], [[1.0]], x0=[1.0])
        res = simulate_opm(system, 0.0, (1.0, 2000))
        t = np.linspace(0.1, 0.9, 8)
        np.testing.assert_allclose(
            res.states(t)[0], fde_relaxation(0.5, 1.0, t), atol=2e-2
        )


class TestAdaptiveGrids:
    def test_geometric_grid_first_order(self, scalar_ode):
        grid = TimeGrid.geometric(5.0, 200, 1.02)
        res = simulate_opm(scalar_ode, 1.0, grid)
        t = grid.midpoints
        np.testing.assert_allclose(res.states(t)[0], 1.0 - np.exp(-t), atol=5e-4)

    def test_geometric_grid_fractional(self, scalar_fde):
        grid = TimeGrid.geometric(2.0, 64, 1.05)
        res = simulate_opm(scalar_fde, 1.0, grid)
        t = grid.midpoints[5:]
        exact = fde_step_response(0.5, 1.0, t)
        np.testing.assert_allclose(res.states(t)[0], exact, atol=5e-2)

    def test_method_label_general(self, scalar_ode):
        res = simulate_opm(scalar_ode, 1.0, TimeGrid.from_steps([0.1, 0.2, 0.3]))
        assert res.info["method"] == "opm-general"


class TestTransformedBases:
    def test_walsh_equals_block_pulse(self, scalar_ode):
        walsh = WalshBasis(2.0, 64)
        res_w = simulate_opm(scalar_ode, 1.0, walsh)
        res_b = simulate_opm(scalar_ode, 1.0, walsh.block_pulse.grid)
        t = np.linspace(0.1, 1.9, 13)
        np.testing.assert_allclose(res_w.states(t), res_b.states(t), atol=1e-10)

    def test_walsh_result_carries_walsh_basis(self, scalar_ode):
        walsh = WalshBasis(2.0, 16)
        res = simulate_opm(scalar_ode, 1.0, walsh)
        assert res.basis is walsh
        assert "Walsh" in res.info["method"]


class TestSparseLargeSystem:
    def test_tridiagonal_chain(self):
        n = 500
        main = -2.0 * np.ones(n)
        off = np.ones(n - 1)
        A = sp.diags([off, main, off], [-1, 0, 1], format="csr")
        E = sp.identity(n, format="csr")
        B = np.zeros((n, 1))
        B[0, 0] = 1.0
        system = DescriptorSystem(E, A, B)
        res = simulate_opm(system, 1.0, (1.0, 40))
        assert res.coefficients.shape == (n, 40)
        assert res.info["factorisations"] == 1
        # diffusion: last node barely moves in short time
        assert abs(res.coefficients[-1, -1]) < 1e-10

    def test_rejects_unknown_system_type(self):
        with pytest.raises(TypeError):
            simulate_opm(object(), 1.0, (1.0, 8))
