"""Edge-case sweeps across solvers: minimal sizes, degenerate shapes."""

import numpy as np
import pytest

from repro.basis import TimeGrid
from repro.core import (
    DescriptorSystem,
    FractionalDescriptorSystem,
    MultiTermSystem,
    simulate_multiterm,
    simulate_opm,
)

from ..kron_oracle import opm_coefficients


class TestSingleCell:
    """m = 1: one block pulse -- every path must still be exact algebra."""

    def test_first_order_m1(self, scalar_ode):
        res = simulate_opm(scalar_ode, 1.0, (0.5, 1))
        # (2/h - a) x = b u -> x = 1/(4+1)... E=1, A=-1, h=0.5: (4+1)x=1
        assert res.coefficients[0, 0] == pytest.approx(0.2)

    def test_fractional_m1(self, scalar_fde):
        res = simulate_opm(scalar_fde, 1.0, (0.5, 1))
        expected = 1.0 / ((2.0 / 0.5) ** 0.5 + 1.0)
        assert res.coefficients[0, 0] == pytest.approx(expected)

    def test_m1_matches_kron(self, scalar_ode):
        fast = simulate_opm(scalar_ode, 1.0, (0.5, 1))
        ref = opm_coefficients(scalar_ode, 1.0, (0.5, 1))
        np.testing.assert_allclose(fast.coefficients, ref)

    def test_multiterm_m1(self):
        msys = MultiTermSystem(
            [(2.0, np.eye(1)), (1.0, np.eye(1)), (0.0, np.eye(1))], [[1.0]]
        )
        res = simulate_multiterm(msys, 1.0, (1.0, 1))
        expected = 1.0 / (4.0 + 2.0 + 1.0)  # (2/h)^2 + (2/h) + 1 at h=1
        assert res.coefficients[0, 0] == pytest.approx(expected)


class TestDegenerateShapes:
    def test_zero_input_channels_handled(self):
        # B with p=1 but u = 0 scalar
        system = DescriptorSystem(np.eye(2), -np.eye(2), np.zeros((2, 1)), x0=[1.0, 2.0])
        res = simulate_opm(system, 0.0, (1.0, 50))
        t = res.grid.midpoints
        np.testing.assert_allclose(res.states(t)[0], np.exp(-t), atol=1e-3)

    def test_wide_b_many_inputs(self):
        p = 7
        system = DescriptorSystem(np.eye(2), -np.eye(2), np.ones((2, p)))
        u = lambda t: np.vstack([np.sin((k + 1) * t) for k in range(p)])
        res = simulate_opm(system, u, (1.0, 32))
        assert res.input_coefficients.shape == (p, 32)

    def test_tall_c_many_outputs(self):
        q = 5
        system = DescriptorSystem(
            np.eye(2), -np.eye(2), np.ones((2, 1)), C=np.ones((q, 2))
        )
        res = simulate_opm(system, 1.0, (1.0, 16))
        assert res.output_coefficients.shape == (q, 16)

    def test_alpha_exactly_two_descriptor(self):
        # FractionalDescriptorSystem with integer alpha = 2 behaves like
        # the undamped oscillator x'' = -x + u
        system = FractionalDescriptorSystem(2.0, [[1.0]], [[-1.0]], [[1.0]])
        res = simulate_opm(system, 1.0, (12.6, 2500))
        t = res.grid.midpoints
        np.testing.assert_allclose(
            res.states_smooth(t)[0], 1.0 - np.cos(t), atol=2e-2
        )

    def test_very_small_alpha(self):
        # alpha -> 0+: d^alpha x ~ x, so E x ~ A x + B u: nearly algebraic
        system = FractionalDescriptorSystem(0.01, [[1.0]], [[-1.0]], [[1.0]])
        res = simulate_opm(system, 1.0, (1.0, 64))
        # solution ~ u/(1+1) = 0.5 almost immediately
        assert abs(res.coefficients[0, -1] - 0.5) < 0.05


class TestGridExtremes:
    def test_tiny_time_scale(self):
        # picosecond horizons: no scaling pathologies
        system = DescriptorSystem([[1e-12]], [[-1.0]], [[1.0]])  # tau = 1 ps
        res = simulate_opm(system, 1.0, (5e-12, 200))
        t = res.grid.midpoints
        np.testing.assert_allclose(
            res.states(t)[0], 1.0 - np.exp(-t / 1e-12), atol=1e-3
        )

    def test_huge_time_scale(self):
        system = DescriptorSystem([[1e6]], [[-1.0]], [[1.0]])  # tau = 1e6 s
        res = simulate_opm(system, 1.0, (5e6, 200))
        t = res.grid.midpoints
        np.testing.assert_allclose(
            res.states(t)[0], 1.0 - np.exp(-t / 1e6), atol=1e-3
        )

    def test_steeply_graded_grid(self, scalar_ode):
        grid = TimeGrid.geometric(1.0, 40, 1.3)  # 4 orders of magnitude
        res = simulate_opm(scalar_ode, 1.0, grid)
        ref = opm_coefficients(scalar_ode, 1.0, grid)
        np.testing.assert_allclose(
            res.coefficients, ref, atol=1e-9
        )
