"""Regression tests for input-dialect normalisation (project_input hardening).

The historical implementation probed callables at ``t = 0`` and
special-cased the probe's return shape, which misrouted vector-valued
callables that broadcast and crashed on callables undefined at the
origin.  These tests pin the hardened behaviour: shape decisions happen
at evaluation time, and the callable is only ever evaluated at the
projection quadrature nodes (all interior).
"""

import numpy as np
import pytest

from repro.basis import BlockPulseBasis, TimeGrid, WalshBasis
from repro.core import DescriptorSystem, project_input, simulate_opm
from repro.engine import normalise_input_callable, scaled_input
from repro.errors import ModelError


@pytest.fixture
def basis():
    return BlockPulseBasis(TimeGrid.uniform(1.0, 8))


class TestNormaliseCallable:
    def test_scalar_return_broadcasts(self):
        wrapped = normalise_input_callable(lambda t: 3.0, 2)
        np.testing.assert_allclose(
            wrapped(np.array([0.1, 0.2])), np.full((2, 2), 3.0)
        )

    def test_1d_return_single_channel(self):
        wrapped = normalise_input_callable(np.sin, 1)
        t = np.linspace(0.1, 1.0, 5)
        np.testing.assert_allclose(wrapped(t), np.sin(t)[None, :])

    def test_1d_return_broadcast_to_channels(self):
        wrapped = normalise_input_callable(np.cos, 3)
        t = np.array([0.2, 0.4])
        out = wrapped(t)
        assert out.shape == (3, 2)
        np.testing.assert_allclose(out[2], np.cos(t))

    def test_row_vector_return_single_channel(self):
        wrapped = normalise_input_callable(lambda t: np.sin(t)[None, :], 1)
        t = np.array([0.3, 0.6, 0.9])
        np.testing.assert_allclose(wrapped(t), np.sin(t)[None, :])

    def test_full_matrix_return(self):
        wrapped = normalise_input_callable(lambda t: np.vstack([t, -t]), 2)
        t = np.array([0.1, 0.5])
        np.testing.assert_allclose(wrapped(t), [[0.1, 0.5], [-0.1, -0.5]])

    def test_wrong_length_raises(self):
        wrapped = normalise_input_callable(lambda t: np.ones(3), 1)
        with pytest.raises(ModelError, match="returned 3 values for 5 times"):
            wrapped(np.linspace(0.1, 0.9, 5))

    def test_wrong_row_count_raises(self):
        wrapped = normalise_input_callable(lambda t: np.vstack([t, t, t]), 2)
        with pytest.raises(ModelError, match="must return"):
            wrapped(np.array([0.1, 0.2]))

    def test_3d_return_raises(self):
        wrapped = normalise_input_callable(lambda t: np.ones((1, 1, t.size)), 1)
        with pytest.raises(ModelError, match="3-D"):
            wrapped(np.array([0.1]))

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError, match="callable"):
            normalise_input_callable(1.0, 1)


class TestProjectInputRegressions:
    def test_constant_callable_no_longer_crashes(self, basis):
        # regression: `lambda t: 1.0` returned a 0-d probe of shape (1, 1)
        # and then crashed reshaping to the full time array
        U = project_input(lambda t: 1.0, basis, 1)
        np.testing.assert_allclose(U, np.ones((1, 8)))

    def test_callable_undefined_at_zero(self, basis):
        # regression: the t=0 probe evaluated sin(t)/t at the origin
        def u(t):
            assert np.all(t > 0.0), "callable evaluated at t = 0"
            return np.sin(t) / t

        U = project_input(u, basis, 1)
        assert np.all(np.isfinite(U))
        assert U.shape == (1, 8)

    def test_row_vector_callable_single_input(self, basis):
        U_row = project_input(lambda t: np.sin(t)[None, :], basis, 1)
        U_flat = project_input(np.sin, basis, 1)
        np.testing.assert_allclose(U_row, U_flat, atol=1e-14)

    def test_broadcast_callable_multi_input(self, basis):
        U = project_input(np.sin, basis, 3)
        assert U.shape == (3, 8)
        np.testing.assert_allclose(U[0], U[2], atol=1e-15)

    def test_midpoint_projection_dialects(self):
        mid_basis = BlockPulseBasis(TimeGrid.uniform(1.0, 8), projection="midpoint")
        U = project_input(lambda t: 2.0, mid_basis, 2)
        np.testing.assert_allclose(U, np.full((2, 8), 2.0))

    def test_walsh_basis_still_supported(self):
        walsh = WalshBasis(1.0, 8)
        U = project_input(lambda t: 1.0, walsh, 1)
        # constant: only the first Walsh coefficient is nonzero
        assert abs(U[0, 0] - 1.0) < 1e-12
        np.testing.assert_allclose(U[0, 1:], 0.0, atol=1e-12)

    def test_end_to_end_simulation_with_hardened_input(self, scalar_ode):
        def u(t):
            assert np.all(t > 0.0)
            return 1.0  # constant step, scalar dialect

        res = simulate_opm(scalar_ode, u, (5.0, 200))
        assert abs(res.states([3.0])[0, 0] - (1 - np.exp(-3.0))) < 1e-3

    def test_array_and_scalar_forms_unchanged(self, basis):
        np.testing.assert_allclose(
            project_input(2.0, basis, 2), np.full((2, 8), 2.0)
        )
        coeffs = np.arange(8.0)
        np.testing.assert_allclose(
            project_input(coeffs, basis, 1), coeffs[None, :]
        )
        with pytest.raises(ModelError, match="single-input"):
            project_input(coeffs, basis, 2)
        with pytest.raises(ModelError, match="shape"):
            project_input(np.ones((2, 5)), basis, 2)


class TestScaledInput:
    def test_unit_scale_is_identity(self):
        assert scaled_input(np.sin, 1.0) is np.sin

    def test_every_input_form_scales(self):
        t = np.linspace(0.1, 0.9, 5)
        np.testing.assert_array_equal(scaled_input(np.sin, 2.0)(t), 2.0 * np.sin(t))
        assert scaled_input(3, 0.5) == 1.5
        np.testing.assert_array_equal(scaled_input([1, 2], 2.0), [2.0, 4.0])
