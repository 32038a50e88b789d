"""Tests for the block-pulse basis (paper eqs. (1)-(2), (16))."""

import numpy as np
import pytest

from repro.basis import BlockPulseBasis, TimeGrid
from repro.errors import BasisError


@pytest.fixture
def basis() -> BlockPulseBasis:
    return BlockPulseBasis(TimeGrid.uniform(1.0, 8))


class TestEvaluate:
    def test_indicator_structure(self, basis):
        vals = basis.evaluate([0.05, 0.3, 0.95])
        assert vals.shape == (8, 3)
        np.testing.assert_array_equal(vals.sum(axis=0), [1.0, 1.0, 1.0])
        assert vals[0, 0] == 1.0 and vals[2, 1] == 1.0 and vals[7, 2] == 1.0

    def test_eq1_support(self, basis):
        # phi_i is 1 exactly on [ih, (i+1)h)
        t = np.array([0.125, 0.1249999])
        vals = basis.evaluate(t)
        assert vals[1, 0] == 1.0  # left edge belongs to interval 1
        assert vals[0, 1] == 1.0


class TestProjection:
    def test_cell_average_definition(self, basis):
        # eq. (2): f_i = (1/h) integral over cell; for f = t^2 the exact
        # averages are mid^2 + h^2/12
        coeffs = basis.project(lambda t: t**2)
        mids = basis.grid.midpoints
        h = basis.grid.h
        np.testing.assert_allclose(coeffs, mids**2 + h**2 / 12.0, rtol=1e-12)

    def test_midpoint_rule(self):
        b = BlockPulseBasis(TimeGrid.uniform(1.0, 4), projection="midpoint")
        coeffs = b.project(lambda t: t**2)
        np.testing.assert_allclose(coeffs, b.grid.midpoints**2)

    def test_projection_synthesis_round_trip_piecewise_constant(self, basis):
        # any function already constant per cell projects exactly
        steps = np.arange(8, dtype=float)

        def f(t):
            return steps[np.minimum((np.asarray(t) * 8).astype(int), 7)]

        coeffs = basis.project(f)
        np.testing.assert_allclose(coeffs, steps, atol=1e-12)
        np.testing.assert_allclose(
            basis.synthesize(coeffs, basis.grid.midpoints), steps, atol=1e-12
        )

    def test_project_vector(self, basis):
        coeffs = basis.project_vector(lambda t: np.vstack([t, 2 * t]), 2)
        assert coeffs.shape == (2, 8)
        np.testing.assert_allclose(coeffs[1], 2 * coeffs[0])

    def test_project_samples_validates_size(self, basis):
        with pytest.raises(BasisError):
            basis.project_samples(np.zeros(5))

    def test_rejects_bad_projection_rule(self):
        with pytest.raises(BasisError, match="projection"):
            BlockPulseBasis(TimeGrid.uniform(1.0, 4), projection="simpson")

    def test_rejects_non_grid(self):
        with pytest.raises(TypeError):
            BlockPulseBasis(1.0)


class TestSynthesize:
    def test_matrix_coefficients(self, basis):
        X = np.vstack([np.arange(8.0), np.ones(8)])
        out = basis.synthesize(X, [0.05, 0.55])
        np.testing.assert_allclose(out, [[0.0, 4.0], [1.0, 1.0]])

    def test_rejects_wrong_length(self, basis):
        with pytest.raises(BasisError):
            basis.synthesize(np.zeros(5), [0.1])

    def test_stack_with_wrong_width_rejected(self, basis):
        with pytest.raises(BasisError):
            basis.synthesize(np.zeros((2, 2, 7)), [0.1])
        with pytest.raises(BasisError):
            basis.synthesize(np.float64(1.0), [0.1])

    def test_run_axis_is_kept(self, basis):
        X = np.arange(2 * 3 * 8, dtype=float).reshape(2, 3, 8)
        out = basis.synthesize(X, [0.05, 0.55])
        assert out.shape == (2, 3, 2)
        np.testing.assert_array_equal(out, X[..., [0, 4]])

    @pytest.mark.parametrize("shape", [(8,), (3, 8), (4, 3, 8)])
    @pytest.mark.parametrize(
        "grid",
        [TimeGrid.uniform(1.0, 8), TimeGrid.geometric(1.0, 8, 1.3)],
        ids=["uniform", "geometric"],
    )
    def test_gather_is_bit_identical_to_one_hot_product(self, shape, grid):
        basis = BlockPulseBasis(grid)
        coeffs = np.random.default_rng(7).standard_normal(shape)
        coeffs[..., 2] = -0.0  # a signed zero the product turns into 0.0
        coeffs[..., 5] = -np.abs(coeffs[..., 5])
        coeffs[..., 6] = 0.0
        # interior times, every cell edge (t_end included) and t_end again
        t = np.concatenate([np.linspace(0.0, 1.0, 13), grid.edges, [grid.t_end]])
        got = basis.synthesize(coeffs, t)
        expected = coeffs @ basis.evaluate(t)
        assert got.shape == expected.shape == shape[:-1] + (t.size,)
        assert got.tobytes() == expected.tobytes()
        assert got.flags.c_contiguous  # laid out like the product
        in_cell_2 = grid.locate(t) == 2
        assert in_cell_2.any() and not np.signbit(got[..., in_cell_2]).any()


class TestOperationalMatrices:
    def test_gram_is_diagonal(self, basis):
        G = basis.gram_matrix()
        np.testing.assert_allclose(G, np.eye(8) * basis.grid.h, atol=1e-12)

    def test_uniform_matrices_match_opmat(self, basis):
        from repro.opmat import differentiation_matrix, integration_matrix

        np.testing.assert_allclose(
            basis.integration_matrix(), integration_matrix(8, 0.125)
        )
        np.testing.assert_allclose(
            basis.differentiation_matrix(), differentiation_matrix(8, 0.125)
        )

    def test_adaptive_matrices_dispatch(self):
        g = TimeGrid.from_steps([0.1, 0.3, 0.2])
        b = BlockPulseBasis(g)
        from repro.opmat import integration_matrix_adaptive

        np.testing.assert_allclose(
            b.integration_matrix(), integration_matrix_adaptive(g.steps)
        )

    def test_fractional_integration_constructions(self, basis):
        tus = basis.fractional_integration_matrix(0.5, construction="tustin")
        rl = basis.fractional_integration_matrix(0.5, construction="rl")
        assert tus.shape == rl.shape == (8, 8)
        assert np.max(np.abs(tus - rl)) > 0.0  # distinct constructions

    def test_fractional_integration_rejects_unknown_construction(self, basis):
        with pytest.raises(BasisError, match="construction"):
            basis.fractional_integration_matrix(0.5, construction="pade")

    def test_fractional_integration_requires_uniform(self):
        b = BlockPulseBasis(TimeGrid.from_steps([0.1, 0.2]))
        with pytest.raises(BasisError, match="uniform"):
            b.fractional_integration_matrix(0.5)

    def test_fractional_differentiation_alpha_zero(self, basis):
        np.testing.assert_allclose(
            basis.fractional_differentiation_matrix(0.0), np.eye(8)
        )
