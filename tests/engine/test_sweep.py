"""Tests for batched multi-input sweeps and the SweepResult container."""

import numpy as np
import pytest

from repro.analysis import sample_outputs
from repro.basis import TimeGrid
from repro.core import (
    DescriptorSystem,
    FractionalDescriptorSystem,
    MultiTermSystem,
    SimulationResult,
    Simulator,
)
from repro.errors import SolverError

from ..conftest import stable_dense_system


def sweep_vs_loop(system, grid, inputs, **session_kwargs):
    """Run a batched sweep and the equivalent loop; return both."""
    sim = Simulator(system, grid, **session_kwargs)
    sweep = sim.sweep(inputs)
    loop = [Simulator(system, grid, **session_kwargs).run(u) for u in inputs]
    return sweep, loop


INPUT_FAMILY = [
    1.0,
    0.25,
    lambda t: np.sin(2.0 * t),
    lambda t: np.exp(-t),
]


class TestSweepMatchesLoop:
    def test_first_order_alternating(self, scalar_ode):
        sweep, loop = sweep_vs_loop(scalar_ode, (5.0, 150), INPUT_FAMILY)
        for got, ref in zip(sweep, loop):
            np.testing.assert_allclose(
                got.coefficients, ref.coefficients, atol=1e-12
            )

    def test_fractional_toeplitz(self, scalar_fde):
        sweep, loop = sweep_vs_loop(scalar_fde, (2.0, 120), INPUT_FAMILY)
        for got, ref in zip(sweep, loop):
            np.testing.assert_allclose(
                got.coefficients, ref.coefficients, atol=1e-12
            )

    def test_adaptive_general(self, rng):
        system = stable_dense_system(rng, 3)
        grid = TimeGrid.geometric(2.0, 48, 1.04)
        sweep, loop = sweep_vs_loop(system, grid, INPUT_FAMILY)
        for got, ref in zip(sweep, loop):
            np.testing.assert_allclose(
                got.coefficients, ref.coefficients, atol=1e-12
            )

    def test_multiterm(self):
        msys = MultiTermSystem(
            [(2.0, np.eye(2)), (1.0, 0.3 * np.eye(2)), (0.5, 0.1 * np.eye(2)), (0.0, np.eye(2))],
            np.ones((2, 1)),
        )
        sweep, loop = sweep_vs_loop(msys, (5.0, 100), INPUT_FAMILY)
        for got, ref in zip(sweep, loop):
            np.testing.assert_allclose(
                got.coefficients, ref.coefficients, atol=1e-12
            )

    def test_multi_input_system(self, rng):
        system = stable_dense_system(rng, 4, p=2)
        inputs = [
            lambda t: np.vstack([np.sin(t), np.cos(t)]),
            np.ones((2, 60)),
            2.5,
        ]
        sweep, loop = sweep_vs_loop(system, (3.0, 60), inputs)
        for got, ref in zip(sweep, loop):
            np.testing.assert_allclose(
                got.coefficients, ref.coefficients, atol=1e-12
            )

    def test_nonzero_x0_sweep(self):
        system = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]], x0=[1.5])
        sweep, loop = sweep_vs_loop(system, (4.0, 80), [0.0, 1.0, 2.0])
        for got, ref in zip(sweep, loop):
            np.testing.assert_allclose(
                got.coefficients, ref.coefficients, atol=1e-12
            )


class TestSweepEfficiency:
    def test_single_factorisation_for_whole_batch(self, scalar_fde):
        sim = Simulator(scalar_fde, (1.0, 64))
        sweep = sim.sweep([0.5, 1.0, 1.5, 2.0])
        assert sweep.info["factorisations"] == 1
        assert sweep.info["batch"] == 4


class TestSweepResult:
    @pytest.fixture
    def sweep(self, scalar_ode):
        return Simulator(scalar_ode, (5.0, 100)).sweep([0.5, 1.0, 2.0])

    def test_len_and_indexing(self, sweep):
        assert len(sweep) == 3
        item = sweep[1]
        assert isinstance(item, SimulationResult)
        assert item.info["sweep_index"] == 1
        assert sweep[-1].info["sweep_index"] == 2
        with pytest.raises(IndexError):
            sweep[3]

    def test_iteration_order(self, sweep):
        assert [r.info["sweep_index"] for r in sweep] == [0, 1, 2]
        assert len(sweep.results) == 3

    def test_slicing_returns_sub_sweep(self, sweep):
        sub = sweep[1:]
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.coefficients, sweep.coefficients[1:])
        np.testing.assert_allclose(
            sub[0].coefficients, sweep[1].coefficients, atol=0.0
        )
        assert len(sweep[::2]) == 2

    def test_scaling_linearity(self, sweep):
        # linear system: the 2.0-input response is 4x the 0.5-input one
        np.testing.assert_allclose(
            sweep.coefficients[2], 4.0 * sweep.coefficients[0], atol=1e-12
        )

    def test_vectorised_sampling_shapes(self, sweep):
        t = np.linspace(0.1, 4.9, 7)
        assert sweep.states(t).shape == (3, 1, 7)
        assert sweep.outputs(t).shape == (3, 1, 7)
        assert sweep.output_coefficients.shape == (3, 1, 100)

    def test_vectorised_matches_item_sampling(self, sweep):
        t = np.linspace(0.1, 4.9, 5)
        np.testing.assert_allclose(
            sweep.outputs(t)[1], sweep[1].outputs(t), atol=1e-14
        )
        np.testing.assert_allclose(
            sweep.outputs_smooth(t)[1], sweep[1].outputs_smooth(t), atol=1e-14
        )
        np.testing.assert_allclose(
            sweep.states_smooth(t)[2], sweep[2].states_smooth(t), atol=1e-14
        )

    def test_feeds_analysis_layer(self, sweep):
        t = np.linspace(0.1, 4.9, 9)
        values = sample_outputs(sweep[0], t)
        assert values.shape == (1, 9)

    def test_grid_property(self, sweep):
        assert sweep.grid is not None
        assert sweep.grid.m == 100

    def test_empty_sweep_rejected(self, scalar_ode):
        with pytest.raises(SolverError, match="at least one"):
            Simulator(scalar_ode, (1.0, 8)).sweep([])

    def test_repr(self, sweep):
        assert "SweepResult(k=3" in repr(sweep)
