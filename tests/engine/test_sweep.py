"""Tests for batched multi-input sweeps and the BatchResult container."""

import numpy as np
import pytest

from repro.analysis import sample_outputs
from repro.basis import TimeGrid
from repro.core import (
    BatchResult,
    DescriptorSystem,
    FractionalDescriptorSystem,
    MultiTermSystem,
    SimulationResult,
    Simulator,
)
from repro.engine.executor import Ensemble, ParallelExecutor
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
    """The batch container as :meth:`Simulator.sweep` returns it."""

    @pytest.fixture
    def sweep(self, scalar_ode):
        return Simulator(scalar_ode, (5.0, 100)).sweep([0.5, 1.0, 2.0])

    def test_len_and_indexing(self, sweep):
        assert isinstance(sweep, BatchResult)
        assert len(sweep) == 3
        item = sweep[1]
        assert isinstance(item, SimulationResult)
        assert item.info["batch_index"] == 1
        assert sweep[-1].info["batch_index"] == 2
        with pytest.raises(IndexError):
            sweep[3]

    def test_iteration_order(self, sweep):
        assert [r.info["batch_index"] for r in sweep] == [0, 1, 2]
        assert len(list(sweep)) == 3

    def test_slicing_returns_sub_sweep(self, sweep):
        sub = sweep[1:]
        assert isinstance(sub, BatchResult)
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.coefficients, sweep.coefficients[1:])
        np.testing.assert_allclose(
            sub[0].coefficients, sweep[1].coefficients, atol=0.0
        )
        assert len(sweep[::2]) == 2
        assert len(sweep[0:2]) == 2

    def test_runs_are_views_and_coefficients_are_not_restacked(self, sweep):
        assert sweep.coefficients is sweep.coefficients
        assert sweep.output_coefficients is sweep.output_coefficients
        for i in range(len(sweep)):
            assert np.shares_memory(sweep[i].coefficients, sweep.coefficients)
            assert np.shares_memory(
                sweep[i].input_coefficients, sweep.input_coefficients
            )
        assert np.shares_memory(sweep[1:].coefficients, sweep.coefficients)

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
        for i, run in enumerate(sweep):
            assert sweep.outputs(t)[i].tobytes() == run.outputs(t).tobytes()
            assert sweep.states(t)[i].tobytes() == run.states(t).tobytes()
            assert (
                sweep.outputs_smooth(t)[i].tobytes()
                == run.outputs_smooth(t).tobytes()
            )
            assert (
                sweep.states_smooth(t)[i].tobytes() == run.states_smooth(t).tobytes()
            )
        np.testing.assert_array_equal(sweep.sample_times(), sweep[0].sample_times())
        np.testing.assert_array_equal(sweep.sample_times(9), sweep[0].sample_times(9))

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
        assert "BatchResult(k=3" in repr(sweep)


class TestEnsembleBatchResult(TestSweepResult):
    """The same container as ``ParallelExecutor.run`` returns it: every
    sweep test above runs again on an ensemble of the same three runs."""

    @pytest.fixture
    def sweep(self, scalar_ode):
        ensemble = Ensemble([(scalar_ode, u) for u in (0.5, 1.0, 2.0)])
        return ParallelExecutor("serial", jobs=2).run(ensemble, (5.0, 100))

    def test_labels_and_params_follow_slices(self, sweep):
        assert sweep.labels == ["member-0", "member-1", "member-2"]
        assert sweep[1:].labels == ["member-1", "member-2"]
        assert sweep[2].info["label"] == "member-2"
        assert sweep[1:].params == [{}, {}]
