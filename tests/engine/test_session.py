"""Tests for the cached Simulator session."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.basis import BlockPulseBasis, TimeGrid
from repro.core import (
    DescriptorSystem,
    FractionalDescriptorSystem,
    MultiTermSystem,
    Simulator,
    simulate_multiterm,
    simulate_opm,
)
from repro.errors import SolverError

from ..conftest import stable_dense_system


class TestSessionBasics:
    def test_matches_one_shot_solver(self, scalar_ode):
        sim = Simulator(scalar_ode, (5.0, 200))
        res = sim.run(1.0)
        ref = simulate_opm(scalar_ode, 1.0, (5.0, 200))
        np.testing.assert_allclose(res.coefficients, ref.coefficients, atol=1e-14)
        assert res.info["method"] == ref.info["method"] == "opm-alternating"

    def test_warm_run_reuses_factorisation(self, scalar_ode):
        sim = Simulator(scalar_ode, (5.0, 100))
        first = sim.run(1.0)
        second = sim.run(lambda t: np.sin(t))
        assert sim.factorisations == 1
        assert first.info["warm"] is False
        assert second.info["warm"] is True
        assert sim.runs == 2

    def test_fractional_session(self, scalar_fde):
        sim = Simulator(scalar_fde, (2.0, 300))
        res = sim.run(1.0)
        ref = simulate_opm(scalar_fde, 1.0, (2.0, 300))
        np.testing.assert_allclose(res.coefficients, ref.coefficients, atol=1e-14)
        assert res.info["method"] == "opm-toeplitz"
        sim.run(2.0)
        assert sim.factorisations == 1

    def test_adaptive_grid_session(self, rng):
        system = stable_dense_system(rng, 4)
        grid = TimeGrid.geometric(2.0, 64, 1.05)
        sim = Simulator(system, grid)
        res = sim.run(1.0)
        ref = simulate_opm(system, 1.0, grid)
        np.testing.assert_allclose(res.coefficients, ref.coefficients, atol=1e-14)
        assert res.info["method"] == "opm-general"
        # revisiting the same grid reuses all per-step factorisations
        count = sim.factorisations
        sim.run(2.0)
        assert sim.factorisations == count

    def test_multiterm_session(self):
        msys = MultiTermSystem(
            [(2.0, np.eye(1)), (0.5, 0.5 * np.eye(1)), (0.0, np.eye(1))],
            [[1.0]],
        )
        sim = Simulator(msys, (10.0, 128))
        res = sim.run(1.0)
        ref = simulate_multiterm(msys, 1.0, (10.0, 128))
        np.testing.assert_allclose(res.coefficients, ref.coefficients, atol=1e-14)
        assert res.info["method"] == "opm-multiterm"
        sim.run(0.5)
        assert sim.factorisations == 1

    def test_simulate_opm_runs_multiterm_on_its_session(self):
        """No multi-term detour: ``reduce=`` is recorded, not dropped,
        and a basis instance carries its projection rule."""
        msys = MultiTermSystem(
            [(2.0, np.eye(1)), (0.5, 0.5 * np.eye(1)), (0.0, np.eye(1))],
            [[1.0]],
        )
        one_shot = simulate_opm(msys, 1.0, (10.0, 64), reduce="auto")
        direct = Simulator(msys, (10.0, 64), reduce="auto").run(1.0)
        assert one_shot.info["mor"]["reason"] == "unsupported-system"
        assert one_shot.info["mor"] == direct.info["mor"]
        np.testing.assert_array_equal(one_shot.coefficients, direct.coefficients)
        midpoint = BlockPulseBasis(TimeGrid.uniform(10.0, 64), projection="midpoint")
        res = simulate_multiterm(msys, np.sin, midpoint)
        assert res.basis is midpoint
        ref = Simulator(msys, midpoint).run(np.sin)
        np.testing.assert_array_equal(res.coefficients, ref.coefficients)

    def test_multiterm_rejects_adaptive_grid(self):
        msys = MultiTermSystem([(2.0, np.eye(1)), (0.0, np.eye(1))], [[1.0]])
        with pytest.raises(SolverError, match="uniform"):
            Simulator(msys, TimeGrid.geometric(1.0, 16, 1.1))

    def test_nonzero_initial_state(self):
        system = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]], x0=[2.0])
        sim = Simulator(system, (5.0, 400))
        res = sim.run(0.0)
        # free decay from x0=2: x(t) = 2 e^{-t}
        t = np.array([1.0, 3.0])
        np.testing.assert_allclose(
            res.states_smooth(t)[0], 2.0 * np.exp(-t), atol=2e-3
        )

    def test_rejects_bad_system(self):
        with pytest.raises(TypeError, match="DescriptorSystem"):
            Simulator("not a system", (1.0, 8))

    def test_rejects_bad_grid(self, scalar_ode):
        with pytest.raises(TypeError, match="grid"):
            Simulator(scalar_ode, 5.0)


class TestBackendChoice:
    def test_small_system_uses_dense(self, scalar_ode):
        assert Simulator(scalar_ode, (1.0, 8)).backend == "dense"

    def test_large_sparse_system_uses_sparse(self):
        n = 400
        A = sp.diags(
            [np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1]
        ).tocsr()
        system = DescriptorSystem(sp.identity(n, format="csr"), A, np.ones((n, 1)))
        sim = Simulator(system, (1.0, 16))
        assert sim.backend == "sparse"
        res = sim.run(1.0)
        assert res.info["backend"] == "sparse"

    def test_multiterm_sparse_pencil_stays_sparse(self):
        # explicit zeros in the pencil-sum pattern must not inflate the
        # density estimate used for auto backend selection
        n = 300
        M2 = sp.identity(n, format="csr")
        M0 = sp.diags(
            [np.ones(n - 1), 2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1]
        ).tocsr()
        msys = MultiTermSystem([(2.0, M2), (0.0, M0)], np.ones((n, 1)))
        assert Simulator(msys, (1.0, 8)).backend == "sparse"

    def test_forced_backends_agree(self, rng):
        system = stable_dense_system(rng, 5)
        dense = Simulator(system, (2.0, 64), backend="dense").run(1.0)
        sparse = Simulator(system, (2.0, 64), backend="sparse").run(1.0)
        np.testing.assert_allclose(
            dense.coefficients, sparse.coefficients, rtol=1e-9, atol=1e-12
        )
