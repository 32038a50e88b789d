"""Engine contract suite: every basis family through one Simulator API.

The tentpole guarantee of the basis-generic engine: ``Simulator(system,
grid, basis=...)`` supports ``run`` / ``sweep`` / ``march`` with the
same warm-cache semantics for every registered family.  This suite
drives each family through the same scenarios:

* classical run against the analytic RC response;
* fractional run against the Mittag-Leffler step response;
* batched ``sweep`` consistency with per-input ``run``;
* warm sessions performing zero pencil factorisations *and* zero
  operational-matrix rebuilds (the caching regression test);
* windowed ``march`` -- exact state carry-over for the piecewise
  families, hybrid-function marching (terminal-state / memory-operator
  carry) for the spectral ones -- including fractional memory-tail
  transfer and input events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import LaguerreBasis
from repro.core import DescriptorSystem, FractionalDescriptorSystem, MultiTermSystem
from repro.engine import Event, Simulator
from repro.errors import SolverError
from repro.fractional.analytic import fde_step_response

T_END = 2.0

#: family -> (basis kwarg, m, classical tol, fractional tol, march tol)
ENGINE_FAMILIES = {
    "block-pulse": (None, 256, 5e-3, 5e-3, 5e-3),
    "walsh": ("walsh", 256, 5e-3, 5e-3, 5e-3),
    "haar": ("haar", 256, 5e-3, 5e-3, 5e-3),
    "chebyshev": ("chebyshev", 24, 1e-10, 5e-3, 1e-9),
    "legendre": ("legendre", 24, 1e-10, 5e-3, 1e-9),
}

MARCHING_FAMILIES = sorted(ENGINE_FAMILIES)

SPECTRAL_FAMILIES = ("chebyshev", "legendre")


@pytest.fixture
def rc():
    """Scalar RC: ``x' = -x + u``; step response ``1 - exp(-t)``."""
    return DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])


@pytest.fixture
def frac():
    """Scalar FDE of order 0.6 with known Mittag-Leffler step response."""
    return FractionalDescriptorSystem(0.6, [[1.0]], [[-1.0]], [[1.0]])


def make_session(system, name, *, m=None, t_end=T_END, **kwargs):
    basis, default_m, _, _, _ = ENGINE_FAMILIES[name]
    return Simulator(system, (t_end, m or default_m), basis=basis, **kwargs)


def sample_times(t_end=T_END):
    return np.linspace(0.06 * t_end, 0.94 * t_end, 19)


def assert_first_run_factorisations(sim, name, first):
    """A piecewise session factorises once; a spectral one once per
    real eigenvalue or conjugate pair of its integration matrix (at
    most ``m``)."""
    if name in SPECTRAL_FAMILIES:
        assert 1 <= first <= sim.basis.size
    else:
        assert first == 1
    assert sim.factorisations == first


class TestClassicalRun:
    @pytest.mark.parametrize("name", sorted(ENGINE_FAMILIES))
    def test_step_response(self, rc, name):
        tol = ENGINE_FAMILIES[name][2]
        sim = make_session(rc, name)
        res = sim.run(1.0)
        t = sample_times()
        sampler = res.states_smooth if name == "block-pulse" else res.states
        np.testing.assert_allclose(sampler(t)[0], 1.0 - np.exp(-t), atol=tol)
        assert res.info["basis"] == sim.basis.name

    @pytest.mark.parametrize("name", sorted(ENGINE_FAMILIES))
    def test_nonzero_initial_state(self, name):
        tol = ENGINE_FAMILIES[name][2]
        system = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]], x0=[2.0])
        res = make_session(system, name).run(0.0)
        t = sample_times()
        sampler = res.states if name in ("chebyshev", "legendre") else res.states_smooth
        np.testing.assert_allclose(sampler(t)[0], 2.0 * np.exp(-t), atol=max(tol, 1e-3))


class TestFractionalRun:
    @pytest.mark.parametrize("name", sorted(ENGINE_FAMILIES))
    def test_mittag_leffler_step(self, frac, name):
        tol = ENGINE_FAMILIES[name][3]
        sim = make_session(frac, name)
        res = sim.run(1.0)
        t = sample_times()
        exact = fde_step_response(0.6, 1.0, t)
        sampler = res.states_smooth if name == "block-pulse" else res.states
        np.testing.assert_allclose(sampler(t)[0], exact, atol=tol)


class TestSweep:
    @pytest.mark.parametrize("name", sorted(ENGINE_FAMILIES))
    def test_sweep_equals_runs(self, rc, name):
        sim = make_session(rc, name)
        inputs = [0.5, 1.0, lambda t: np.sin(t)]
        batch = sim.sweep(inputs)
        assert len(batch) == 3
        t = sample_times()
        for i, u in enumerate(inputs):
            single = sim.run(u)
            np.testing.assert_allclose(
                batch[i].states(t), single.states(t), atol=1e-12
            )

    @pytest.mark.parametrize("name", sorted(ENGINE_FAMILIES))
    def test_sweep_shares_one_factorisation(self, rc, name):
        sim = make_session(rc, name)
        sim.run(1.0)
        first = sim.factorisations
        sim.sweep([0.5, 1.0, 2.0, 4.0])
        assert_first_run_factorisations(sim, name, first)


class TestWarmSessionCaching:
    @pytest.mark.parametrize("name", sorted(ENGINE_FAMILIES))
    def test_zero_rebuilds_when_warm(self, rc, name):
        """A warm session rebuilds neither pencils nor operational matrices."""
        sim = make_session(rc, name)
        sim.run(1.0)  # cold call: builds everything
        factorisations = sim.factorisations
        operator_builds = sim.basis.operator_builds + sim._solve_basis.operator_builds
        for u in (0.5, lambda t: np.sin(3.0 * t), 2.0):
            sim.run(u)
        sim.sweep([1.0, 2.0])
        assert sim.factorisations == factorisations
        assert (
            sim.basis.operator_builds + sim._solve_basis.operator_builds
            == operator_builds
        )
        assert sim.is_warm

    @pytest.mark.parametrize("name", MARCHING_FAMILIES)
    def test_march_reuses_the_run_factorisation(self, rc, name):
        sim = make_session(rc, name, t_end=0.5, m=ENGINE_FAMILIES[name][1] // 4)
        sim.run(1.0)
        before = sim.factorisations
        sim.march(1.0, 2.0)
        assert sim.factorisations == before


class TestClassicalMarch:
    @pytest.mark.parametrize("name", MARCHING_FAMILIES)
    def test_march_matches_analytic(self, rc, name):
        tol = ENGINE_FAMILIES[name][4]
        sim = make_session(rc, name, t_end=0.5, m=ENGINE_FAMILIES[name][1] // 4)
        sim.run(1.0)
        first = sim.factorisations
        res = sim.march(1.0, 4.0)
        assert res.n_windows == 8
        t = np.linspace(0.1, 3.9, 21)
        np.testing.assert_allclose(
            res.states_smooth(t)[0], 1.0 - np.exp(-t), atol=max(tol, 2e-3)
        )
        assert_first_run_factorisations(sim, name, first)

    @pytest.mark.parametrize("name", MARCHING_FAMILIES)
    def test_march_with_input_event(self, rc, name):
        sim = make_session(rc, name, t_end=0.5, m=ENGINE_FAMILIES[name][1] // 4)
        res = sim.march(1.0, 2.0, events=[Event(t=1.0, scale=0.0, label="off")])
        # input switched off at t=1: from there the state decays
        x1 = res.states_smooth([1.0])[0, 0]
        x2 = res.states_smooth([1.9])[0, 0]
        assert x2 < x1
        np.testing.assert_allclose(
            x2, x1 * np.exp(-0.9), rtol=0.05
        )
        assert len(res.info["events"]) == 1

    @pytest.mark.parametrize("name", ["chebyshev", "legendre"])
    def test_spectral_pencil_event_restamps(self, rc, name):
        sim = make_session(rc, name, t_end=0.5, m=12)
        # halve the time constant from t = 1
        res = sim.march(
            1.0, 2.0, events=[Event(t=1.0, A=[[-2.0]], label="switch")]
        )
        t = np.linspace(1.3, 1.9, 5)
        # closed form after the switch: x -> 0.5 + (x1 - 0.5) e^{-2 (t-1)}
        x1 = res.states([1.0])[0, 0]
        exact = 0.5 + (x1 - 0.5) * np.exp(-2.0 * (t - 1.0))
        np.testing.assert_allclose(res.states(t)[0], exact, atol=1e-4)
        assert res.info["restamps"] == 1
        # the session solves against the base pencil again afterwards
        r = sim.run(1.0)
        t_win = np.linspace(0.03, 0.47, 15)  # inside the session window
        np.testing.assert_allclose(
            r.states(t_win)[0], 1.0 - np.exp(-t_win), atol=1e-8
        )


class TestFractionalMarch:
    @pytest.mark.parametrize("name", MARCHING_FAMILIES)
    def test_memory_tail_carry_over(self, frac, name):
        """Marched fractional windows carry the full RL memory."""
        m = ENGINE_FAMILIES[name][1] // 4
        sim = make_session(frac, name, t_end=0.5, m=m)
        sim.run(1.0)
        first = sim.factorisations
        res = sim.march(1.0, 2.0)
        t = np.linspace(0.15, 1.9, 17)
        exact = fde_step_response(0.6, 1.0, t)
        np.testing.assert_allclose(res.states_smooth(t)[0], exact, atol=1.5e-2)
        assert_first_run_factorisations(sim, name, first)

    def test_block_pulse_march_bit_equals_single_solve(self, frac):
        sim = make_session(frac, "block-pulse", t_end=0.5, m=64)
        res = sim.march(1.0, 2.0)
        single = make_session(frac, "block-pulse", t_end=2.0, m=256).run(1.0)
        np.testing.assert_allclose(
            res.coefficients, single.coefficients, rtol=0.0, atol=1e-13
        )

    @pytest.mark.parametrize("name", ["chebyshev", "legendre"])
    def test_spectral_rejects_fractional_pencil_events(self, frac, name):
        sim = make_session(frac, name, t_end=0.5, m=12)
        with pytest.raises(SolverError, match="input events only"):
            sim.march(1.0, 2.0, events=[Event(t=1.0, A=[[-2.0]])])

    @pytest.mark.parametrize("name", ["chebyshev", "legendre"])
    def test_spectral_fractional_input_event(self, frac, name):
        sim = make_session(frac, name, t_end=0.5, m=16)
        res = sim.march(1.0, 2.0, events=[Event(t=1.0, scale=0.0)])
        x1 = res.states([0.95])[0, 0]
        x2 = res.states([1.9])[0, 0]
        assert x2 < x1  # relaxes once the drive is removed


class TestLaguerreSessions:
    def test_run_on_semi_infinite_horizon(self, rc):
        sim = Simulator(rc, LaguerreBasis(1.0, 40))
        res = sim.run(lambda t: np.exp(-2.0 * t))
        t = np.linspace(0.2, 6.0, 25)
        exact = np.exp(-t) - np.exp(-2.0 * t)
        np.testing.assert_allclose(res.states(t)[0], exact, atol=1e-10)
        assert res.info["method"] == "opm-toeplitz[laguerre]"
        res2 = sim.run(lambda t: 2.0 * np.exp(-2.0 * t))
        assert sim.factorisations == 1
        np.testing.assert_allclose(res2.states(t)[0], 2.0 * exact, atol=1e-9)

    def test_march_rejected(self, rc):
        sim = Simulator(rc, LaguerreBasis(1.0, 16))
        with pytest.raises(SolverError, match="infinite horizon"):
            sim.march(1.0, 4.0)

    def test_high_order_projection_is_finite_and_accurate(self, rc):
        """m ~ 128 must not overflow (scaled recurrence + capped rule)."""
        sim = Simulator(rc, LaguerreBasis(1.0, 128))
        res = sim.run(lambda t: np.exp(-2.0 * t))
        assert np.all(np.isfinite(res.coefficients))
        t = np.linspace(0.2, 6.0, 25)
        exact = np.exp(-t) - np.exp(-2.0 * t)
        np.testing.assert_allclose(res.states(t)[0], exact, atol=1e-10)

    def test_unavailable_quadrature_order_raises_typed(self):
        from repro.errors import BasisError

        with pytest.raises(BasisError, match="n_quad"):
            LaguerreBasis(1.0, 8, n_quad=512)

    def test_grid_is_none(self, rc):
        sim = Simulator(rc, LaguerreBasis(1.0, 16))
        assert sim.grid is None


class TestSessionConstruction:
    def test_unknown_basis_name_suggests(self, rc):
        from repro.errors import BasisError

        with pytest.raises(BasisError, match="did you mean 'chebyshev'"):
            Simulator(rc, (1.0, 16), basis="chebishev")

    def test_basis_instance_and_grid_must_agree(self, rc):
        from repro.basis import LegendreBasis

        with pytest.raises(SolverError, match="does not match"):
            Simulator(rc, (1.0, 16), basis=LegendreBasis(2.0, 16))

    def test_block_pulse_instance_grid_spacing_must_match(self, rc):
        from repro.basis import BlockPulseBasis, TimeGrid

        uniform = BlockPulseBasis(TimeGrid.uniform(1.0, 16))
        adaptive = TimeGrid.geometric(1.0, 16, 1.3)  # same m, t_end
        with pytest.raises(SolverError, match="does not match"):
            Simulator(rc, adaptive, basis=uniform)

    def test_grid_free_basis_rejects_adaptive_grid(self, rc):
        from repro.basis import LegendreBasis, TimeGrid

        adaptive = TimeGrid.geometric(1.0, 16, 1.3)
        with pytest.raises(SolverError, match="adaptive"):
            Simulator(rc, adaptive, basis=LegendreBasis(1.0, 16))
        from repro.errors import BasisError

        with pytest.raises(BasisError, match="adaptive"):
            Simulator(rc, adaptive, basis="legendre")

    def test_basis_instance_in_grid_position_excludes_kwarg(self, rc):
        from repro.basis import LegendreBasis

        with pytest.raises(TypeError, match="not both"):
            Simulator(rc, LegendreBasis(1.0, 8), basis="chebyshev")

    def test_multiterm_requires_piecewise_basis(self):
        system = MultiTermSystem(
            [(2.0, np.eye(2)), (0.0, np.eye(2))], np.ones((2, 1))
        )
        with pytest.raises(SolverError, match="piecewise-constant"):
            Simulator(system, (1.0, 16), basis="legendre")

    def test_multiterm_through_walsh(self):
        system = MultiTermSystem(
            [(2.0, np.eye(1)), (1.0, 0.4 * np.eye(1)), (0.0, np.eye(1))],
            np.ones((1, 1)),
        )
        res = Simulator(system, (1.0, 64), basis="walsh").run(1.0)
        ref = Simulator(system, (1.0, 64)).run(1.0)
        t = np.linspace(0.05, 0.95, 11)
        np.testing.assert_allclose(res.states(t), ref.states(t), atol=1e-10)

    def test_large_dense_spectral_session_matches_sparse(self):
        """backend='dense' binds an n=300, m=80 Chebyshev session.

        The Schur-rotated sweep factorises n x n pencils only, so no
        (n m)^2 operator is ever formed and the dense and sparse
        backends agree.
        """
        import scipy.sparse as sp

        n = 300
        A = sp.diags([-2.0 * np.ones(n)], [0], format="csr")
        system = DescriptorSystem(sp.identity(n, format="csr"), A, np.ones((n, 1)))
        dense = Simulator(system, (1.0, 80), basis="chebyshev", backend="dense")
        sparse = Simulator(system, (1.0, 80), basis="chebyshev", backend="sparse")
        assert dense.backend == "dense" and sparse.backend == "sparse"
        x_dense = dense.run(1.0).coefficients
        x_sparse = sparse.run(1.0).coefficients
        scale = np.max(np.abs(x_sparse))
        assert np.max(np.abs(x_dense - x_sparse)) <= 1e-12 * scale

    def test_instance_projection_survives_default_wrappers(self, rc):
        """A midpoint-projection Walsh instance keeps its rule by default."""
        from repro.basis import WalshBasis
        from repro.core import simulate_opm

        basis = WalshBasis(T_END, 32, projection="midpoint")
        res = simulate_opm(rc, lambda t: np.sin(t), basis)
        assert res.basis is basis
        assert res.basis.projection == "midpoint"
        sim = Simulator(rc, basis)
        assert sim.basis is basis

    def test_projection_honoured_for_transformed_bases(self, rc):
        """A midpoint Walsh instance's rule reaches its block pulses."""
        from repro.basis import BlockPulseBasis, TimeGrid, WalshBasis

        mid = Simulator(
            rc, WalshBasis(T_END, 64, projection="midpoint")
        ).run(lambda t: np.sin(t))
        avg = Simulator(rc, WalshBasis(T_END, 64)).run(lambda t: np.sin(t))
        assert np.max(np.abs(mid.coefficients - avg.coefficients)) > 0.0
        ref = Simulator(
            rc, BlockPulseBasis(TimeGrid.uniform(T_END, 64), projection="midpoint")
        ).run(lambda t: np.sin(t))
        np.testing.assert_allclose(
            mid.basis.to_block_pulse_coefficients(mid.coefficients),
            ref.coefficients,
            atol=1e-12,
        )

    def test_walsh_march_smooth_sampling_is_second_order(self, rc):
        """Transformed marches sample through the block-pulse smooth path."""
        walsh = make_session(rc, "walsh", t_end=1.0, m=64).march(1.0, 3.0)
        bpf = make_session(rc, "block-pulse", t_end=1.0, m=64).march(1.0, 3.0)
        t = np.linspace(0.1, 2.9, 17)
        np.testing.assert_allclose(
            walsh.states_smooth(t), bpf.states_smooth(t), atol=1e-10
        )
        np.testing.assert_allclose(
            walsh.terminal_state(), bpf.terminal_state(), atol=1e-10
        )

    def test_march_reads_coefficient_arrays_in_session_basis(self, rc):
        """march() interprets coefficient chunks exactly like run()."""
        from repro.basis import WalshBasis

        sim = Simulator(rc, WalshBasis(1.0, 8))
        U = sim.project(1.0)  # Walsh coefficients of the unit step
        single = sim.run(U)
        marched = sim.march(np.tile(U, (1, 2)), 2.0)
        t = np.linspace(0.05, 0.95, 7)
        np.testing.assert_allclose(
            marched.states(t), single.states(t), atol=1e-12
        )

    def test_walsh_sweep_decodes_every_member(self, rc):
        sim = make_session(rc, "walsh")
        batch = sim.sweep([1.0, 2.0])
        assert batch.basis is sim.basis
        t = sample_times()
        np.testing.assert_allclose(
            batch[1].states(t), 2.0 * batch[0].states(t), atol=1e-10
        )
