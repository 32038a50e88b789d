"""Tests for the windowed time-marching engine (engine.marching)."""

import numpy as np
import pytest

from repro.circuits import assemble_mna, power_grid
from repro.core import (
    DescriptorSystem,
    Event,
    FractionalDescriptorSystem,
    MultiTermSystem,
    Simulator,
    simulate,
    simulate_opm,
)
from repro.basis.grid import TimeGrid
from repro.errors import ModelError, SolverError
from repro.fractional import simulate_grunwald_letnikov
from repro.fractional.history import HistoryTail, history_dot, history_weights


def dense_system(n=6, seed=0, x0=False, alpha=None):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) - 3.0 * np.eye(n)
    E = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    B = rng.standard_normal((n, 1))
    init = rng.standard_normal(n) if x0 else None
    if alpha is None:
        return DescriptorSystem(E, A, B, x0=init)
    return FractionalDescriptorSystem(alpha, E, A, B, x0=init)


def sine(t):
    return np.sin(3.0 * t)


class TestHistoryHelpers:
    def test_history_dot_matches_loop(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 10))
        w = rng.standard_normal(11)
        k = 7
        expect = sum(w[j] * X[:, k - j] for j in range(1, k + 1))
        np.testing.assert_allclose(history_dot(X, w, k), expect)

    def test_history_dot_empty(self):
        assert np.all(history_dot(np.zeros((3, 5)), np.ones(6), 0) == 0.0)

    def test_history_weights_layout(self):
        c = np.arange(20.0)
        W = history_weights(c, start=4, count=3)
        assert W.shape == (4, 3)
        # W[i, j] = c[start + j - i]
        for i in range(4):
            np.testing.assert_array_equal(W[i], c[4 - i : 7 - i])

    def test_history_weights_needs_enough_coeffs(self):
        with pytest.raises(SolverError):
            history_weights(np.ones(5), start=4, count=3)

    def test_tail_matches_direct_convolution(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(40)
        tail = HistoryTail(c, block_columns=4)
        blocks = [rng.standard_normal((3, 10)) for _ in range(2)]
        X = np.concatenate(blocks, axis=1)
        for b in blocks:
            tail.append(b)
        H = tail.tail(10)
        for j in range(10):
            expect = sum(c[20 + j - i] * X[:, i] for i in range(20))
            np.testing.assert_allclose(H[:, j], expect, atol=1e-12)

    def test_tail_none_before_any_append(self):
        assert HistoryTail(np.ones(8)).tail(4) is None


class TestClassicalMarch:
    """Windowed == single-window for first-order systems (exact restart)."""

    def test_matches_single_window_power_grid_10x_horizon(self):
        """Acceptance: >=100-state grid, 10x horizon, max-abs <= 1e-8."""
        netlist = power_grid(6, 6, nz=2)
        system = assemble_mna(netlist)
        assert system.n_states >= 100
        u = netlist.input_function()
        window, m, K = 1e-9, 40, 10

        sim = Simulator(system, (window, m))
        marched = sim.march(u, K * window)
        reference = simulate_opm(system, u, (K * window, K * m))
        drift = np.max(np.abs(marched.coefficients - reference.coefficients))
        assert drift <= 1e-8
        assert sim.factorisations == 1
        assert marched.n_windows == K

    def test_matches_single_window_with_x0(self):
        system = dense_system(x0=True)
        sim = Simulator(system, (0.5, 32))
        marched = sim.march(sine, 4.0)
        reference = simulate_opm(system, sine, (4.0, 8 * 32))
        np.testing.assert_allclose(
            marched.coefficients, reference.coefficients, atol=1e-10
        )

    def test_one_window_degenerates_to_run(self):
        system = dense_system()
        sim = Simulator(system, (1.0, 64))
        marched = sim.march(sine, 1.0)
        single = sim.run(sine)
        np.testing.assert_allclose(
            marched.coefficients, single.coefficients, atol=1e-12
        )

    def test_coefficient_array_input(self):
        system = dense_system()
        sim = Simulator(system, (0.5, 16))
        U = np.linspace(0.0, 1.0, 8 * 16).reshape(1, -1)
        marched = sim.march(U, 4.0)
        reference = simulate_opm(system, U, (4.0, 8 * 16))
        np.testing.assert_allclose(
            marched.coefficients, reference.coefficients, atol=1e-10
        )

    def test_streaming_chunks_equal_global_callable(self):
        system = dense_system()
        sim = Simulator(system, (0.5, 16))
        chunks = ((lambda tl, off=0.5 * k: sine(tl + off)) for k in range(8))
        streamed = sim.march(chunks, 4.0)
        direct = sim.march(sine, 4.0)
        np.testing.assert_allclose(
            streamed.coefficients, direct.coefficients, atol=1e-13
        )

    def test_exhausted_stream_raises(self):
        system = dense_system()
        sim = Simulator(system, (0.5, 16))
        with pytest.raises(SolverError, match="stream exhausted"):
            sim.march(iter([1.0, 1.0]), 2.0)


class TestFractionalMarch:
    """Windowed fractional marching carries the full memory tail."""

    def test_matches_single_window_solve(self):
        system = dense_system(alpha=0.7)
        sim = Simulator(system, (0.5, 32))
        marched = sim.march(sine, 4.0)
        reference = simulate_opm(system, sine, (4.0, 8 * 32))
        np.testing.assert_allclose(
            marched.coefficients, reference.coefficients, atol=1e-10
        )
        assert sim.factorisations == 1

    def test_matches_single_window_with_x0(self):
        system = dense_system(x0=True, alpha=0.6)
        sim = Simulator(system, (0.5, 32))
        marched = sim.march(sine, 4.0)
        reference = simulate_opm(system, sine, (4.0, 8 * 32))
        np.testing.assert_allclose(
            marched.coefficients, reference.coefficients, atol=1e-10
        )

    def test_within_tolerance_of_gl_reference(self):
        """Acceptance: fractional march vs GL baseline with nonzero tail."""
        netlist = power_grid(6, 6, nz=2)
        mna = assemble_mna(netlist)
        assert mna.n_states >= 100
        # fractional power grid: same topology, alpha-order dynamics
        system = FractionalDescriptorSystem(0.9, mna.E, mna.A, mna.B)
        u = netlist.input_function()
        t_end, K, m = 10e-9, 10, 60

        sim = Simulator(system, (t_end / K, m))
        marched = sim.march(u, t_end)
        gl = simulate_grunwald_letnikov(system, u, t_end, K * m)
        t = np.linspace(0.3e-9, 9.7e-9, 25)
        diff = np.max(np.abs(marched.states_smooth(t) - gl.states(t)))
        assert diff <= 1e-4


class TestEvents:
    def test_restamp_caches_both_pencils(self):
        """Acceptance: events re-stamp; the PencilBank caches both pencils."""
        system = dense_system()
        n = system.n_states
        A2 = system.A - 0.5 * np.eye(n)
        sim = Simulator(system, (0.5, 16))
        result = sim.march(sine, 4.0, events=[Event(t=2.0, A=A2, label="close")])
        bank = sim._plan.bank
        assert bank.stamps == 2
        assert sim.factorisations == 2
        assert result.info["restamps"] == 1
        assert result.info["events"][0]["label"] == "close"

    def test_toggling_back_reuses_cached_pencil(self):
        system = dense_system()
        A2 = system.A - 0.5 * np.eye(system.n_states)
        sim = Simulator(system, (0.5, 16))
        sim.march(
            sine,
            4.0,
            events=[Event(t=1.0, A=A2), Event(t=2.0, A=system.A), Event(t=3.0, A=A2)],
        )
        bank = sim._plan.bank
        assert bank.stamps == 2  # only two distinct configurations
        assert sim.factorisations == 2  # ... and no re-factorisation on toggle

    def test_piecewise_constant_A_matches_split_reference(self):
        """Event solve == two manual solves glued at the boundary."""
        system = dense_system()
        n = system.n_states
        A2 = system.A - 1.0 * np.eye(n)
        sim = Simulator(system, (0.5, 32))
        marched = sim.march(sine, 4.0, events=[Event(t=2.0, A=A2)])

        # manual reference: solve [0,2], then restart [2,4] on the new A
        # from the exact terminal flux E x(T) = h * sum_j (A x_j + B u_j)
        first = simulate_opm(system, sine, (2.0, 4 * 32))
        h = 2.0 / (4 * 32)
        U1 = first.input_coefficients
        w = h * (
            system.A @ first.coefficients.sum(axis=1) + system.B @ U1.sum(axis=1)
        )
        x0_equiv = np.linalg.solve(system.E, w)
        second_sys = DescriptorSystem(
            system.E, A2, system.B, x0=x0_equiv
        )
        second = simulate_opm(
            second_sys, lambda t: sine(t + 2.0), (2.0, 4 * 32)
        )
        np.testing.assert_allclose(
            marched.coefficients[:, : 4 * 32], first.coefficients, atol=1e-10
        )
        np.testing.assert_allclose(
            marched.coefficients[:, 4 * 32 :], second.coefficients, atol=1e-8
        )

    def test_scale_event_is_load_step(self):
        system = dense_system()
        sim = Simulator(system, (0.5, 16))
        result = sim.march(1.0, 2.0, events=[Event(t=1.0, scale=2.0)])
        U = np.concatenate([w.input_coefficients for w in result.windows], axis=1)
        assert np.allclose(U[:, :32], 1.0) and np.allclose(U[:, 32:], 2.0)

    def test_event_swaps_input(self):
        system = dense_system()
        sim = Simulator(system, (0.5, 16))
        result = sim.march(0.0, 2.0, events=[Event(t=1.5, u=1.0)])
        U = np.concatenate([w.input_coefficients for w in result.windows], axis=1)
        assert np.allclose(U[:, :48], 0.0) and np.allclose(U[:, 48:], 1.0)

    def test_session_pencil_restored_after_eventful_march(self):
        """Regression: an eventful march must not leave the session bound
        to the event pencil (later runs would silently use the wrong LU)."""
        system = dense_system()
        sim = Simulator(system, (0.5, 32))
        before = sim.run(sine).coefficients
        A2 = system.A - 2.0 * np.eye(system.n_states)
        sim.march(sine, 2.0, events=[Event(t=1.0, A=A2)])
        after = sim.run(sine).coefficients
        np.testing.assert_array_equal(before, after)
        # ... and a fresh event-free march still matches the reference
        marched = sim.march(sine, 2.0)
        reference = simulate_opm(system, sine, (2.0, 4 * 32))
        np.testing.assert_allclose(
            marched.coefficients, reference.coefficients, atol=1e-10
        )

    def test_event_validation(self):
        system = dense_system()
        sim = Simulator(system, (0.5, 16))
        with pytest.raises(SolverError, match="changes nothing"):
            Event(t=1.0)
        with pytest.raises(SolverError, match="window boundary"):
            sim.march(sine, 2.0, events=[Event(t=0.7, scale=2.0)])
        with pytest.raises(SolverError, match="strictly inside"):
            sim.march(sine, 2.0, events=[Event(t=2.0, scale=2.0)])
        with pytest.raises(ModelError, match="dimensions"):
            sim.march(
                sine, 2.0, events=[Event(t=1.0, system=dense_system(n=4))]
            )
        with pytest.raises(ModelError, match="fractional order"):
            sim.march(
                sine,
                2.0,
                events=[Event(t=1.0, system=dense_system(alpha=0.5))],
            )


class TestMarchingResult:
    @pytest.fixture
    def marched(self):
        system = dense_system()
        sim = Simulator(system, (0.5, 32))
        return sim.march(sine, 4.0), simulate_opm(system, sine, (4.0, 8 * 32))

    def test_sampling_matches_reference(self, marched):
        result, reference = marched
        t = np.linspace(0.0, 4.0, 101)
        np.testing.assert_allclose(
            result.states(t), reference.states(t), atol=1e-12
        )
        np.testing.assert_allclose(
            result.outputs_smooth(t), reference.outputs_smooth(t), atol=1e-12
        )

    def test_shape_properties(self, marched):
        result, _ = marched
        assert result.n_windows == len(result) == 8
        assert result.window_m == 32
        assert result.m == 256
        assert result.t_end == pytest.approx(4.0)
        assert result.midpoints.size == 256
        np.testing.assert_allclose(
            result.sample_times(), result.midpoints
        )

    def test_window_indexing(self, marched):
        result, _ = marched
        window = result[3]
        assert window.info["window_index"] == 3
        assert window.info["t_offset"] == pytest.approx(1.5)
        assert window.m == 32
        np.testing.assert_array_equal(
            window.coefficients, result.coefficients[:, 96:128]
        )

    def test_terminal_state_estimate(self, marched):
        result, reference = marched
        # compare against the reference's own endpoint extrapolation
        X = reference.coefficients
        expect = 1.5 * X[:, -1] - 0.5 * X[:, -2]
        np.testing.assert_allclose(result.terminal_state(), expect, atol=1e-10)

    def test_out_of_range_times_rejected(self, marched):
        result, _ = marched
        with pytest.raises(ValueError):
            result.states([4.5])

    def test_empty_times(self, marched):
        result, _ = marched
        assert result.states(np.array([])).shape == (result.n_states, 0)
        assert result.outputs(np.array([])).shape[1] == 0

    def test_endpoint_roundoff_accepted(self, marched):
        """A global time just past t_end (within tolerance) must sample
        the last window instead of tripping the window-local bound."""
        result, reference = marched
        t = result.t_end * (1 + 0.9e-12)
        np.testing.assert_allclose(
            result.states([t]), reference.states([result.t_end]), atol=1e-12
        )

    def test_info(self, marched):
        result, _ = marched
        assert result.info["method"] == "opm-windowed"
        assert result.info["windows"] == 8
        assert result.info["stamps"] == 1


class TestGuards:
    def test_multiterm_rejected(self):
        msys = MultiTermSystem(
            [(2.0, np.eye(2)), (1.0, 0.2 * np.eye(2)), (0.0, np.eye(2))],
            np.ones((2, 1)),
        )
        sim = Simulator(msys, (1.0, 16))
        with pytest.raises(SolverError, match="descriptor"):
            sim.march(1.0, 4.0)

    def test_adaptive_grid_rejected(self):
        system = dense_system()
        sim = Simulator(system, TimeGrid.geometric(1.0, 16, 1.2))
        with pytest.raises(SolverError, match="uniform"):
            sim.march(1.0, 4.0)

    def test_misaligned_horizon_rejected(self):
        sim = Simulator(dense_system(), (0.5, 16))
        with pytest.raises(SolverError, match="window boundary"):
            sim.march(1.0, 4.2)

    def test_nonpositive_horizon_rejected(self):
        sim = Simulator(dense_system(), (0.5, 16))
        with pytest.raises(SolverError, match="positive"):
            sim.march(1.0, -1.0)

    def test_bad_input_type_rejected(self):
        sim = Simulator(dense_system(), (0.5, 16))
        with pytest.raises(ModelError, match="march input"):
            sim.march(object(), 2.0)

    def test_bad_coefficient_shape_rejected(self):
        sim = Simulator(dense_system(), (0.5, 16))
        with pytest.raises(ModelError, match="K \\* m"):
            sim.march(np.ones((1, 17)), 2.0)


class TestDispatch:
    def test_windows_march_on_opm(self):
        system = dense_system()
        windowed = simulate(system, sine, 4.0, 128, windows=8)
        reference = simulate(system, sine, 4.0, 128, method="opm")
        np.testing.assert_allclose(
            windowed.coefficients, reference.coefficients, atol=1e-10
        )
        assert windowed.info["windows"] == 8

    def test_indivisible_steps_rejected(self):
        with pytest.raises(SolverError, match="divisible"):
            simulate(dense_system(), sine, 4.0, 100, windows=7)

    def test_bad_window_count_rejected(self):
        with pytest.raises(SolverError, match="windows"):
            simulate(dense_system(), sine, 4.0, 100, windows=0)
