"""Tests for certified reduced-order engine plans (engine.reduction).

The contract under test: a bound :class:`ReductionPlan` must (a) hand
back results within its certified tolerance of the full solve on every
plan family (run / sweep / march, block-pulse and spectral bases),
(b) *refuse* -- loudly for explicit plans, silently with a recorded
reason for ``"auto"`` -- whenever the certificate cannot be issued,
and (c) fall back to bit-identical full-model arithmetic whenever a
certificate is violated.  Workload constants below were calibrated by
measurement: a 16-moment plan certifies the RC ladders on these grids
with bounds around ``1e-8``, while the default 12-moment auto plan
certifies the 600-state ladder only on the shorter ``(2.0, 32)`` grid.
"""


import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    DescriptorSystem,
    FractionalDescriptorSystem,
    Simulator,
)
from repro.engine.executor import Ensemble, ParallelExecutor
from repro.engine.reduction import (
    AUTO_MIN_STATES,
    OffsetDescriptorSystem,
    ReductionPlan,
    clear_model_cache,
    combine_reduce_options,
    equation_residual,
    reduced_model_for,
    resolve_reduce,
)
from repro.errors import SolverError

GRID = (5.0, 64)
#: 16 block moments certify the ladders on GRID (measured bounds
#: 5.9e-8 at n=600, tighter at n=80); the default 12-moment plan
#: does *not* certify there -- see TestAutoEligibility.
PLAN = ReductionPlan(n_moments=16)
RTOL = PLAN.rtol

def ladder(n: int, x0=None) -> DescriptorSystem:
    """Tridiagonal RC ladder driven at the first node."""
    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    A = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    B = np.zeros((n, 1))
    B[0, 0] = 1.0
    return DescriptorSystem(sp.identity(n, format="csr"), A, B, x0=x0)


def rel_dev(reduced, full, times) -> float:
    ref = full.states(times)
    return float(
        np.max(np.abs(reduced.states(times) - ref)) / np.max(np.abs(ref))
    )


@pytest.fixture(autouse=True)
def cold_cache():
    """Every test starts (and leaves) with an empty reduced-model cache."""
    clear_model_cache()
    yield
    clear_model_cache()


class TestResolveReduce:
    def test_disabled_spellings(self):
        for value in (None, False, "off", "none", "false", ""):
            assert resolve_reduce(value) == (None, False)

    def test_auto(self):
        plan, auto = resolve_reduce("auto")
        assert auto and plan == ReductionPlan()

    def test_integer_is_moment_count(self):
        plan, auto = resolve_reduce(9)
        assert not auto and plan.n_moments == 9

    def test_digit_string_is_moment_count(self):
        # CLI flags and netlist .options cards arrive as text
        plan, auto = resolve_reduce("8")
        assert not auto and plan.n_moments == 8

    def test_plan_passthrough(self):
        plan = ReductionPlan(n_moments=4, rtol=1e-4)
        assert resolve_reduce(plan) == (plan, False)

    @pytest.mark.parametrize("bad", ["fast", True, 3.5])
    def test_rejects_unknown(self, bad):
        with pytest.raises(SolverError, match="reduce must be"):
            resolve_reduce(bad)

    def test_plan_validation(self):
        with pytest.raises(SolverError, match="n_moments"):
            ReductionPlan(n_moments=0)
        with pytest.raises(SolverError, match="target_order"):
            ReductionPlan(target_order=0)
        with pytest.raises(SolverError, match="rtol"):
            ReductionPlan(rtol=0.0)


class TestCombineReduceOptions:
    def test_mor_order_implies_plan(self):
        plan = combine_reduce_options(None, 8)
        assert isinstance(plan, ReductionPlan) and plan.n_moments == 8
        plan = combine_reduce_options("auto", 8)
        assert plan.n_moments == 8

    def test_off_wins_over_mor_order(self):
        assert combine_reduce_options("off", 8) is None

    def test_bare_reduce_passes_through(self):
        assert combine_reduce_options("auto", None) == "auto"
        assert combine_reduce_options(None, None) is None


class TestOffsetDescriptorSystem:
    def test_offset_round_trip(self):
        g = np.array([1.0, -2.0])
        system = OffsetDescriptorSystem(
            np.eye(2), -np.eye(2), np.eye(2)[:, :1], offset=g
        )
        np.testing.assert_array_equal(system.shifted_input_offset(), g)

    def test_zero_offset_is_none(self):
        system = OffsetDescriptorSystem(
            np.eye(2), -np.eye(2), np.eye(2)[:, :1], offset=np.zeros(2)
        )
        assert system.shifted_input_offset() is None

    def test_wrong_length_raises(self):
        with pytest.raises(SolverError, match="offset must have length 2"):
            OffsetDescriptorSystem(
                np.eye(2), -np.eye(2), np.eye(2)[:, :1], offset=np.ones(3)
            )


class TestCertifiedAccuracy:
    """Reduced results stay within the certified tolerance of the full
    solve on every plan family and basis family."""

    times = np.linspace(0.1, 4.9, 17)

    @pytest.mark.parametrize(
        "basis,grid",
        [(None, GRID), ("chebyshev", (5.0, 24)), ("legendre", (5.0, 24))],
    )
    def test_run_within_rtol(self, basis, grid):
        system = ladder(80)
        full = Simulator(system, grid, basis=basis).run(np.sin)
        reduced = Simulator(system, grid, basis=basis, reduce=PLAN).run(np.sin)
        mor = reduced.info["mor"]
        assert mor["reduced"] and mor["certified"] and not mor["fallback"]
        assert mor["bound"] <= RTOL
        assert mor["order"] < mor["full_order"] == 80
        assert rel_dev(reduced, full, self.times) <= RTOL

    def test_sweep_within_rtol(self):
        system = ladder(80)
        amps = [0.5, 1.0, 2.0]
        full = Simulator(system, GRID).sweep(amps)
        reduced = Simulator(system, GRID, reduce=PLAN).sweep(amps)
        mor = reduced.info["mor"]
        assert mor["reduced"] and not mor["fallback"]
        for r, f in zip(reduced, full):
            assert rel_dev(r, f, self.times) <= RTOL

    def test_march_within_rtol(self):
        system = ladder(80)
        full = Simulator(system, (1.0, 32)).march(np.sin, 4.0)
        reduced = Simulator(system, (1.0, 32), reduce=PLAN).march(np.sin, 4.0)
        mor = reduced.info["mor"]
        assert mor["reduced"] and mor["bound"] <= RTOL
        assert rel_dev(reduced, full, np.linspace(0.1, 3.9, 13)) <= RTOL

    def test_nonzero_x0_within_rtol(self):
        x0 = np.zeros(80)
        x0[0], x0[40] = 1.0, -0.5
        system = ladder(80, x0=x0)
        full = Simulator(system, GRID).run(np.sin)
        reduced = Simulator(system, GRID, reduce=PLAN).run(np.sin)
        assert reduced.info["mor"]["reduced"]
        assert rel_dev(reduced, full, self.times) <= RTOL

    def test_run_residual_and_scale_recorded(self):
        reduced = Simulator(ladder(80), GRID, reduce=PLAN).run(np.sin)
        mor = reduced.info["mor"]
        assert mor["residual_scale"] >= 0.0
        assert mor["run_residual"] >= 0.0
        assert mor["reduce_seconds"] > 0.0


class TestRefusals:
    """Explicit plans raise where reduction is unsound; auto records
    its reason and runs the full model instead."""

    def fractional(self) -> FractionalDescriptorSystem:
        return FractionalDescriptorSystem(
            0.5, np.eye(3), -np.eye(3), np.ones((3, 1))
        )

    def test_fractional_explicit_raises(self):
        with pytest.raises(SolverError, match="alpha == 1"):
            Simulator(self.fractional(), GRID, reduce=PLAN)

    def test_fractional_auto_skips(self):
        result = Simulator(self.fractional(), GRID, reduce="auto").run(1.0)
        mor = result.info["mor"]
        assert not mor["reduced"] and mor["reason"] == "fractional-order"

    def test_auto_below_threshold_skips(self):
        result = Simulator(ladder(80), GRID, reduce="auto").run(np.sin)
        mor = result.info["mor"]
        assert not mor["reduced"]
        assert mor["reason"] == "below-auto-threshold"
        assert mor["threshold"] == AUTO_MIN_STATES

    def test_no_compression_skips(self):
        # a 4-state system cannot be compressed by a 16-moment basis
        result = Simulator(ladder(4), GRID, reduce=PLAN).run(np.sin)
        mor = result.info["mor"]
        assert not mor["reduced"] and mor["reason"] == "no-compression"


class TestFallbacks:
    """Certificate violations fall back to bit-identical full solves."""

    def test_bound_violation_falls_back(self):
        system = ladder(80)
        strict = ReductionPlan(n_moments=2, rtol=1e-14)
        full = Simulator(system, GRID).run(np.sin)
        reduced = Simulator(system, GRID, reduce=strict).run(np.sin)
        mor = reduced.info["mor"]
        assert not mor["reduced"]
        assert mor["reason"] == "bound-exceeded" and mor["fallback"]
        assert mor["bound"] > 1e-14
        np.testing.assert_array_equal(reduced.coefficients, full.coefficients)

    def test_drift_guard_falls_back(self):
        system = ladder(80)
        full = Simulator(system, GRID).run(np.sin)
        sim = Simulator(system, GRID, reduce=PLAN)
        # forge an impossible guard: any nonzero residual now exceeds it
        sim._mor_residual_scale = 0.0
        sim._mor_rtol = 1e-300
        result = sim.run(np.sin)
        mor = result.info["mor"]
        assert mor["reduced"] and mor["fallback"]
        np.testing.assert_array_equal(result.coefficients, full.coefficients)


class TestAutoEligibility:
    def test_auto_reduces_large_certifiable_system(self):
        # the default 12-moment plan certifies n=600 on this grid
        result = Simulator(ladder(600), (2.0, 32), reduce="auto").run(np.sin)
        mor = result.info["mor"]
        assert mor["reduced"] and mor["certified"]
        assert mor["order"] < 600

    def test_auto_honest_when_bound_exceeded(self):
        # same system, longer grid: the default plan cannot certify --
        # auto must run the full model and say why, not silently degrade
        result = Simulator(ladder(600), (10.0, 64), reduce="auto").run(np.sin)
        mor = result.info["mor"]
        assert not mor["reduced"]
        assert mor["reason"] == "bound-exceeded" and mor["fallback"]


class TestModelCache:
    def test_sessions_share_one_model(self):
        a = Simulator(ladder(80), GRID, reduce=PLAN)
        b = Simulator(ladder(80), GRID, reduce=PLAN)
        assert a.reduction is not None
        assert a.reduction is b.reduction

    def test_clear_forces_rebuild(self):
        a = Simulator(ladder(80), GRID, reduce=PLAN)
        clear_model_cache()
        b = Simulator(ladder(80), GRID, reduce=PLAN)
        assert a.reduction is not b.reduction


class TestEquationResidual:
    def test_projected_pencil_matches_lifted(self, rng):
        """The drift guard evaluated from reduced coordinates through
        ``(E V, A V)`` equals the lifted full-order evaluation."""
        n, r, m = 30, 6, 16
        E = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        A = -np.eye(n) - 0.1 * rng.standard_normal((n, n))
        V = np.linalg.qr(rng.standard_normal((n, r)))[0]
        Z = rng.standard_normal((r, m))
        R = rng.standard_normal((n, m))
        coeffs = rng.standard_normal(m)
        lifted = equation_residual(E, A, V @ Z, R, coeffs=coeffs)
        projected = equation_residual(E @ V, A @ V, Z, R, coeffs=coeffs)
        assert lifted == pytest.approx(projected, rel=1e-12)

    def test_exact_solution_scores_zero(self):
        model = reduced_model_for(ladder(80), PLAN, t_end=5.0, m=64)
        assert model.bound <= RTOL
        EV, AV = model.projected_pencil
        assert EV.shape == (80, model.order)
        assert np.shares_memory(model.projected_pencil[0], EV)


class TestExecutorReduce:
    """Reduced ensemble runs are bit-stable across executor backends."""

    def ensemble(self) -> Ensemble:
        return Ensemble([(ladder(80), a) for a in (0.5, 1.0, 2.0)])

    @pytest.mark.parametrize("backend", ["process"])
    def test_backends_bit_identical(self, backend):
        serial = ParallelExecutor("serial", jobs=2).run(
            self.ensemble(), GRID, reduce=PLAN
        )
        parallel = ParallelExecutor(backend, jobs=2).run(
            self.ensemble(), GRID, reduce=PLAN
        )
        assert serial.info["mor"]["reduced_units"] >= 1
        np.testing.assert_array_equal(
            serial.coefficients, parallel.coefficients
        )

    def test_reduced_matches_full_within_rtol(self):
        times = np.linspace(0.1, 4.9, 17)
        full = ParallelExecutor("serial").run(self.ensemble(), GRID)
        reduced = ParallelExecutor("serial").run(
            self.ensemble(), GRID, reduce=PLAN
        )
        for r, f in zip(reduced, full):
            assert rel_dev(r, f, times) <= RTOL
