"""Unit tests for certified sum-of-exponentials memory compression."""

import numpy as np
import pytest

from repro.circuits.cards import AnalysisSpec
from repro.engine.netlist_session import resolve_deck_options
from repro.errors import MemoryCompressionError, SolverError
from repro.fractional.definitions import (
    cached_gl_weights,
    clear_gl_weight_cache,
    gl_weight_cache_stats,
    gl_weights,
)
from repro.fractional.history import HistoryTail
from repro.fractional.soe import (
    DEFAULT_MEMORY_RTOL,
    SoeFit,
    SoePlan,
    SoeTail,
    clear_fit_cache,
    fit_cache_stats,
    fit_continuous_kernel,
    fit_discrete_kernel,
    require_certified,
    resolve_memory,
)


def gl_kernel(alpha: float, n: int) -> np.ndarray:
    """Negated GL binomial tail: the memory coefficients of the scheme."""
    return -gl_weights(alpha, n)


class TestResolveMemory:
    def test_exact_spellings(self):
        for memory in (None, "exact", "EXACT", "off", "none", "false", ""):
            assert resolve_memory(memory) is None

    def test_soe_default_plan(self):
        plan = resolve_memory("soe")
        assert isinstance(plan, SoePlan)
        assert plan.rtol == DEFAULT_MEMORY_RTOL

    def test_rtol_override_rebuilds_plan(self):
        # a deck's memory_rtol resolves into the plan; the plan's other
        # settings survive
        plan = resolve_deck_options(AnalysisSpec(), memory="soe", memory_rtol=1e-6)
        assert plan.memory == SoePlan(rtol=1e-6)
        custom = SoePlan(rtol=1e-4, max_modes=50)
        again = resolve_deck_options(AnalysisSpec(), memory=custom, memory_rtol=1e-5)
        assert again.memory == SoePlan(rtol=1e-5, max_modes=50)

    def test_plan_passthrough(self):
        plan = SoePlan(rtol=1e-7)
        assert resolve_memory(plan) is plan

    def test_rtol_with_exact_rejected(self):
        with pytest.raises(SolverError, match="memory_rtol"):
            resolve_deck_options(AnalysisSpec(), memory="exact", memory_rtol=1e-8)

    def test_unknown_mode_rejected(self):
        with pytest.raises(SolverError, match="memory"):
            resolve_memory("fourier")
        with pytest.raises(SolverError):
            resolve_memory(3.5)

    def test_plan_validation(self):
        with pytest.raises(SolverError):
            SoePlan(rtol=2.0)
        with pytest.raises(SolverError):
            SoePlan(max_modes=1)
        with pytest.raises(SolverError):
            SoePlan(exact_lags=0)

    def test_fingerprints_distinguish_plans(self):
        assert SoePlan().fingerprint() != SoePlan(rtol=1e-6).fingerprint()
        assert SoePlan().fingerprint() != SoePlan(fallback=False).fingerprint()


class TestDiscreteFit:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_gl_kernel_certifies(self, alpha):
        coeffs = gl_kernel(alpha, 4000)
        fit = fit_discrete_kernel(coeffs, 65, 3999)
        assert fit.certified
        assert fit.bound <= DEFAULT_MEMORY_RTOL
        # the certificate is exact: recompute it independently
        lags = np.arange(65, 4000)
        err = np.abs(fit.evaluate(lags) - coeffs[65:4000])
        bound = err.sum() / np.abs(coeffs[65:4000]).sum()
        assert bound == pytest.approx(fit.bound, rel=1e-9)

    def test_zero_kernel_short_circuits(self):
        fit = fit_discrete_kernel(np.zeros(100), 5, 99)
        assert fit.certified and fit.bound == 0.0
        np.testing.assert_array_equal(fit.evaluate(np.arange(5, 100)), 0.0)

    def test_uncertifiable_fit_reports_honestly(self):
        # a tiny dictionary cannot reach 1e-10 on a long power-law tail
        plan = SoePlan(max_modes=4)
        fit = fit_discrete_kernel(gl_kernel(0.5, 3000), 10, 2999, plan)
        assert not fit.certified
        assert fit.bound > plan.rtol

    def test_validates_lag_range(self):
        coeffs = gl_kernel(0.5, 50)
        with pytest.raises(SolverError):
            fit_discrete_kernel(coeffs, 0, 10)
        with pytest.raises(SolverError, match="full horizon"):
            fit_discrete_kernel(coeffs, 5, 200)

    def test_fit_cache_reuses(self):
        clear_fit_cache()
        coeffs = gl_kernel(0.5, 500)
        fit_discrete_kernel(coeffs, 10, 499)
        assert fit_cache_stats() == {"entries": 1, "reuses": 0}
        again = fit_discrete_kernel(coeffs, 10, 499)
        assert fit_cache_stats()["reuses"] == 1
        assert again is fit_discrete_kernel(coeffs, 10, 499)
        # a different plan is a different fit
        fit_discrete_kernel(coeffs, 10, 499, SoePlan(rtol=1e-6))
        assert fit_cache_stats()["entries"] == 2


class TestContinuousFit:
    @pytest.mark.parametrize("alpha", [0.4, 0.9])
    def test_riemann_liouville_kernel_certifies(self, alpha):
        import math

        window = 0.05
        fit = fit_continuous_kernel(alpha, 40, window)
        assert fit.certified and fit.kind == "continuous"
        t = np.linspace(window, 40 * window, 500)
        exact = t ** (alpha - 1.0) / math.gamma(alpha)
        rel = np.max(np.abs(fit.evaluate(t) - exact) / np.abs(exact))
        assert rel < 1e-7

    def test_window_rescaling_reuses_dimensionless_fit(self):
        clear_fit_cache()
        a = fit_continuous_kernel(0.5, 30, 0.1)
        b = fit_continuous_kernel(0.5, 30, 0.2)
        assert fit_cache_stats()["reuses"] == 1
        # same dimensionless core, different scaling
        np.testing.assert_allclose(a.rates * 0.1, b.rates * 0.2)

    def test_validates_arguments(self):
        with pytest.raises(SolverError):
            fit_continuous_kernel(0.5, 1, 0.1)
        with pytest.raises(SolverError):
            fit_continuous_kernel(0.5, 10, 0.0)


class TestRequireCertified:
    def _bad_fit(self) -> SoeFit:
        return SoeFit(
            weights=np.ones(1), rates=np.array([0.5]), bound=1e-2,
            rtol=1e-10, lag_start=1, lag_stop=10,
        )

    def test_certified_passes(self):
        fit = fit_discrete_kernel(gl_kernel(0.5, 500), 10, 499)
        assert require_certified(fit, SoePlan(), "test") is True

    def test_fallback_records(self):
        assert require_certified(self._bad_fit(), SoePlan(), "test") is False

    def test_no_fallback_raises(self):
        with pytest.raises(MemoryCompressionError, match="certified"):
            require_certified(
                self._bad_fit(), SoePlan(fallback=False), "test"
            )


class TestSoeTail:
    def test_matches_exact_tail(self, rng):
        coeffs = gl_kernel(0.7, 1000)
        m, n_windows = 25, 12
        fit = fit_discrete_kernel(coeffs, m + 1, n_windows * m - 1)
        assert fit.certified
        exact = HistoryTail(coeffs, block_columns=m)
        soe = SoeTail(coeffs, fit)
        for _ in range(n_windows - 1):
            block = rng.standard_normal((4, m))
            exact.append(block)
            soe.append(block)
            # absolute error <= bound * sum|w| * max|x| <= ~1e-9 here
            err = np.max(np.abs(soe.tail(m) - exact.tail(m)))
            assert err < 1e-8

    def test_single_block_is_exact(self, rng):
        # with only one appended block there is no compressed region yet
        coeffs = gl_kernel(0.5, 200)
        fit = fit_discrete_kernel(coeffs, 11, 199)
        block = rng.standard_normal((3, 10))
        soe = SoeTail(coeffs, fit)
        exact = HistoryTail(coeffs)
        assert soe.tail(10) is None and exact.tail(10) is None
        soe.append(block)
        exact.append(block)
        np.testing.assert_allclose(soe.tail(10), exact.tail(10), rtol=1e-13)

    def test_rejects_uncovered_lags(self, rng):
        coeffs = gl_kernel(0.5, 2000)
        fit = fit_discrete_kernel(coeffs, 11, 39)  # too short a range
        soe = SoeTail(coeffs, fit)
        for _ in range(4):
            soe.append(rng.standard_normal((2, 10)))
        with pytest.raises(SolverError, match="cannot serve"):
            soe.tail(10)

    def test_rejects_continuous_fit(self):
        fit = fit_continuous_kernel(0.5, 10, 0.1)
        with pytest.raises(SolverError, match="discrete"):
            SoeTail(gl_kernel(0.5, 100), fit)


class TestGlWeightCache:
    def test_prefix_reuse(self):
        clear_gl_weight_cache()
        w = cached_gl_weights(0.5, 200)
        assert gl_weight_cache_stats() == {"entries": 1, "reuses": 0}
        np.testing.assert_array_equal(w, gl_weights(0.5, 200))
        shorter = cached_gl_weights(0.5, 50)
        assert gl_weight_cache_stats()["reuses"] == 1
        np.testing.assert_array_equal(shorter, gl_weights(0.5, 50))

    def test_distinct_alpha_distinct_entry(self):
        clear_gl_weight_cache()
        cached_gl_weights(0.5, 100)
        cached_gl_weights(0.7, 100)
        assert gl_weight_cache_stats()["entries"] == 2

    def test_cached_arrays_are_readonly(self):
        clear_gl_weight_cache()
        w = cached_gl_weights(0.5, 64)
        with pytest.raises(ValueError):
            w[0] = 2.0
