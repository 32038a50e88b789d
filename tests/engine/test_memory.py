"""Engine integration tests for compressed fractional memory (``memory='soe'``).

The compression contract mirrors PR 6's MOR: certified at bind, gated
on the exact bound, recorded fallback to exact memory, and the
``memory='exact'`` default bit-identical to the pre-SOE engine.
"""

import numpy as np
import pytest

from repro.core import FractionalDescriptorSystem, Simulator, simulate_opm
from repro.engine.executor import Ensemble
from repro.errors import MemoryCompressionError, SolverError
from repro.fractional import SoePlan, simulate_grunwald_letnikov
from repro.fractional.soe import clear_fit_cache, fit_cache_stats


def fractional_system(n=6, seed=0, alpha=0.7):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) - 3.0 * np.eye(n)
    E = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    B = rng.standard_normal((n, 1))
    return FractionalDescriptorSystem(alpha, E, A, B)


def sine(t):
    return np.sin(3.0 * t)


class TestSessionKnob:
    def test_default_is_exact(self):
        sim = Simulator(fractional_system(), (0.5, 16))
        assert sim.memory_plan is None

    def test_soe_resolves_to_plan(self):
        sim = Simulator(fractional_system(), (0.5, 16), memory="soe")
        assert isinstance(sim.memory_plan, SoePlan)

    def test_rtol_override(self):
        sim = Simulator(fractional_system(), (0.5, 16), memory=SoePlan(rtol=1e-6))
        assert sim.memory_plan.rtol == 1e-6

    def test_bad_mode_rejected_at_bind(self):
        with pytest.raises(SolverError, match="memory"):
            Simulator(fractional_system(), (0.5, 16), memory="wavelet")

    def test_fingerprint_distinguishes_memory_modes(self):
        system = fractional_system()
        exact = Simulator(system, (0.5, 16))
        soe = Simulator(system, (0.5, 16), memory="soe")
        loose = Simulator(system, (0.5, 16), memory=SoePlan(rtol=1e-6))
        prints = {exact.fingerprint, soe.fingerprint, loose.fingerprint}
        assert len(prints) == 3


class TestTriangularMarch:
    def test_exact_mode_is_bit_identical(self):
        """The default path must not change at all with SOE available."""
        system = fractional_system()
        base = Simulator(system, (0.4, 24)).march(sine, 4.0)
        explicit = Simulator(system, (0.4, 24), memory="exact").march(sine, 4.0)
        np.testing.assert_array_equal(
            base.coefficients, explicit.coefficients
        )
        assert base.info["memory"] == {"mode": "exact"}

    def test_soe_matches_exact_within_tolerance(self):
        system = fractional_system()
        exact = Simulator(system, (0.4, 24)).march(sine, 8.0)
        soe_sim = Simulator(system, (0.4, 24), memory="soe")
        soe = soe_sim.march(sine, 8.0)
        mem = soe.info["memory"]
        assert mem["mode"] == "soe" and mem["certified"]
        assert mem["fallback"] is False
        scale = np.max(np.abs(exact.coefficients))
        err = np.max(np.abs(soe.coefficients - exact.coefficients)) / scale
        assert err < 1e-8

    def test_single_window_records_reason(self):
        sim = Simulator(fractional_system(), (0.5, 24), memory="soe")
        res = sim.march(sine, 0.5)
        assert res.info["memory"] == {
            "mode": "exact", "reason": "single-window",
        }

    def test_uncertified_fit_falls_back_and_records(self):
        """Regression for the certified-bound fallback path."""
        system = fractional_system()
        plan = SoePlan(rtol=1e-14, max_modes=4)  # cannot certify
        exact = Simulator(system, (0.4, 24)).march(sine, 4.0)
        fb = Simulator(system, (0.4, 24), memory=plan).march(sine, 4.0)
        mem = fb.info["memory"]
        assert mem["mode"] == "exact" and mem["fallback"] is True
        assert mem["certified"] is False and mem["bound"] > plan.rtol
        # the fallback really runs the exact tail: bit-identical results
        np.testing.assert_array_equal(fb.coefficients, exact.coefficients)

    def test_no_fallback_plan_raises(self):
        plan = SoePlan(rtol=1e-14, max_modes=4, fallback=False)
        sim = Simulator(fractional_system(), (0.4, 24), memory=plan)
        with pytest.raises(MemoryCompressionError, match="windowed-march"):
            sim.march(sine, 4.0)

    def test_first_order_march_ignores_memory(self):
        from repro.core import DescriptorSystem

        system = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])
        res = Simulator(system, (0.5, 16), memory="soe").march(sine, 2.0)
        assert "memory" not in res.info

    def test_warm_session_reuses_fit(self):
        clear_fit_cache()
        sim = Simulator(fractional_system(), (0.4, 24), memory="soe")
        sim.march(sine, 4.0)
        before = fit_cache_stats()["reuses"]
        sim.march(sine, 4.0)
        assert fit_cache_stats()["reuses"] > before


class TestGlStepper:
    def test_exact_mode_is_bit_identical(self):
        system = fractional_system(alpha=0.5)
        base = simulate_grunwald_letnikov(system, 1.0, 2.0, 400)
        explicit = simulate_grunwald_letnikov(
            system, 1.0, 2.0, 400, memory="exact"
        )
        np.testing.assert_array_equal(
            base.state_values, explicit.state_values
        )
        assert base.info["memory"] == {"mode": "exact"}

    def test_soe_matches_exact(self):
        system = fractional_system(alpha=0.5)
        exact = simulate_grunwald_letnikov(system, 1.0, 2.0, 2000)
        soe = simulate_grunwald_letnikov(
            system, 1.0, 2.0, 2000, memory="soe"
        )
        mem = soe.info["memory"]
        assert mem["mode"] == "soe" and mem["certified"]
        scale = np.max(np.abs(exact.state_values))
        err = np.max(np.abs(soe.state_values - exact.state_values)) / scale
        assert err < 1e-8

    def test_short_run_records_reason(self):
        res = simulate_grunwald_letnikov(
            fractional_system(), 1.0, 1.0, 50, memory="soe"
        )
        assert res.info["memory"]["reason"] == "short-horizon"

    def test_no_fallback_plan_raises(self):
        plan = SoePlan(rtol=1e-15, max_modes=4, fallback=False)
        with pytest.raises(MemoryCompressionError):
            simulate_grunwald_letnikov(
                fractional_system(), 1.0, 2.0, 2000, memory=plan
            )


class TestSpectralMarch:
    def test_soe_matches_exact_within_tolerance(self):
        system = fractional_system(alpha=0.6)
        exact = Simulator(system, (0.4, 20), basis="chebyshev").march(sine, 8.0)
        soe = Simulator(
            system, (0.4, 20), basis="chebyshev", memory="soe"
        ).march(sine, 8.0)
        mem = soe.info["memory"]
        assert mem["mode"] == "soe" and mem["certified"]
        scale = np.max(np.abs(exact.coefficients))
        err = np.max(np.abs(soe.coefficients - exact.coefficients)) / scale
        assert err < 1e-8

    def test_exact_mode_is_bit_identical(self):
        system = fractional_system(alpha=0.6)
        base = Simulator(system, (0.4, 20), basis="legendre").march(sine, 4.0)
        explicit = Simulator(
            system, (0.4, 20), basis="legendre", memory="exact"
        ).march(sine, 4.0)
        np.testing.assert_array_equal(base.coefficients, explicit.coefficients)

    def test_short_horizon_records_reason(self):
        sim = Simulator(
            fractional_system(), (0.5, 20), basis="chebyshev", memory="soe"
        )
        res = sim.march(sine, 1.0)  # 2 windows: nothing to compress
        assert res.info["memory"]["mode"] == "exact"
        assert "reason" in res.info["memory"]


class TestExecutorPlumbing:
    def test_sweep_workers_inherit_memory(self):
        system = fractional_system()
        sim = Simulator(system, (2.0, 64), memory="soe")
        scales = [0.5, 1.0, 2.0]
        inputs = [
            (lambda t, s=s: s * sine(t)) for s in scales
        ]
        ensemble = Ensemble([(system, u) for u in inputs])
        result = sim.run_ensemble(ensemble, jobs=2, parallel="serial")
        singles = [sim.run(u) for u in inputs]
        for k in range(len(scales)):
            np.testing.assert_allclose(
                result.coefficients[k], singles[k].coefficients, atol=1e-12
            )
