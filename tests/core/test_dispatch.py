"""Tests for the unified simulate() dispatcher and its route table."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import ROUTES, SIMULATION_METHODS, simulate
from repro.core.result import SampledResult, SimulationResult
from repro.errors import SolverError


class TestDispatch:
    def test_default_is_opm(self, scalar_ode):
        res = simulate(scalar_ode, 1.0, 5.0, 100)
        assert isinstance(res, SimulationResult)
        assert res.info["method"].startswith("opm")

    @pytest.mark.parametrize("method", ["backward-euler", "trapezoidal", "gear2", "expm"])
    def test_baseline_methods(self, scalar_ode, method):
        res = simulate(scalar_ode, 1.0, 5.0, 200, method=method)
        assert isinstance(res, SampledResult)
        assert abs(res.states([3.0])[0, 0] - (1 - np.exp(-3.0))) < 5e-3

    def test_adaptive_needs_no_steps(self, scalar_ode):
        res = simulate(scalar_ode, 1.0, 5.0, method="opm-adaptive", rtol=1e-4)
        assert res.info["method"] == "opm-adaptive"

    def test_fractional_methods(self, scalar_fde):
        from repro.fractional import fde_step_response

        t = np.linspace(0.3, 1.7, 5)
        exact = fde_step_response(0.5, 1.0, t)
        for method in ("opm", "grunwald-letnikov"):
            res = simulate(scalar_fde, 1.0, 2.0, 800, method=method)
            values = res.states(t)[0]
            np.testing.assert_allclose(values, exact, atol=5e-3)

    def test_fft_method(self, scalar_fde):
        res = simulate(
            scalar_fde, lambda t: np.sin(2 * np.pi * t / 4.0), 4.0, 64, method="fft"
        )
        assert res.info["method"] == "fft"

    def test_kron_method(self, scalar_ode):
        fast = simulate(scalar_ode, 1.0, 1.0, 16)
        ref = simulate(scalar_ode, 1.0, 1.0, 16, method="opm-kron")
        np.testing.assert_allclose(fast.coefficients, ref.coefficients, atol=1e-12)

    def test_unknown_method(self, scalar_ode):
        with pytest.raises(SolverError, match="unknown method"):
            simulate(scalar_ode, 1.0, 1.0, 8, method="rk45")

    def test_missing_steps(self, scalar_ode):
        with pytest.raises(SolverError, match="requires steps"):
            simulate(scalar_ode, 1.0, 1.0)

    def test_method_list_complete(self):
        assert set(SIMULATION_METHODS) == {
            "opm",
            "opm-windowed",
            "opm-adaptive",
            "opm-kron",
            "backward-euler",
            "trapezoidal",
            "gear2",
            "fft",
            "grunwald-letnikov",
            "expm",
            "gl",
            "oustaloup",
            "jacobi",
        }


class TestDispatchZooMethods:
    """The fractional method zoo through the one-shot dispatcher."""

    @pytest.mark.parametrize("method,steps,tol", [
        ("gl", 512, 5e-3), ("oustaloup", 512, 5e-2), ("jacobi", 24, 5e-3),
    ])
    def test_zoo_step_response(self, scalar_fde, method, steps, tol):
        from repro.fractional import fde_step_response

        t = np.linspace(0.3, 1.7, 5)
        res = simulate(scalar_fde, 1.0, 2.0, steps, method=method)
        np.testing.assert_allclose(
            res.states(t)[0], fde_step_response(0.5, 1.0, t), atol=tol
        )

    def test_zoo_method_label(self, scalar_fde):
        res = simulate(scalar_fde, 1.0, 1.0, 64, method="gl")
        assert res.info["method"] == "gl[BlockPulse]"

    def test_zoo_honours_basis_override(self, scalar_fde):
        res = simulate(scalar_fde, 1.0, 1.0, 64, method="gl", basis="walsh")
        assert res.info["method"].startswith("gl[Walsh")

    def test_zoo_typo_suggests(self, scalar_fde):
        with pytest.raises(SolverError, match="did you mean 'jacobi'"):
            simulate(scalar_fde, 1.0, 1.0, 16, method="jacobii")


class TestDispatchErrors:
    """Error paths of simulate(): bad methods, bad method/system pairs."""

    def test_unknown_method_suggests_closest(self, scalar_ode):
        with pytest.raises(SolverError, match="did you mean 'opm'"):
            simulate(scalar_ode, 1.0, 1.0, 8, method="opn")

    def test_unknown_method_without_suggestion(self, scalar_ode):
        with pytest.raises(SolverError, match="unknown method 'xyzzy'"):
            simulate(scalar_ode, 1.0, 1.0, 8, method="xyzzy")

    @pytest.mark.parametrize(
        "method", ["backward-euler", "trapezoidal", "gear2", "expm"]
    )
    def test_fractional_alpha_rejected_by_classical_schemes(self, scalar_fde, method):
        with pytest.raises(SolverError, match="first-order"):
            simulate(scalar_fde, 1.0, 1.0, 16, method=method)

    @pytest.mark.parametrize(
        "method",
        ["opm", "opm-kron", "backward-euler", "trapezoidal", "gear2", "fft",
         "grunwald-letnikov", "expm"],
    )
    def test_every_stepped_method_requires_steps(self, scalar_ode, method):
        with pytest.raises(SolverError, match="requires steps"):
            simulate(scalar_ode, 1.0, 1.0, method=method)

    def test_fractional_still_allowed_where_supported(self, scalar_fde):
        for method in ("opm", "fft", "grunwald-letnikov"):
            res = simulate(scalar_fde, 1.0, 1.0, 64, method=method)
            assert res is not None


class TestThirdOrder:
    def test_third_order_direct_vs_companion(self):
        """Integer order 3: direct multi-term OPM vs companion DAE."""
        from repro.core import MultiTermSystem

        # x''' + 2 x'' + 2 x' + x = u  (stable: roots -1, -0.5 +- j0.866)
        msys = MultiTermSystem(
            [(3.0, np.eye(1)), (2.0, 2 * np.eye(1)), (1.0, 2 * np.eye(1)), (0.0, np.eye(1))],
            [[1.0]],
        )
        direct = simulate(msys, 1.0, 15.0, 1500)
        companion = simulate(msys.to_first_order(), 1.0, 15.0, 1500)
        t = direct.grid.midpoints[::50]
        np.testing.assert_allclose(
            direct.states_smooth(t)[0],
            companion.outputs_smooth(t)[0],
            atol=2e-3,
        )
        # DC gain = 1
        assert direct.coefficients[0, -1] == pytest.approx(1.0, abs=2e-2)


class TestBasisArgument:
    def test_opm_with_spectral_basis(self, scalar_ode):
        res = simulate(scalar_ode, 1.0, 2.0, 24, basis="chebyshev")
        t = np.linspace(0.1, 1.9, 9)
        np.testing.assert_allclose(
            res.states(t)[0], 1.0 - np.exp(-t), atol=1e-9
        )
        assert res.info["method"] == "opm-spectral[Chebyshev]"

    def test_windowed_with_spectral_basis(self, scalar_ode):
        res = simulate(
            scalar_ode, 1.0, 4.0, 64, method="opm-windowed", windows=4,
            basis="legendre",
        )
        assert res.n_windows == 4
        t = np.linspace(0.2, 3.8, 9)
        np.testing.assert_allclose(
            res.states_smooth(t)[0], 1.0 - np.exp(-t), atol=1e-8
        )

    def test_basis_typo_suggests(self, scalar_ode):
        from repro.errors import BasisError

        with pytest.raises(BasisError, match="did you mean 'legendre'"):
            simulate(scalar_ode, 1.0, 1.0, 16, basis="legendr")

    def test_basis_rejected_for_baselines(self, scalar_ode):
        with pytest.raises(SolverError, match="does not take a basis"):
            simulate(scalar_ode, 1.0, 1.0, 100, method="trapezoidal", basis="legendre")

    def test_basis_instance_accepted(self, scalar_ode):
        from repro.basis import LegendreBasis

        res = simulate(scalar_ode, 1.0, 2.0, 16, basis=LegendreBasis(2.0, 16))
        assert res.basis.name == "Legendre"

    def test_default_is_block_pulse(self, scalar_ode):
        res = simulate(scalar_ode, 1.0, 1.0, 64)
        assert res.basis.name == "BlockPulse"


class TestRouteTable:
    """:data:`ROUTES` is the one list of methods and what they honour."""

    def test_readme_method_table_is_the_route_table(self):
        readme = (Path(__file__).resolve().parents[2] / "README.md").read_text()
        section = readme.split("## Simulation methods", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` +\| (.+?) \|$", section, re.MULTILINE)
        assert rows == [(route.name, route.summary) for route in ROUTES.values()]

    def test_method_names_are_the_table(self):
        assert SIMULATION_METHODS == tuple(ROUTES)
        for route in ROUTES.values():
            assert route.summary

    def test_every_refusal_names_the_route_and_the_option(self):
        options = ("basis", "backend", "reduce", "memory", "windows",
                   "events", "sweep", "ensemble")
        for route in ROUTES.values():
            for option in options:
                if option not in route.honours:
                    message = route.refusal(option)
                    assert repr(route.name) in message and option in message

    def test_one_shot_runners_import(self):
        for route in ROUTES.values():
            assert (route.runner is None) or callable(route._runner())
