"""Tests for the pluggable fractional method zoo.

Covers the registry / naming layer, the operator constructions (with
integer-order exactness checks), the Simulator front door for every
registered method, the guards that fence zoo sessions off from
unsupported engine features, and the batched-sweep consistency the
cached-pencil route promises.
"""

import numpy as np
import pytest

from repro.core import FractionalDescriptorSystem
from repro.engine import Simulator
from repro.engine.bundle import OperatorBundle, resolve_basis
from repro.errors import SolverError
from repro.fractional import (
    FRACTIONAL_METHODS,
    FractionalMethod,
    GrunwaldLetnikovMethod,
    JacobiMethod,
    OustaloupMethod,
    fde_step_response,
    method_names,
    resolve_method,
    validate_method_name,
)
from repro.fractional.methods import (
    gl_integration_weights,
    normalise_method_name,
    unknown_method_message,
)


def make_bundle(basis="block-pulse", m=64, t_end=1.0):
    from repro.basis.grid import TimeGrid

    return OperatorBundle(resolve_basis(basis, TimeGrid.uniform(t_end, m)))


class TestRegistry:
    def test_registered_names(self):
        assert set(FRACTIONAL_METHODS) == {"gl", "oustaloup", "jacobi"}

    def test_method_names_puts_native_first(self):
        names = method_names()
        assert names[0] == "opm"
        assert set(names[1:]) == set(FRACTIONAL_METHODS)

    def test_method_names_zoo_only(self):
        assert "opm" not in method_names(include_native=False)

    def test_registry_instances_are_methods(self):
        for method in FRACTIONAL_METHODS.values():
            assert isinstance(method, FractionalMethod)
            assert method.name and method.summary

    def test_fingerprints_distinguish_parameterisations(self):
        assert OustaloupMethod(8).fingerprint() != OustaloupMethod(12).fingerprint()
        assert JacobiMethod(0.5, 0.5).fingerprint() != JacobiMethod().fingerprint()
        assert GrunwaldLetnikovMethod().fingerprint() == ("gl",)

    def test_repr_shows_params(self):
        assert "8" in repr(OustaloupMethod(8))


class TestNameValidation:
    def test_normalise(self):
        assert normalise_method_name("  GL ") == "gl"
        assert normalise_method_name("Oustaloup") == "oustaloup"
        assert normalise_method_name("opm_windowed") == "opm-windowed"

    def test_validate_accepts_case_variants(self):
        assert validate_method_name("GL") == "gl"
        assert validate_method_name("opm") == "opm"

    def test_validate_unknown_lists_everything(self):
        with pytest.raises(SolverError, match="choose from"):
            validate_method_name("rk45")

    def test_validate_suggests_closest(self):
        with pytest.raises(SolverError, match="did you mean 'oustaloup'"):
            validate_method_name("oustalop")

    def test_validate_custom_error_type(self):
        with pytest.raises(ValueError, match="unknown method"):
            validate_method_name("nope", error=ValueError)

    def test_unknown_message_context(self):
        msg = unknown_method_message("xyz", ("opm", "gl"), context="solver")
        assert "unknown solver 'xyz'" in msg

    def test_resolve_native_is_none(self):
        assert resolve_method(None) is None
        assert resolve_method("opm") is None

    def test_resolve_name_and_instance(self):
        assert resolve_method("gl") is FRACTIONAL_METHODS["gl"]
        custom = OustaloupMethod(6)
        assert resolve_method(custom) is custom

    def test_resolve_unknown(self):
        with pytest.raises(SolverError, match="unknown method"):
            resolve_method("chebyshev")


class TestGlWeights:
    def test_alpha_one_is_plain_summation(self):
        np.testing.assert_allclose(gl_integration_weights(1.0, 6), np.ones(6))

    def test_recurrence(self):
        alpha = 0.5
        w = gl_integration_weights(alpha, 10)
        for k in range(1, 10):
            assert w[k] == pytest.approx(w[k - 1] * (alpha + k - 1) / k)

    def test_needs_positive_m(self):
        with pytest.raises(SolverError, match="at least one"):
            gl_integration_weights(0.5, 0)


class TestOperators:
    def test_gl_operator_is_upper_toeplitz(self):
        bundle = make_bundle(m=16)
        F = GrunwaldLetnikovMethod().integration_operator(bundle, 0.5)
        assert np.allclose(F, np.triu(F))
        np.testing.assert_allclose(np.diag(F, 1), np.full(15, F[0, 1]))

    def test_gl_alpha_one_is_rectangle_rule(self):
        bundle = make_bundle(m=16)
        F = GrunwaldLetnikovMethod().integration_operator(bundle, 1.0)
        h = 1.0 / 16
        expected = h * np.triu(np.ones((16, 16)))
        np.testing.assert_allclose(F, expected)

    def test_oustaloup_integer_order_is_exact(self):
        bundle = make_bundle(m=16)
        F = OustaloupMethod().integration_operator(bundle, 1.0)
        np.testing.assert_allclose(F, bundle.integration_matrix())

    def test_oustaloup_splits_integer_part(self):
        bundle = make_bundle(m=32)
        method = OustaloupMethod()
        F_half = method.integration_operator(bundle, 0.5)
        F_three_half = method.integration_operator(bundle, 1.5)
        M = np.asarray(bundle.integration_matrix(), dtype=float)
        np.testing.assert_allclose(F_three_half, F_half @ M, atol=1e-12)

    def test_oustaloup_band_validation(self):
        with pytest.raises(SolverError, match="0 < w_b < w_h"):
            OustaloupMethod(band=(10.0, 1.0))
        with pytest.raises(SolverError, match="at least one section"):
            OustaloupMethod(sections=0)

    def test_jacobi_rejects_nonspectral_bundle(self):
        bundle = make_bundle("block-pulse", m=8)
        with pytest.raises(SolverError, match="spectral"):
            JacobiMethod().integration_operator(bundle, 0.5)

    def test_jacobi_param_validation(self):
        with pytest.raises(SolverError, match="exceed -1"):
            JacobiMethod(jacobi_a=-1.5)

    def test_jacobi_alpha_validation(self):
        bundle = make_bundle("legendre", m=8)
        with pytest.raises(SolverError, match="alpha must be positive"):
            JacobiMethod().integration_operator(bundle, 0.0)

    def test_jacobi_integer_order_integrates_polynomials(self):
        # I^1 of the monomials is exact for a degree-(m-1) nodal map
        bundle = make_bundle("legendre", m=10)
        F = JacobiMethod().integration_operator(bundle, 1.0)
        basis = bundle.basis
        t = np.linspace(0.05, 0.95, 17)
        for degree in range(5):
            coeffs = basis.project(lambda s, d=degree: s**d)
            integ = np.atleast_2d(coeffs) @ F
            exact = t ** (degree + 1) / (degree + 1)
            approx = (integ @ basis.evaluate(t))[0]
            np.testing.assert_allclose(approx, exact, atol=1e-8)

    def test_toeplitz_methods_require_uniform_grid(self):
        from repro.basis.grid import TimeGrid

        edges = np.r_[0.0, np.cumsum(np.linspace(0.5, 1.5, 8))]
        grid = TimeGrid(edges / edges[-1])
        bundle = OperatorBundle(resolve_basis("block-pulse", grid))
        with pytest.raises(SolverError, match="uniform grid"):
            GrunwaldLetnikovMethod().integration_operator(bundle, 0.5)


class TestSimulatorFrontDoor:
    @pytest.mark.parametrize(
        "method,resolution,tol",
        [("gl", 512, 5e-3), ("oustaloup", 512, 5e-2), ("jacobi", 24, 5e-3)],
    )
    def test_step_response_matches_analytic(self, scalar_fde, method, resolution, tol):
        sim = Simulator(scalar_fde, (2.0, resolution), method=method)
        res = sim.run(1.0)
        t = np.linspace(0.3, 1.7, 7)
        exact = fde_step_response(0.5, 1.0, t)
        np.testing.assert_allclose(res.states(t)[0], exact, atol=tol)

    def test_info_reports_method_label(self, scalar_fde):
        res = Simulator(scalar_fde, (1.0, 64), method="gl").run(1.0)
        assert res.info["method"] == "gl[BlockPulse]"

    def test_jacobi_binds_legendre_by_default(self, scalar_fde):
        sim = Simulator(scalar_fde, (1.0, 16), method="jacobi")
        res = sim.run(1.0)
        assert res.info["method"] == "jacobi[Legendre]"

    def test_method_instance_accepted(self, scalar_fde):
        sim = Simulator(scalar_fde, (1.0, 128), method=OustaloupMethod(8))
        assert sim.method.sections == 8
        sim.run(1.0)

    def test_triangular_sweep_reuses_one_factorisation(self, scalar_fde):
        sim = Simulator(scalar_fde, (1.0, 96), method="gl")
        sim.run(1.0)
        res = sim.run(0.5)
        assert res.info["factorisations"] == 1
        assert res.info["warm"] is True
        # GL's operator is upper-triangular Toeplitz: no Schur rotation
        assert res.info["schur"] is False

    def test_jacobi_sweeps_in_schur_coordinates(self, scalar_fde):
        sim = Simulator(scalar_fde, (1.0, 16), method="jacobi")
        res = sim.run(1.0)
        assert res.info["schur"] is True
        assert 1 <= res.info["factorisations"] <= 16
        sim.sweep([0.5, 2.0])
        assert sim.factorisations == res.info["factorisations"]

    def test_sweep_matches_individual_runs(self, scalar_fde):
        sim = Simulator(scalar_fde, (1.0, 64), method="gl")
        batch = sim.sweep([0.25, 1.0, lambda t: np.sin(t)])
        singles = [sim.run(u) for u in [0.25, 1.0, lambda t: np.sin(t)]]
        for got, want in zip(batch, singles):
            np.testing.assert_allclose(
                got.coefficients, want.coefficients, rtol=1e-13, atol=1e-15
            )

    def test_fingerprint_carries_method(self, scalar_fde):
        native = Simulator(scalar_fde, (1.0, 32)).fingerprint
        gl = Simulator(scalar_fde, (1.0, 32), method="gl").fingerprint
        oust = Simulator(scalar_fde, (1.0, 32), method=OustaloupMethod(7)).fingerprint
        assert ("method", "native") in native
        assert ("method", "gl") in gl
        assert ("method", "oustaloup", 7, None) in oust
        assert len({native, gl, oust}) == 3

    def test_typo_raises_with_suggestion(self, scalar_fde):
        with pytest.raises(SolverError, match="did you mean 'gl'"):
            Simulator(scalar_fde, (1.0, 32), method="g l")
        with pytest.raises(SolverError, match="choose from"):
            Simulator(scalar_fde, (1.0, 32), method="rk45")

    def test_nonzero_initial_state(self):
        system = FractionalDescriptorSystem(
            0.5, [[1.0]], [[-1.0]], [[1.0]], x0=[2.0]
        )
        res = Simulator(system, (1.0, 256), method="gl").run(0.0)
        from repro.fractional import fde_relaxation

        t = np.linspace(0.2, 0.9, 5)
        np.testing.assert_allclose(
            res.states(t)[0], 2.0 * fde_relaxation(0.5, 1.0, t), atol=5e-3
        )


class TestGuards:
    def test_reduce_rejected(self, scalar_fde):
        with pytest.raises(SolverError, match="reduce="):
            Simulator(scalar_fde, (1.0, 32), method="gl", reduce="auto")

    def test_memory_compression_rejected(self, scalar_fde):
        with pytest.raises(SolverError, match="memory compression"):
            Simulator(scalar_fde, (1.0, 32), method="gl", memory="soe")

    def test_march_rejected(self, scalar_fde):
        sim = Simulator(scalar_fde, (1.0, 32), method="gl")
        with pytest.raises(SolverError, match="march"):
            sim.march(1.0, 4.0)

    def test_ensemble_rejected(self, scalar_fde):
        sim = Simulator(scalar_fde, (1.0, 32), method="gl")
        with pytest.raises(SolverError, match="ensemble"):
            sim.run_ensemble([1.0, 0.5])

    def test_wrong_basis_for_toeplitz_method(self, scalar_fde):
        with pytest.raises(SolverError, match="block-pulse"):
            Simulator(scalar_fde, (1.0, 16), basis="legendre", method="gl").run(1.0)

    def test_wrong_basis_for_jacobi(self, scalar_fde):
        with pytest.raises(SolverError, match="spectral"):
            Simulator(
                scalar_fde, (1.0, 16), basis="block-pulse", method="jacobi"
            ).run(1.0)

    def test_walsh_route_works_for_gl(self, scalar_fde):
        res = Simulator(scalar_fde, (1.0, 64), basis="walsh", method="gl").run(1.0)
        assert res.info["method"].startswith("gl[Walsh")
