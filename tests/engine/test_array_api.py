"""Contract tests for the array-API backend seam (engine.array_api).

The numpy namespace implements the same array-API standard the CuPy
and torch device paths target, so these tests drive the *device* code
path (``prepare_rhs`` staging, in-namespace sweeps, ``to_host``
transfer, host-only gates) on CI machines without a GPU.  Accelerator
libraries are optional: when absent, requesting them must fail with
the engine's typed error, never an ImportError.
"""

import importlib.util

import numpy as np
import pytest

from repro.baselines.transient import TRANSIENT_METHODS, simulate_transient
from repro.basis import BlockPulseBasis, TimeGrid
from repro.core import (
    DescriptorSystem,
    FractionalDescriptorSystem,
    MultiTermSystem,
    Simulator,
    simulate_opm_integral,
)
from repro.engine.array_api import (
    ARRAY_BACKEND_ENV,
    KNOWN_ARRAY_BACKENDS,
    env_backend,
    resolve_namespace,
    to_host,
)
from repro.engine.backends import (
    ArrayApiBackend,
    DenseBackend,
    SparseBackend,
    select_backend,
)
from repro.errors import SolverError
from repro.fractional.grunwald import simulate_grunwald_letnikov

GRID = (5.0, 48)


def rc_system(n: int = 12) -> DescriptorSystem:
    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    A = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    B = np.zeros((n, 1))
    B[0, 0] = 1.0
    return DescriptorSystem(np.eye(n), A, B)


class TestResolveNamespace:
    def test_numpy_always_available(self):
        module, name = resolve_namespace("numpy")
        assert module is np and name == "numpy"

    def test_prefix_and_case_normalised(self):
        assert resolve_namespace("array-api:numpy")[1] == "numpy"
        assert resolve_namespace(" NumPy ")[1] == "numpy"

    def test_unknown_backend_raises(self):
        with pytest.raises(SolverError, match="unknown array backend"):
            resolve_namespace("jax")

    @pytest.mark.parametrize("name", ["cupy", "torch"])
    def test_absent_accelerator_is_typed_error(self, name):
        if importlib.util.find_spec(name) is not None:
            pytest.skip(f"{name} is installed here")
        with pytest.raises(SolverError, match="not installed"):
            resolve_namespace(name)


class TestEnvBackend:
    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(ARRAY_BACKEND_ENV, raising=False)
        assert env_backend() is None

    @pytest.mark.parametrize("value", ["", "off", "none", "0", "false", " OFF "])
    def test_disable_spellings(self, monkeypatch, value):
        monkeypatch.setenv(ARRAY_BACKEND_ENV, value)
        assert env_backend() is None

    def test_name_normalised(self, monkeypatch):
        monkeypatch.setenv(ARRAY_BACKEND_ENV, " NumPy ")
        assert env_backend() == "numpy"


class TestToHost:
    def test_ndarray_passes_through_without_copy(self):
        x = np.arange(4.0)
        assert to_host(x) is x

    def test_cupy_style_get(self):
        class FakeDevice:
            def get(self):
                return np.ones(3)

        np.testing.assert_array_equal(to_host(FakeDevice()), np.ones(3))

    def test_torch_style_detach_chain(self):
        class FakeTensor:
            def detach(self):
                return self

            def cpu(self):
                return self

            def numpy(self):
                return np.full(2, 7.0)

        np.testing.assert_array_equal(to_host(FakeTensor()), [7.0, 7.0])


class TestArrayApiBackend:
    def test_solve_matches_dense_lu(self, rng):
        n = 10
        E = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        A = -np.eye(n) - 0.1 * rng.standard_normal((n, n))
        rhs = rng.standard_normal((n, 5))
        api = ArrayApiBackend(E, A, namespace="numpy")
        lu = DenseBackend(E, A)
        x_api = api.solve(api.factorize(2.0), api.prepare_rhs(rhs))
        x_lu = lu.solve(lu.factorize(2.0), rhs)
        np.testing.assert_allclose(api.to_host(x_api), x_lu, atol=1e-10)

    def test_singular_pencil_raises(self):
        backend = ArrayApiBackend(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(SolverError, match="singular"):
            backend.factorize(1.0)

    def test_nonfinite_inverse_is_singular(self):
        # near-singular pencils may "invert" to inf/nan on devices
        backend = ArrayApiBackend(np.eye(2), np.eye(2))
        assert not backend.all_finite(np.array([1.0, np.inf]))
        with pytest.raises(SolverError, match="singular"):
            backend.factorize(1.0)

    def test_select_backend_forced_modes(self):
        for mode in ("numpy", "array-api:numpy"):
            backend = select_backend(np.eye(4), -np.eye(4), mode=mode)
            assert isinstance(backend, ArrayApiBackend)
            assert backend.name == "array-api[numpy]"
            assert backend.is_host  # numpy namespace stays host-side

    def test_env_opt_in_under_auto(self, monkeypatch):
        monkeypatch.setenv(ARRAY_BACKEND_ENV, "numpy")
        backend = select_backend(np.eye(4), -np.eye(4), mode="auto")
        assert isinstance(backend, ArrayApiBackend)
        # host-only callers opt out regardless of the environment
        backend = select_backend(
            np.eye(4), -np.eye(4), mode="auto", allow_env=False
        )
        assert isinstance(backend, DenseBackend)
        # explicit classic modes win over the env opt-in
        backend = select_backend(np.eye(4), -np.eye(4), mode="sparse")
        assert isinstance(backend, SparseBackend)


class TestSessionRoutes:
    """End-to-end solves through the array-API (device) code path."""

    def test_run_matches_dense_backend(self):
        system = rc_system()
        host = Simulator(system, GRID, backend="dense").run(np.sin)
        api = Simulator(system, GRID, backend="numpy").run(np.sin)
        np.testing.assert_allclose(
            api.coefficients, host.coefficients, atol=1e-10
        )

    def test_sweep_matches_dense_backend(self):
        system = rc_system()
        host = Simulator(system, GRID, backend="dense").sweep([0.5, 2.0])
        api = Simulator(system, GRID, backend="numpy").sweep([0.5, 2.0])
        np.testing.assert_allclose(
            api.coefficients, host.coefficients, atol=1e-10
        )

    def test_forced_device_path_matches_host(self, monkeypatch):
        """With ``is_host`` forced off, the session must stage the RHS
        through ``prepare_rhs`` and transfer results back -- under the
        numpy namespace both paths perform identical arithmetic."""
        original = ArrayApiBackend.__init__

        def device_init(self, E, A, *, namespace="numpy"):
            original(self, E, A, namespace=namespace)
            self.is_host = False

        system = rc_system()
        host = Simulator(system, GRID, backend="numpy").run(np.sin)
        monkeypatch.setattr(ArrayApiBackend, "__init__", device_init)
        device = Simulator(system, GRID, backend="numpy").run(np.sin)
        np.testing.assert_array_equal(device.coefficients, host.coefficients)

    def test_march_is_host_only(self, monkeypatch):
        original = ArrayApiBackend.__init__

        def device_init(self, E, A, *, namespace="numpy"):
            original(self, E, A, namespace=namespace)
            self.is_host = False

        monkeypatch.setattr(ArrayApiBackend, "__init__", device_init)
        sim = Simulator(rc_system(), (1.0, 16), backend="numpy")
        with pytest.raises(SolverError, match="host-only"):
            sim.march(np.sin, 2.0)

    @pytest.mark.parametrize("mode", KNOWN_ARRAY_BACKENDS)
    def test_spectral_plans_refuse_array_backends(self, mode):
        with pytest.raises(SolverError, match="host-only"):
            Simulator(rc_system(), (5.0, 16), basis="chebyshev", backend=mode)

    def test_multiterm_plans_refuse_array_backends(self):
        system = MultiTermSystem(
            [(1.0, np.eye(2)), (0.5, 0.1 * np.eye(2)), (0.0, np.eye(2))],
            np.ones((2, 1)),
        )
        with pytest.raises(SolverError, match="host-only"):
            Simulator(system, (1.0, 16), backend="numpy")

    def test_env_opt_in_never_hijacks_spectral(self, monkeypatch):
        """REPRO_ARRAY_BACKEND steers only the dense first-order route;
        spectral sessions must keep working under the opt-in."""
        monkeypatch.setenv(ARRAY_BACKEND_ENV, "numpy")
        res = Simulator(rc_system(), (5.0, 16), basis="chebyshev").run(1.0)
        assert np.all(np.isfinite(res.coefficients))


class TestReferenceBaselinesStayHost:
    """The reference steppers and the integral-form sweep are host-only
    loops: the ``REPRO_ARRAY_BACKEND`` opt-in must not reroute them."""

    @staticmethod
    def results():
        system = rc_system()
        fractional = FractionalDescriptorSystem(0.6, system.E, system.A, system.B)

        def u(t):
            return np.sin(3.0 * np.asarray(t))

        out = [
            simulate_transient(system, u, 5.0, 120, method=method).states(
                np.linspace(0.0, 5.0, 31)
            )
            for method in TRANSIENT_METHODS
        ]
        out.append(
            simulate_grunwald_letnikov(fractional, u, 5.0, 120).states(
                np.linspace(0.0, 5.0, 31)
            )
        )
        basis = BlockPulseBasis(TimeGrid.uniform(5.0, 48))
        out.append(simulate_opm_integral(system, u, basis).coefficients)
        return out

    def test_env_opt_in_leaves_results_byte_identical(self, monkeypatch):
        monkeypatch.delenv(ARRAY_BACKEND_ENV, raising=False)
        unset = self.results()
        monkeypatch.setenv(ARRAY_BACKEND_ENV, "numpy")
        opted_in = self.results()
        assert len(opted_in) == 5
        for ref, got in zip(unset, opted_in):
            assert got.tobytes() == ref.tobytes()
