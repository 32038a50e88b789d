"""Tests for the engine's linear-algebra backends and pencil bank."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines.transient import TRANSIENT_METHODS, simulate_transient
from repro.basis import BlockPulseBasis, TimeGrid
from repro.circuits import Netlist
from repro.core import DescriptorSystem, FractionalDescriptorSystem, MultiTermSystem, simulate
from repro.engine import (
    DenseBackend,
    PencilBank,
    Simulator,
    SparseBackend,
    matrix_density,
    pencil_fingerprint,
    select_backend,
    simulate_netlist,
)
from repro.engine.backends import SPARSE_SIZE_THRESHOLD, handle_nbytes
from repro.errors import SolverError
from repro.fractional.grunwald import simulate_grunwald_letnikov

from ..core.test_integral_form import BlockPulseIntegration


def tridiag(n: int) -> sp.csr_matrix:
    main = -2.0 * np.ones(n)
    off = np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


class TestMatrixDensity:
    def test_dense(self):
        assert matrix_density(np.eye(4)) == pytest.approx(0.25)

    def test_sparse(self):
        assert matrix_density(sp.identity(10, format="csr")) == pytest.approx(0.1)

    def test_stored_zeros_are_not_fill(self):
        # nnz counts stored entries; density must count actual nonzeros
        M = sp.coo_matrix(
            (np.array([1.0, 0.0, 0.0]), ([0, 1, 2], [0, 1, 2])), shape=(4, 4)
        )
        assert M.nnz == 3
        assert matrix_density(M) == pytest.approx(1 / 16)

    def test_cancelling_duplicates_are_not_fill(self):
        M = sp.coo_matrix(
            (np.array([2.0, -2.0]), ([0, 0], [1, 1])), shape=(3, 3)
        )
        assert matrix_density(M) == 0.0

    def test_stored_zeros_do_not_flip_auto_decision(self):
        # regression: at the size boundary, a pencil whose sparse
        # storage is padded with explicit zeros must select the same
        # backend as its pruned twin -- fill is content, not storage
        n = SPARSE_SIZE_THRESHOLD
        A = tridiag(n).tocoo()
        rng = np.random.default_rng(1)
        extra = n * n // 3  # naive nnz-density would exceed 25% fill
        rows = rng.integers(0, n, size=extra)
        cols = rng.integers(0, n, size=extra)
        padded = sp.coo_matrix(
            (
                np.concatenate([A.data, np.zeros(extra)]),
                (np.concatenate([A.row, rows]), np.concatenate([A.col, cols])),
            ),
            shape=(n, n),
        )
        assert matrix_density(padded) == pytest.approx(matrix_density(A))
        backend = select_backend(sp.identity(n, format="csr"), padded)
        assert isinstance(backend, SparseBackend)
        # and symmetrically when the padding sits in E
        backend = select_backend(padded, tridiag(n))
        assert isinstance(backend, SparseBackend)


class TestSelectBackend:
    def test_small_dense_system(self):
        backend = select_backend(np.eye(4), -np.eye(4))
        assert isinstance(backend, DenseBackend)

    def test_small_sparse_input_densified(self):
        # below the size threshold, dense LAPACK wins even for sparse input
        backend = select_backend(sp.identity(8), -sp.identity(8))
        assert isinstance(backend, DenseBackend)

    def test_large_sparse_system_stays_sparse(self):
        n = SPARSE_SIZE_THRESHOLD
        backend = select_backend(sp.identity(n, format="csr"), tridiag(n))
        assert isinstance(backend, SparseBackend)
        assert sp.issparse(backend.E) and sp.issparse(backend.A)

    def test_large_sparse_content_in_dense_storage(self):
        # sparsity is judged from fill, not from the storage the caller used
        n = SPARSE_SIZE_THRESHOLD
        backend = select_backend(np.eye(n), tridiag(n).toarray())
        assert isinstance(backend, SparseBackend)

    def test_large_but_full_system_stays_dense(self):
        n = SPARSE_SIZE_THRESHOLD
        rng = np.random.default_rng(0)
        backend = select_backend(rng.standard_normal((n, n)), np.eye(n))
        assert isinstance(backend, DenseBackend)

    def test_forced_modes(self):
        assert isinstance(select_backend(np.eye(2), np.eye(2), mode="sparse"), SparseBackend)
        assert isinstance(
            select_backend(sp.identity(500), sp.identity(500), mode="dense"),
            DenseBackend,
        )

    def test_invalid_mode(self):
        with pytest.raises(SolverError, match="backend mode"):
            select_backend(np.eye(2), np.eye(2), mode="gpu")


class TestPencilBank:
    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_solve_correct(self, mode):
        E = np.diag([2.0, 1.0])
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        bank = PencilBank(select_backend(E, A, mode=mode))
        rhs = np.array([1.0, 2.0])
        x = bank.solve(3.0, rhs)
        np.testing.assert_allclose((3.0 * E - A) @ x, rhs, atol=1e-12)

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_multi_rhs_matches_columnwise(self, mode, rng):
        n, k = 6, 5
        E = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        A = -np.eye(n) - 0.2 * rng.standard_normal((n, n))
        bank = PencilBank(select_backend(E, A, mode=mode))
        rhs = rng.standard_normal((n, k))
        block = bank.solve(2.0, rhs)
        assert block.shape == (n, k)
        for j in range(k):
            np.testing.assert_allclose(
                block[:, j], bank.solve(2.0, rhs[:, j]), atol=1e-12
            )
        assert bank.factorisations == 1

    def test_warm_flag_and_count(self):
        bank = PencilBank(select_backend(np.eye(2), -np.eye(2)))
        assert not bank.is_warm
        bank.solve(1.0, np.ones(2))
        assert bank.is_warm and bank.factorisations == 1
        bank.solve(1.0, np.zeros(2))
        assert bank.factorisations == 1
        bank.solve(2.0, np.ones(2))
        assert bank.factorisations == 2

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_singular_pencil_raises(self, mode):
        bank = PencilBank(select_backend(np.zeros((2, 2)), np.zeros((2, 2)), mode=mode))
        with pytest.raises(SolverError, match="singular"):
            bank.solve(1.0, np.ones(2))

    def test_apply_e(self):
        E = np.diag([2.0, 3.0])
        bank = PencilBank(select_backend(E, -np.eye(2)))
        np.testing.assert_allclose(bank.apply_E(np.ones(2)), [2.0, 3.0])


class TestPencilBankLRU:
    """Bounded-cache behaviour: eviction order, byte accounting, counters."""

    @staticmethod
    def make_bank(**bounds) -> PencilBank:
        return PencilBank(select_backend(np.eye(2), -np.eye(2)), **bounds)

    def test_unbounded_by_default(self):
        bank = self.make_bank()
        for sigma in range(1, 9):
            bank.solve(float(sigma), np.ones(2))
        assert bank.entries == 8
        assert bank.evictions == 0
        assert bank.max_entries is None and bank.max_bytes is None

    def test_evicts_least_recently_used_first(self):
        bank = self.make_bank(max_entries=2)
        bank.solve(1.0, np.ones(2))
        bank.solve(2.0, np.ones(2))
        bank.solve(3.0, np.ones(2))  # evicts sigma=1
        assert bank.cached_shifts == [(0, 2.0), (0, 3.0)]
        assert bank.evictions == 1
        bank.solve(1.0, np.ones(2))  # re-factorise; evicts sigma=2
        assert bank.cached_shifts == [(0, 3.0), (0, 1.0)]
        assert bank.evictions == 2

    def test_hit_refreshes_recency(self):
        bank = self.make_bank(max_entries=2)
        bank.solve(1.0, np.ones(2))
        bank.solve(2.0, np.ones(2))
        bank.solve(1.0, np.ones(2))  # hit: sigma=1 becomes most recent
        bank.solve(3.0, np.ones(2))  # evicts sigma=2, not sigma=1
        assert bank.cached_shifts == [(0, 1.0), (0, 3.0)]

    def test_factorisation_count_is_monotone_across_eviction(self):
        bank = self.make_bank(max_entries=1)
        bank.solve(1.0, np.ones(2))
        bank.solve(2.0, np.ones(2))
        bank.solve(1.0, np.ones(2))  # evicted earlier: counts again
        assert bank.factorisations == 3
        assert bank.entries == 1

    def test_hit_miss_counters(self):
        bank = self.make_bank(max_entries=1)
        bank.solve(1.0, np.ones(2))
        bank.solve(1.0, np.ones(2))
        bank.solve(2.0, np.ones(2))
        bank.solve(1.0, np.ones(2))  # was evicted: a miss again
        assert (bank.hits, bank.misses, bank.evictions) == (1, 3, 2)

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_nbytes_tracks_handle_estimates(self, mode):
        n = 16
        bank = PencilBank(select_backend(np.eye(n), -tridiag(n).toarray(), mode=mode))
        assert bank.nbytes == 0
        bank.solve(1.0, np.ones(n))
        first = bank.nbytes
        assert first > 0
        bank.solve(2.0, np.ones(n))
        assert bank.nbytes > first
        bank.limit(max_entries=1)
        assert bank.nbytes < 2 * first + 1  # one handle's worth remains

    def test_max_bytes_bound_evicts(self):
        n = 8
        backend = select_backend(np.eye(n), -np.eye(n), mode="dense")
        one_handle = handle_nbytes(backend.factorize(1.0), n)
        bank = PencilBank(backend, max_bytes=int(1.5 * one_handle))
        bank.solve(1.0, np.ones(n))
        assert bank.entries == 1
        bank.solve(2.0, np.ones(n))  # two handles exceed the budget
        assert bank.entries == 1
        assert bank.cached_shifts == [(0, 2.0)]
        assert bank.evictions == 1
        assert bank.nbytes <= bank.max_bytes

    def test_in_flight_handle_survives_tight_byte_budget(self):
        # a bound tighter than a single handle shrinks the cache to that
        # one handle but never refuses the solve in flight
        bank = self.make_bank(max_bytes=1)
        x = bank.solve(1.0, np.ones(2))
        np.testing.assert_allclose(x, 0.5 * np.ones(2))
        assert bank.entries == 1
        bank.solve(2.0, np.ones(2))
        assert bank.entries == 1
        assert bank.cached_shifts == [(0, 2.0)]

    def test_limit_rebounds_populated_bank(self):
        bank = self.make_bank()
        for sigma in range(1, 6):
            bank.solve(float(sigma), np.ones(2))
        assert bank.entries == 5
        bank.limit(max_entries=2)
        assert bank.entries == 2
        assert bank.cached_shifts == [(0, 4.0), (0, 5.0)]
        assert bank.evictions == 3

    def test_limit_validates(self):
        with pytest.raises(SolverError, match="max_entries"):
            self.make_bank(max_entries=0)
        with pytest.raises(SolverError, match="max_bytes"):
            self.make_bank().limit(max_bytes=-1)

    def test_eviction_spans_stamps(self):
        # LRU order is global across stamps, not per stamp
        E = np.eye(2)
        bank = PencilBank(select_backend(E, -np.eye(2)), max_entries=2)
        bank.solve(1.0, np.ones(2))
        bank.restamp(select_backend(E, -3.0 * np.eye(2)))
        bank.solve(1.0, np.ones(2))
        bank.solve(2.0, np.ones(2))  # evicts (stamp 0, sigma 1)
        assert bank.cached_shifts == [(1, 1.0), (1, 2.0)]
        # revisiting the evicted stamp-0 shift re-factorises correctly
        bank.use(0)
        np.testing.assert_allclose(bank.solve(1.0, np.ones(2)), 0.5 * np.ones(2))
        assert bank.factorisations == 4

    def test_stats_dict(self):
        bank = self.make_bank(max_entries=4)
        bank.solve(1.0, np.ones(2))
        bank.solve(1.0, np.ones(2))
        stats = bank.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["evictions"] == 0
        assert stats["factorisations"] == 1
        assert stats["stamps"] == 1
        assert stats["max_entries"] == 4 and stats["max_bytes"] is None
        assert stats["nbytes"] == bank.nbytes > 0


class TestHandleNbytes:
    def test_dense_lu_pair(self):
        backend = DenseBackend(np.eye(8), -np.eye(8))
        handle = backend.factorize(1.0)
        expected = handle[0].nbytes + handle[1].nbytes
        assert handle_nbytes(handle, 8) == expected

    def test_superlu_counts_factors_and_permutations(self):
        n = 32
        backend = SparseBackend(sp.identity(n, format="csc"), tridiag(n))
        handle = backend.factorize(1.0)
        nbytes = handle_nbytes(handle, n)
        csc_parts = sum(
            factor.data.nbytes + factor.indices.nbytes + factor.indptr.nbytes
            for factor in (handle.L, handle.U)
        )
        assert nbytes == csc_parts + 2 * n * np.dtype(np.intc).itemsize

    def test_unknown_handle_falls_back_dense(self):
        assert handle_nbytes(object(), 10) == 10 * 10 * 8


class TestPencilFingerprint:
    def test_equal_dense_matrices_match(self):
        assert pencil_fingerprint(np.eye(3), -np.eye(3)) == pencil_fingerprint(
            np.eye(3), -np.eye(3)
        )
        assert pencil_fingerprint(np.eye(3)) != pencil_fingerprint(2 * np.eye(3))

    def test_sparse_content_keyed_by_values(self):
        a = tridiag(16)
        b = tridiag(16).copy()
        assert pencil_fingerprint(a) == pencil_fingerprint(b)
        b[0, 0] = -5.0
        assert pencil_fingerprint(a) != pencil_fingerprint(b)


class TestRestamp:
    """Mid-run pencil re-stamping (events) with per-stamp caching."""

    def test_restamp_switches_pencil(self):
        E = np.eye(2)
        A1, A2 = -np.eye(2), -3.0 * np.eye(2)
        bank = PencilBank(select_backend(E, A1))
        x1 = bank.solve(1.0, np.ones(2))
        bank.restamp(select_backend(E, A2))
        x2 = bank.solve(1.0, np.ones(2))
        np.testing.assert_allclose(x1, 0.5 * np.ones(2))
        np.testing.assert_allclose(x2, 0.25 * np.ones(2))
        assert bank.stamps == 2
        assert bank.factorisations == 2

    def test_restamp_caches_both_pencils(self):
        E = np.eye(2)
        A1, A2 = -np.eye(2), -3.0 * np.eye(2)
        bank = PencilBank(select_backend(E, A1))
        bank.solve(1.0, np.ones(2))
        bank.restamp(select_backend(E, A2))
        bank.solve(1.0, np.ones(2))
        # toggle back and forth: fingerprint-matched stamps reuse their LUs
        bank.restamp(select_backend(E, A1))
        assert bank.stamp == 0
        bank.solve(1.0, np.ones(2))
        bank.restamp(select_backend(E, A2))
        bank.solve(1.0, np.ones(2))
        assert bank.stamps == 2
        assert bank.factorisations == 2

    def test_restamp_same_matrices_is_noop(self):
        E, A = np.eye(2), -np.eye(2)
        bank = PencilBank(select_backend(E, A))
        bank.solve(1.0, np.ones(2))
        stamp = bank.restamp(select_backend(E.copy(), A.copy()))
        assert stamp == 0 and bank.stamps == 1
        bank.solve(1.0, np.ones(2))
        assert bank.factorisations == 1

    def test_per_stamp_sigma_caches_are_independent(self):
        E = np.eye(2)
        bank = PencilBank(select_backend(E, -np.eye(2)))
        bank.solve(1.0, np.ones(2))
        bank.solve(2.0, np.ones(2))
        bank.restamp(select_backend(E, -3.0 * np.eye(2)))
        bank.solve(1.0, np.ones(2))
        assert bank.factorisations == 3

    def test_use_restores_a_stamp(self):
        E = np.eye(2)
        bank = PencilBank(select_backend(E, -np.eye(2)))
        bank.restamp(select_backend(E, -3.0 * np.eye(2)))
        bank.use(0)
        np.testing.assert_allclose(bank.solve(1.0, np.ones(2)), 0.5 * np.ones(2))
        with pytest.raises(SolverError, match="unknown pencil stamp"):
            bank.use(5)


def rc_chain(n: int) -> DescriptorSystem:
    """Sparse RC chain ``x' = T x + e_0 u`` (T tridiagonal)."""
    B = np.zeros((n, 1))
    B[0, 0] = 1.0
    return DescriptorSystem(sp.identity(n, format="csr"), tridiag(n), B)


def drive(t):
    return np.sin(3.0 * np.asarray(t))


def _transient(method: str):
    return lambda: simulate_transient(rc_chain(12), drive, 5.0, 120, method=method).states(
        np.linspace(0.0, 5.0, 31)
    )


def _fractional() -> FractionalDescriptorSystem:
    system = rc_chain(12)
    return FractionalDescriptorSystem(0.6, system.E, system.A, system.B)


#: Every solve route, as a thunk returning its result array.
ROUTES = {
    "block-pulse-dense": lambda: Simulator(rc_chain(12), (5.0, 48)).run(drive).coefficients,
    "block-pulse-sparse": lambda: Simulator(
        rc_chain(SPARSE_SIZE_THRESHOLD), (5.0, 48)
    ).run(drive).coefficients,
    "sweep": lambda: Simulator(rc_chain(12), (5.0, 48)).sweep([0.5, drive]).coefficients,
    "chebyshev": lambda: Simulator(rc_chain(12), (5.0, 16), basis="chebyshev")
    .run(1.0)
    .coefficients,
    "walsh": lambda: Simulator(rc_chain(12), (5.0, 32), basis="walsh").run(drive).coefficients,
    "opm-integral": lambda: Simulator(
        rc_chain(12), BlockPulseBasis(TimeGrid.uniform(5.0, 48)),
        method=BlockPulseIntegration("tustin"),
    ).run(drive).coefficients,
    "march": lambda: simulate(rc_chain(12), drive, 5.0, 48, windows=4).coefficients,
    "multi-term": lambda: Simulator(
        MultiTermSystem(
            [(1.0, np.eye(2)), (0.5, 0.1 * np.eye(2)), (0.0, np.eye(2))],
            np.ones((2, 1)),
        ),
        (1.0, 16),
    )
    .run(1.0)
    .coefficients,
    "method-gl": lambda: Simulator(_fractional(), (5.0, 48), method="gl")
    .run(drive)
    .coefficients,
    **{f"transient-{method}": _transient(method) for method in TRANSIENT_METHODS},
    "grunwald-letnikov": lambda: simulate_grunwald_letnikov(
        _fractional(), drive, 5.0, 120
    ).states(np.linspace(0.0, 5.0, 31)),
}


class TestNoArrayBackendSwitch:
    """Backends are exactly 'auto', 'dense' and 'sparse': no environment
    variable reroutes a solve, and array-library names are refused."""

    @pytest.mark.parametrize("value", ["numpy", "cupy"])
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_environment_is_inert(self, route, value, monkeypatch):
        monkeypatch.delenv("REPRO_ARRAY_BACKEND", raising=False)
        unset = ROUTES[route]()
        monkeypatch.setenv("REPRO_ARRAY_BACKEND", value)
        assert ROUTES[route]().tobytes() == unset.tobytes()

    def test_auto_picks_both_host_backends(self):
        assert Simulator(rc_chain(12), (5.0, 48)).run(1.0).info["backend"] == "dense"
        big = Simulator(rc_chain(SPARSE_SIZE_THRESHOLD), (5.0, 48))
        assert big.run(1.0).info["backend"] == "sparse"

    @pytest.mark.parametrize("mode", ["numpy", "cupy", "torch", "array-api:numpy"])
    def test_array_library_names_rejected(self, mode):
        modes = "'auto', 'dense' or 'sparse'"
        with pytest.raises(SolverError, match=modes) as info:
            Simulator(rc_chain(4), (1.0, 8), backend=mode)
        assert repr(mode) in str(info.value)
        deck = f"I1 0 n1 1m\nR1 n1 0 1k\nC1 n1 0 1u\n.tran 50u 5m\n.options backend={mode}\n"
        with pytest.raises(SolverError, match=modes):
            simulate_netlist(Netlist.from_spice(deck))
