"""Cross-validation of the fast column sweep against the Kronecker form.

The paper presents eq. (15)/(27) as the defining linear system and the
column sweep as the efficient evaluation; these tests assert the two
agree to machine precision on randomised systems (hypothesis) for all
dispatch paths: first-order/fractional x uniform/adaptive x dense/sparse.
The Kronecker side is the dense oracle of :mod:`tests.kron_oracle`.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis import TimeGrid
from repro.core import (
    DescriptorSystem,
    FractionalDescriptorSystem,
    MultiTermSystem,
    simulate_opm,
)

from ..kron_oracle import opm_coefficients


def random_system(seed: int, n: int, alpha: float = 1.0, sparse: bool = False):
    rng = np.random.default_rng(seed)
    E = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    A = -np.eye(n) * (1.0 + rng.uniform(size=n)) + 0.1 * rng.standard_normal((n, n))
    B = rng.standard_normal((n, 1))
    if sparse:
        E, A = sp.csr_matrix(E), sp.csr_matrix(A)
    if alpha == 1.0:
        return DescriptorSystem(E, A, B)
    return FractionalDescriptorSystem(alpha, E, A, B)


@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 6),
    m=st.integers(1, 12),
    alpha_key=st.sampled_from([1.0, 0.5, 0.25, 1.5, 2.0]),
)
@settings(max_examples=50, deadline=None)
def test_uniform_grid_agreement(seed, n, m, alpha_key):
    system = random_system(seed, n, alpha_key)
    fast = simulate_opm(system, 1.0, (1.0, m))
    ref = opm_coefficients(system, 1.0, (1.0, m))
    scale = np.max(np.abs(ref)) + 1.0
    np.testing.assert_allclose(
        fast.coefficients, ref, atol=1e-8 * scale
    )


@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 5),
    ratio=st.floats(1.05, 1.6),
    alpha_key=st.sampled_from([1.0, 0.5, 1.5]),
)
@settings(max_examples=30, deadline=None)
def test_adaptive_grid_agreement(seed, n, ratio, alpha_key):
    system = random_system(seed, n, alpha_key)
    grid = TimeGrid.geometric(1.0, 8, ratio)
    fast = simulate_opm(system, 1.0, grid)
    ref = opm_coefficients(system, 1.0, grid)
    scale = np.max(np.abs(ref)) + 1.0
    np.testing.assert_allclose(
        fast.coefficients, ref, atol=1e-6 * scale
    )


@given(seed=st.integers(0, 2**31), n=st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_sparse_dense_agreement(seed, n):
    dense = random_system(seed, n, sparse=False)
    sparse = random_system(seed, n, sparse=True)
    fast_d = simulate_opm(dense, 1.0, (1.0, 10))
    fast_s = simulate_opm(sparse, 1.0, (1.0, 10))
    scale = np.max(np.abs(fast_d.coefficients)) + 1.0
    np.testing.assert_allclose(
        fast_d.coefficients, fast_s.coefficients, atol=1e-9 * scale
    )


@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 3),
    orders=st.sampled_from([(2.0, 1.0, 0.0), (2.0, 0.5, 0.0), (1.0, 0.5, 0.0), (2.5, 1.25, 0.0)]),
)
@settings(max_examples=25, deadline=None)
def test_multiterm_agreement(seed, n, orders):
    rng = np.random.default_rng(seed)
    terms = [
        (order, np.eye(n) * (1.0 + k) + 0.05 * rng.standard_normal((n, n)))
        for k, order in enumerate(orders)
    ]
    system = MultiTermSystem(terms, rng.standard_normal((n, 1)))
    fast = simulate_opm(system, 1.0, (1.0, 10))
    ref = opm_coefficients(system, 1.0, (1.0, 10))
    scale = np.max(np.abs(ref)) + 1.0
    np.testing.assert_allclose(fast.coefficients, ref, atol=1e-8 * scale)


def test_kron_x0_shift_agrees():
    system = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]], x0=[2.0])
    fast = simulate_opm(system, 1.0, (1.0, 12))
    ref = opm_coefficients(system, 1.0, (1.0, 12))
    np.testing.assert_allclose(fast.coefficients, ref, atol=1e-10)
