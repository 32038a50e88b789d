"""Integral-formulation OPM solver (basis-agnostic).

The differential form ``E X D = A X + B U`` needs an invertible
differentiation operational matrix, which only the piecewise-constant
families (block pulse, Walsh, Haar) and the Laguerre functions possess.
The classical operational-matrix literature (the paper's refs [1]-[6])
instead applies the *integration* matrix: integrating
``E d^alpha x = A x + B u`` once (fractionally) gives, with
``Z`` the coefficients of ``d^alpha x`` and ``F`` the (fractional)
integration matrix,

.. math::

    X = Z F + x_0 c_1^T, \\qquad
    E Z = A Z F + (A x_0) c_1^T + B U,

where ``c_1`` is the coefficient vector of the constant function 1.
The unknown ``Z`` solves a Sylvester-type equation that is

* triangular for block pulse / Laguerre (solved column by column with
  a cached pencil factorisation of ``E - F_jj A``),
* dense-small for polynomial spectral bases, in which case this
  function delegates to the engine's
  :class:`~repro.engine.session.Simulator` spectral plan -- the same
  Kronecker integral-form solve, with sparse support and a cached
  factorisation (one implementation of that math, not two), and
* dense-small for Walsh/Haar (conjugated ``F``), solved here in
  Kronecker form on purpose: the engine's pwconst plan is the
  *differential* formulation, and this function is the integral-form
  ablation axis.

This gives the paper's "other basis functions" a working solver and an
ablation axis: Tustin-inverse vs Riemann-Liouville integration matrices
on block pulses (``construction=`` parameter).
"""

from __future__ import annotations

import time

import numpy as np

from ..basis.base import BasisSet
from ..basis.block_pulse import BlockPulseBasis
from ..basis.pwconst import PiecewiseConstantBasis
from ..engine import kernels
from ..engine.backends import PencilBank, select_backend
from ..errors import BasisError, SolverError
from .lti import DescriptorSystem
from .result import SimulationResult

__all__ = ["simulate_opm_integral"]

#: Refuse dense Kronecker fallbacks larger than this (rows).
MAX_DENSE_SIZE = 6000


def _integration_matrix(basis: BasisSet, alpha: float, construction: str) -> np.ndarray:
    if alpha == 1.0:
        # every construction reduces to the classical matrix at alpha = 1
        return basis.integration_matrix()
    if isinstance(basis, BlockPulseBasis):
        return basis.fractional_integration_matrix(alpha, construction=construction)
    return basis.fractional_integration_matrix(alpha)


def _is_upper_triangular(matrix: np.ndarray) -> bool:
    lower = matrix[np.tril_indices(matrix.shape[0], -1)]
    if lower.size == 0:
        return True
    return float(np.max(np.abs(lower))) <= 1e-12 * max(float(np.max(np.abs(matrix))), 1.0)


def simulate_opm_integral(
    system: DescriptorSystem,
    u,
    basis: BasisSet,
    *,
    construction: str = "tustin",
) -> SimulationResult:
    """Simulate ``E d^alpha x = A x + B u`` in integral form on any basis.

    Parameters
    ----------
    system:
        :class:`DescriptorSystem` or
        :class:`~repro.core.lti.FractionalDescriptorSystem`.  Nonzero
        ``x0`` is supported for ``alpha <= 1`` via the constant-shift
        terms shown in the module docstring.
    u:
        Input specification (see
        :func:`repro.core.opm_solver.project_input`).
    basis:
        Any :class:`BasisSet` providing an integration matrix (all the
        families in :mod:`repro.basis`).
    construction:
        For block-pulse bases, the fractional integration matrix to
        use: ``'tustin'`` (inverse of the paper's ``D^alpha``) or
        ``'rl'`` (classical Riemann-Liouville projection).  Any other
        value raises :class:`~repro.errors.BasisError`, whatever the
        basis and order.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.basis import LegendreBasis
    >>> from repro.core.lti import DescriptorSystem
    >>> sys1 = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])
    >>> res = simulate_opm_integral(sys1, 1.0, LegendreBasis(2.0, 12))
    >>> bool(abs(res.states([1.0])[0, 0] - (1 - np.exp(-1.0))) < 1e-6)
    True
    """
    from .opm_solver import project_input

    if not isinstance(system, DescriptorSystem):
        raise TypeError(f"system must be a DescriptorSystem, got {type(system).__name__}")
    if not isinstance(basis, BasisSet):
        raise TypeError(f"basis must be a BasisSet, got {type(basis).__name__}")
    if construction not in ("tustin", "rl"):
        raise BasisError(
            f"construction must be 'tustin' or 'rl', got {construction!r}"
        )

    start = time.perf_counter()
    F = _integration_matrix(basis, system.alpha, construction)

    if not _is_upper_triangular(F) and not isinstance(basis, PiecewiseConstantBasis):
        # polynomial spectral basis: one implementation of the Kronecker
        # integral-form math lives in the engine's spectral plan
        from ..engine.session import Simulator

        result = Simulator(system, basis).run(u)
        result.wall_time = time.perf_counter() - start
        result.info["method"] = "opm-integral[spectral]"
        return result

    m = basis.size
    n = system.n_states
    U = project_input(u, basis, system.n_inputs)
    R = system.B @ U

    # constant-function coefficients (exact for every basis here)
    ones_coeffs = basis.project(lambda t: np.ones_like(t))
    offset = system.shifted_input_offset()
    if offset is not None:
        R = R + np.outer(offset, ones_coeffs)

    if _is_upper_triangular(F):
        # Column sweep: (E - F_jj A) z_j = r_j + A sum_{i<j} F_ij z_i,
        # i.e. the differential-form sweep over the pencil (E', A') =
        # (-A, -E): sigma E' - A' = E - F_jj A at sigma = F_jj, and the
        # tail r_j - E' s = r_j + A s exactly.
        bank = PencilBank(select_backend(-1.0 * system.A, -1.0 * system.E))
        Z = kernels.sweep_general(bank, R, F)
        factorisations = bank.factorisations
        method = f"opm-integral[{construction}]"
    else:
        # Walsh/Haar: the conjugated F is dense, so solve the (small)
        # Kronecker form directly -- this IS the integral-form ablation
        # in the transformed basis, deliberately not delegated to the
        # engine's (differential-form) pwconst plan
        if n * m > MAX_DENSE_SIZE:
            raise SolverError(
                f"dense integral-form system of size {n * m} exceeds "
                f"MAX_DENSE_SIZE={MAX_DENSE_SIZE}; use a block-pulse basis"
            )
        import scipy.sparse as sp

        E_d = system.E.toarray() if sp.issparse(system.E) else np.asarray(system.E)
        A_d = system.A.toarray() if sp.issparse(system.A) else np.asarray(system.A)
        big = np.kron(np.eye(m), E_d) - np.kron(F.T, A_d)
        vec_z = np.linalg.solve(big, R.T.reshape(-1))
        Z = vec_z.reshape(m, n).T
        factorisations = 1
        method = "opm-integral[dense]"

    X = Z @ F
    if system.x0 is not None:
        X = X + np.outer(system.x0, ones_coeffs)
    wall = time.perf_counter() - start

    return SimulationResult(
        basis,
        X,
        system,
        U,
        wall_time=wall,
        info={
            "method": method,
            "alpha": system.alpha,
            "factorisations": factorisations,
        },
    )
