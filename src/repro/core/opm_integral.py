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
The unknown ``Z`` solves a Sylvester-type equation.  One path serves
every basis: :func:`repro.engine.kernels.schur_form` triangularises
``F = Q T Q^T`` (``Q = I`` when ``F`` is already upper triangular, as
for block pulse and Laguerre), and
:func:`repro.engine.kernels.sweep_integral` solves column by column
with a cached pencil factorisation of ``E - T_jj A`` per distinct
diagonal entry.  Walsh/Haar (conjugated, defective ``F``) and the
polynomial spectral bases take the real Schur rotation; this is the
integral-form ablation axis beside the engine's differential-form
piecewise-constant plan.

This gives the paper's "other basis functions" a working solver and an
ablation axis: Tustin-inverse vs Riemann-Liouville integration matrices
on block pulses (``construction=`` parameter).
"""

from __future__ import annotations

import time

import numpy as np

from ..basis.base import BasisSet
from ..basis.block_pulse import BlockPulseBasis
from ..engine import kernels
from ..engine.backends import PencilBank, select_backend
from ..errors import BasisError
from .lti import DescriptorSystem
from .result import SimulationResult

__all__ = ["simulate_opm_integral"]


def _integration_matrix(basis: BasisSet, alpha: float, construction: str) -> np.ndarray:
    if alpha == 1.0:
        # every construction reduces to the classical matrix at alpha = 1
        return basis.integration_matrix()
    if isinstance(basis, BlockPulseBasis):
        return basis.fractional_integration_matrix(alpha, construction=construction)
    return basis.fractional_integration_matrix(alpha)


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

    U = project_input(u, basis, system.n_inputs)
    R = system.B @ U

    # constant-function coefficients (exact for every basis here)
    ones_coeffs = basis.project(lambda t: np.ones_like(t))
    offset = system.shifted_input_offset()
    if offset is not None:
        R = R + np.outer(offset, ones_coeffs)

    # E Z - A Z F = R over the swapped pencil (E', A') = (-A, -E):
    # sigma E' - A' = E - sigma A at each eigenvalue shift of Schur T
    T, Q = kernels.schur_form(F)
    bank = PencilBank(select_backend(-1.0 * system.A, -1.0 * system.E))
    Z = kernels.sweep_integral(bank, R, T, Q)
    method = f"opm-integral[{construction if Q is None else 'schur'}]"

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
            "factorisations": bank.factorisations,
        },
    )
