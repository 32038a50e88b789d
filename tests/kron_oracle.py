"""Dense Kronecker oracle for the OPM equations (a test helper).

The paper writes the OPM equation in vectorised form, eqs. (15)/(27),

.. math::

    \\left( (D^{\\alpha})^T \\otimes E - I_m \\otimes A \\right)
    \\mathrm{vec}(X) = (I_m \\otimes B)\\, \\mathrm{vec}(U),

and notes it never needs solving.  The tests solve it anyway: an
``nm x nm`` dense solve is slow but algebraically transparent, so the
engine's column sweeps are checked against it.  :func:`kron_solve`
solves any equation ``sum_k M_k Z G_k = S`` this way;
:func:`opm_coefficients` is the differential form on block pulses,
:func:`integral_solve` the integral form ``E Z - A Z F = S`` and
:func:`session_oracle` that form for a session's own input and ``F``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.basis import BlockPulseBasis
from repro.core import MultiTermSystem
from repro.engine.assembly import adaptive_operator
from repro.engine.inputs import project_input
from repro.engine.session import resolve_grid
from repro.opmat.fractional import fractional_differentiation_matrix


def dense(matrix) -> np.ndarray:
    return matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)


def dense_operator(grid, alpha: float) -> np.ndarray:
    """Full dense ``D^alpha`` for any grid and order: the series closed
    form (paper eq. (22)) on uniform grids, eqs. (17)/(25) on adaptive
    ones; ``alpha = 0`` is the identity."""
    if grid.is_uniform:
        return fractional_differentiation_matrix(alpha, grid.m, grid.h)
    if alpha == 0.0:
        return np.eye(grid.m)
    return adaptive_operator(grid, alpha)


def kron_solve(terms, S: np.ndarray) -> np.ndarray:
    """Solve ``sum_k M_k Z G_k = S`` for ``Z`` through the dense system
    ``(sum_k G_k^T (x) M_k) vec(Z) = vec(S)`` (``vec`` stacks columns);
    ``terms`` holds the ``(M_k, G_k)`` pairs."""
    n, m = S.shape
    big = sum(np.kron(np.asarray(G).T, dense(M)) for M, G in terms)
    return np.linalg.solve(big, S.T.reshape(-1)).reshape(m, n).T


def integral_solve(E, A, F, S) -> np.ndarray:
    """The integral form ``E Z - A Z F = S``."""
    return kron_solve([(E, np.eye(F.shape[0])), (-dense(A), F)], S)


def session_oracle(sim, F, u) -> np.ndarray:
    """The session's integral form solved through the Kronecker oracle:
    ``E Z = A Z F + (B U + A x0 1^T) F``, ``X = Z + x0 1^T``."""
    system = sim.system
    ones = sim.bundle.ones_coefficients()
    R = system.B @ sim.project(u)
    x0 = system.x0
    if x0 is not None:
        R = R + np.outer(np.asarray(system.A @ x0).reshape(-1), ones)
    X = integral_solve(system.E, system.A, F, R @ F)
    return X if x0 is None else X + np.outer(x0, ones)


def opm_coefficients(system, u, grid) -> np.ndarray:
    """Block-pulse coefficients ``X`` of ``system`` driven by ``u`` on
    ``grid`` (a :class:`~repro.basis.grid.TimeGrid` or ``(t_end, m)``):
    ``E X D^alpha - A X = B U`` (plus ``A x0`` for a nonzero initial
    state, solved for ``X - x0``), or ``sum_k M_k X D^{alpha_k} = B U``
    for a :class:`MultiTermSystem`."""
    grid = resolve_grid(grid)
    R = system.B @ project_input(u, BlockPulseBasis(grid), system.n_inputs)
    if isinstance(system, MultiTermSystem):
        terms = [(M, dense_operator(grid, alpha)) for alpha, M in system.terms]
        return kron_solve(terms, R)
    offset = system.shifted_input_offset()
    if offset is not None:
        R = R + offset[:, None]
    terms = [(system.E, dense_operator(grid, system.alpha)), (-dense(system.A), np.eye(grid.m))]
    X = kron_solve(terms, R)
    return X if system.x0 is None else X + system.x0[:, None]
