"""Operational-operator assembly for the engine's block-pulse sweeps.

The uniform-grid OPM sweep needs only the first-row Toeplitz
coefficients of ``D^alpha`` (paper eq. (22)); the adaptive sweep needs
the full upper-triangular matrix (eqs. (17)/(25)).  This module is the
one place those operators are built, with a process-wide memo on the
Toeplitz coefficients so repeated sessions on the same
``(alpha, m, h)`` signature skip the recurrence entirely.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..basis.grid import TimeGrid
from ..opmat.differential import differentiation_matrix_adaptive
from ..opmat.fractional import (
    fractional_differentiation_coefficients,
    fractional_differentiation_matrix_adaptive,
)

__all__ = [
    "toeplitz_coefficients",
    "adaptive_operator",
]


@lru_cache(maxsize=256)
def _cached_coefficients(alpha: float, m: int, h: float) -> np.ndarray:
    coeffs = fractional_differentiation_coefficients(alpha, m, h)
    coeffs.setflags(write=False)  # shared across sessions: freeze
    return coeffs


def toeplitz_coefficients(alpha: float, m: int, h: float) -> np.ndarray:
    """First-row coefficients of ``D^alpha`` on a uniform grid, memoised.

    Returns a read-only array shared by every caller with the same
    ``(alpha, m, h)`` signature (the memo holds the last 256 signatures).
    """
    return _cached_coefficients(float(alpha), int(m), float(h))


def adaptive_operator(grid: TimeGrid, alpha: float) -> np.ndarray:
    """Upper-triangular ``D^alpha`` for an adaptive grid (paper eqs. (17)/(25)).

    Fractional orders use the ``'auto'`` construction of
    :func:`~repro.opmat.fractional.fractional_differentiation_matrix_adaptive`,
    which picks eq. (25)'s eigendecomposition or a Schur matrix power
    from the grid's steps.
    """
    if alpha == 1.0:
        return differentiation_matrix_adaptive(grid.steps)
    return fractional_differentiation_matrix_adaptive(alpha, grid.steps)

