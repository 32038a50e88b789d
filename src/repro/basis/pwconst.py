"""Shared machinery for piecewise-constant orthogonal bases (Walsh, Haar).

Walsh functions and Haar wavelets with ``m = 2^k`` terms are exact
linear combinations of the ``m`` block-pulse functions on the uniform
grid: ``psi(t) = W phi(t)`` for an invertible transform matrix ``W``
with ``W W^T = m I``.  Every operational matrix therefore transfers by
conjugation:

.. math::

    \\int \\psi = W H W^{-1} \\psi, \\qquad
    \\frac{d}{dt}\\psi = W D W^{-1} \\psi, \\qquad
    D^{\\alpha}_{\\psi} = W D^{\\alpha} W^{-1},

with ``H``, ``D``, ``D^alpha`` the block-pulse matrices of
:mod:`repro.opmat`.  This realises the paper's remark (section I) that
OPM "can readily switch to using other basis functions": the solver is
unchanged, only the operational matrix and the projection change.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .._validation import check_fractional_order, check_positive_float, check_positive_int
from ..errors import BasisError
from .base import BasisSet, cached_operator
from .block_pulse import BlockPulseBasis
from .grid import TimeGrid

__all__ = ["PiecewiseConstantBasis", "is_power_of_two"]


def is_power_of_two(m: int) -> bool:
    """True when ``m`` is a positive power of two (includes ``1``)."""
    return m >= 1 and (m & (m - 1)) == 0


class PiecewiseConstantBasis(BasisSet):
    """Base class: an orthogonal transform ``W`` of the block-pulse basis.

    Subclasses supply the transform matrix through
    :meth:`_build_transform`; it must satisfy ``W W^T = m I`` (rows are
    orthogonal with squared norm ``m``), which both the Hadamard-Walsh
    and the scaled Haar constructions do.
    """

    def __init__(self, t_end: float, m: int, *, projection: str = "average") -> None:
        t_end = check_positive_float(t_end, "t_end")
        m = check_positive_int(m, "m")
        if not is_power_of_two(m):
            raise BasisError(f"{type(self).__name__} requires m to be a power of two, got {m}")
        self._bpf = BlockPulseBasis(TimeGrid.uniform(t_end, m), projection=projection)
        self._w = self._build_transform(m)
        if self._w.shape != (m, m):
            raise BasisError(
                f"transform must be {m}x{m}, got {self._w.shape}"
            )

    def _build_transform(self, m: int) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # identification
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._bpf.size

    @property
    def t_end(self) -> float:
        return self._bpf.t_end

    @property
    def transform(self) -> np.ndarray:
        """The matrix ``W`` with ``psi(t) = W phi(t)``."""
        return self._w

    @property
    def block_pulse(self) -> BlockPulseBasis:
        """The underlying block-pulse basis."""
        return self._bpf

    @property
    def projection(self) -> str:
        """Input projection rule of the underlying block-pulse basis."""
        return self._bpf.projection

    # ------------------------------------------------------------------
    # function-space <-> coefficient-space
    # ------------------------------------------------------------------
    def evaluate(self, times) -> np.ndarray:
        return self._w @ self._bpf.evaluate(times)

    def project(self, func: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        # f ~ f_B . phi = f_B . (W^{-1} psi)  =>  c = W^{-T} f_B = W f_B / m
        return self._w @ self._bpf.project(func) / self.size

    def to_block_pulse_coefficients(self, coeffs) -> np.ndarray:
        """Convert coefficients in this basis to block-pulse coefficients."""
        coeffs = np.asarray(coeffs, dtype=float)
        return coeffs @ self._w  # f_B = W^T c, applied to trailing axis

    def from_block_pulse_coefficients(self, coeffs) -> np.ndarray:
        """Convert block-pulse coefficients to this basis (trailing axis).

        The exact inverse of :meth:`to_block_pulse_coefficients`:
        ``c = W^{-T} f_B = W f_B / m``.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        return coeffs @ self._w.T / self.size

    # ------------------------------------------------------------------
    # operational matrices (conjugation)
    # ------------------------------------------------------------------
    def _conjugate(self, bpf_matrix: np.ndarray) -> np.ndarray:
        # W M W^{-1} with W^{-1} = W^T / m
        return self._w @ bpf_matrix @ self._w.T / self.size

    @cached_operator
    def integration_matrix(self) -> np.ndarray:
        return self._conjugate(self._bpf.integration_matrix())

    @cached_operator
    def differentiation_matrix(self) -> np.ndarray:
        return self._conjugate(self._bpf.differentiation_matrix())

    @cached_operator
    def fractional_differentiation_matrix(self, alpha: float) -> np.ndarray:
        alpha = check_fractional_order(alpha, allow_zero=True)
        return self._conjugate(self._bpf.fractional_differentiation_matrix(alpha))

    @cached_operator
    def fractional_integration_matrix(self, alpha: float) -> np.ndarray:
        alpha = check_fractional_order(alpha, allow_zero=True)
        return self._conjugate(self._bpf.fractional_integration_matrix(alpha))
