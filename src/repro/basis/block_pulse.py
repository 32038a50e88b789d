"""Block-pulse function (BPF) basis -- the paper's working basis.

Paper eq. (1) defines the BPFs on a uniform grid; eq. (16) generalises
to adaptive steps.  ``phi_i`` is the indicator of interval ``i``, so

* projection coefficients are interval averages
  ``f_i = (1/h_i) * integral_{t_i}^{t_{i+1}} f`` (paper eq. (2)),
* synthesis is piecewise-constant reconstruction,
* the operational matrices are those of :mod:`repro.opmat`.

Projection supports two rules: exact interval averages via per-interval
Gauss-Legendre quadrature (the definition in eq. (2)) and the cheaper
midpoint rule (the paper's "roughly, f_i = f(ih)" remark).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .._validation import check_fractional_order
from ..errors import BasisError
from ..opmat import (
    differentiation_matrix,
    differentiation_matrix_adaptive,
    fractional_differentiation_matrix,
    fractional_differentiation_matrix_adaptive,
    fractional_integration_matrix,
    integration_matrix,
    integration_matrix_adaptive,
    rl_integration_matrix,
)
from .base import BasisSet, cached_operator
from .grid import TimeGrid

__all__ = ["BlockPulseBasis"]

# Gauss-Legendre nodes/weights on [-1, 1] used for interval averages.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


class BlockPulseBasis(BasisSet):
    """Block-pulse functions on a :class:`~repro.basis.grid.TimeGrid`.

    Parameters
    ----------
    grid:
        The time partition; uniform grids activate the Toeplitz
        closed forms of the operational matrices, adaptive grids the
        diagonal-scaled variants (paper eqs. (16)-(17)).
    projection:
        ``'average'`` (default) -- exact interval averages by 5-point
        Gauss-Legendre quadrature per interval, the definition in
        eq. (2); ``'midpoint'`` -- sample at interval midpoints.

    Examples
    --------
    >>> import numpy as np
    >>> basis = BlockPulseBasis(TimeGrid.uniform(1.0, 4))
    >>> coeffs = basis.project(lambda t: t)
    >>> np.round(coeffs, 4)
    array([0.125, 0.375, 0.625, 0.875])
    """

    def __init__(self, grid: TimeGrid, *, projection: str = "average") -> None:
        if not isinstance(grid, TimeGrid):
            raise TypeError(f"grid must be a TimeGrid, got {type(grid).__name__}")
        if projection not in ("average", "midpoint"):
            raise BasisError(f"projection must be 'average' or 'midpoint', got {projection!r}")
        self._grid = grid
        self._projection = projection

    # ------------------------------------------------------------------
    # identification
    # ------------------------------------------------------------------
    @property
    def grid(self) -> TimeGrid:
        return self._grid

    @property
    def projection(self) -> str:
        """The input projection rule (``'average'`` or ``'midpoint'``)."""
        return self._projection

    @property
    def size(self) -> int:
        return self._grid.m

    @property
    def t_end(self) -> float:
        return self._grid.t_end

    @property
    def name(self) -> str:
        return "BlockPulse"

    # ------------------------------------------------------------------
    # function-space <-> coefficient-space
    # ------------------------------------------------------------------
    def evaluate(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        idx = self._grid.locate(times)
        out = np.zeros((self.size, times.size))
        out[idx, np.arange(times.size)] = 1.0
        return out

    def synthesize(self, coeffs, times) -> np.ndarray:
        """Piecewise-constant reconstruction: column ``locate(t)`` of ``coeffs``.

        A gather, bit-identical to the one-hot product
        ``coeffs @ evaluate(times)``: adding ``0.0`` turns ``-0.0`` into
        ``0.0`` as the product's sum does.
        """
        idx = self._grid.locate(np.atleast_1d(times))
        values = np.take(self._coefficient_array(coeffs), idx, axis=-1)
        values += 0.0
        return values

    def project(self, func: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        if self._projection == "midpoint":
            return np.asarray(func(self._grid.midpoints), dtype=float)
        mids = self._grid.midpoints
        half = 0.5 * self._grid.steps
        # times[i, q] = midpoint_i + half_i * node_q; average over each cell
        times = mids[:, None] + half[:, None] * _GL_NODES[None, :]
        values = np.asarray(func(times.ravel()), dtype=float).reshape(times.shape)
        return values @ (_GL_WEIGHTS / 2.0)

    def project_vector(self, func: Callable[[np.ndarray], np.ndarray], width: int) -> np.ndarray:
        """Project a vector-valued function in one evaluation pass.

        Overrides the row-by-row base implementation: ``func`` (which
        must return ``(width, len(times))`` values) is evaluated once at
        all quadrature times, so a ``width``-channel input costs the
        same number of function evaluations as a scalar one -- the hot
        path of warm :class:`~repro.engine.session.Simulator` runs.
        """
        if self._projection == "midpoint":
            values = np.asarray(func(self._grid.midpoints), dtype=float)
            if values.shape != (width, self.size):
                raise BasisError(
                    f"vector function must return ({width}, {self.size}) "
                    f"midpoint values, got {values.shape}"
                )
            return values
        mids = self._grid.midpoints
        half = 0.5 * self._grid.steps
        times = (mids[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        values = np.asarray(func(times), dtype=float)
        if values.shape != (width, times.size):
            raise BasisError(
                f"vector function must return ({width}, {times.size}) "
                f"quadrature values, got {values.shape}"
            )
        return values.reshape(width, self.size, _GL_NODES.size) @ (_GL_WEIGHTS / 2.0)

    def project_samples(self, samples) -> np.ndarray:
        """Coefficients from per-interval samples (identity layout check).

        ``samples`` of shape ``(size,)`` or ``(k, size)`` are taken as
        the block-pulse coefficients directly; this merely validates the
        trailing dimension.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.shape[-1] != self.size:
            raise BasisError(
                f"trailing dimension {samples.shape[-1]} != basis size {self.size}"
            )
        return samples

    # ------------------------------------------------------------------
    # operational matrices
    # ------------------------------------------------------------------
    @cached_operator
    def integration_matrix(self) -> np.ndarray:
        if self._grid.is_uniform:
            return integration_matrix(self.size, self._grid.h)
        return integration_matrix_adaptive(self._grid.steps)

    @cached_operator
    def differentiation_matrix(self) -> np.ndarray:
        if self._grid.is_uniform:
            return differentiation_matrix(self.size, self._grid.h)
        return differentiation_matrix_adaptive(self._grid.steps)

    @cached_operator
    def fractional_differentiation_matrix(self, alpha: float, *, method: str = "auto") -> np.ndarray:
        """``D^alpha`` -- series form on uniform grids (paper eq. (22)),
        eigendecomposition/Schur form on adaptive grids (paper eq. (25))."""
        alpha = check_fractional_order(alpha, allow_zero=True)
        if self._grid.is_uniform:
            return fractional_differentiation_matrix(alpha, self.size, self._grid.h)
        if alpha == 0.0:
            return np.eye(self.size)
        return fractional_differentiation_matrix_adaptive(alpha, self._grid.steps, method=method)

    @cached_operator
    def fractional_integration_matrix(self, alpha: float, *, construction: str = "tustin") -> np.ndarray:
        """Fractional integration matrix.

        ``construction='tustin'`` inverts the paper's ``D^alpha`` in the
        truncated ring; ``construction='rl'`` uses the classical
        Riemann-Liouville projection matrix (see
        :mod:`repro.opmat.rl_integral`).  Uniform grids only.
        """
        alpha = check_fractional_order(alpha, allow_zero=True)
        if not self._grid.is_uniform:
            raise BasisError("fractional integration matrices require a uniform grid")
        if construction == "tustin":
            return fractional_integration_matrix(alpha, self.size, self._grid.h)
        if construction == "rl":
            if alpha == 0.0:
                return np.eye(self.size)
            return rl_integration_matrix(alpha, self.size, self._grid.h)
        raise BasisError(f"construction must be 'tustin' or 'rl', got {construction!r}")
