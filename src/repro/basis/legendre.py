"""Shifted-Legendre polynomial basis.

The Legendre family is one of the smooth bases the paper lists as
alternatives to block pulses.  We use the shifted Legendre polynomials
``Ps_n(t) = P_n(2 t / T - 1)`` on ``[0, T]``, orthogonal with
``<Ps_i, Ps_j> = T / (2 i + 1) delta_ij``.

The operational matrix of integration is the classical tridiagonal-like
closed form derived from ``(2n+1) integral P_n = P_{n+1} - P_{n-1}``:

``integral_0^t Ps_0 = (T/2)(Ps_0 + Ps_1)``,
``integral_0^t Ps_n = (T/2) (Ps_{n+1} - Ps_{n-1}) / (2n + 1)``.

Polynomial bases admit **no** differentiation operational matrix in the
OPM sense: the derivative loses the constant term, i.e. the
integration-from-zero operator has no inverse on the span, so
:meth:`differentiation_matrix` raises and systems must be solved in the
integral formulation (the session's integral plan,
:class:`repro.engine.session._IntegralPlan`, which
``simulate_opm(system, u, LegendreBasis(t_end, m))`` runs).

Fractional integration matrices are built by exact Gauss-Jacobi
quadrature of the Riemann-Liouville integral of each basis polynomial
followed by projection -- a spectral analogue of the block-pulse RL
matrix of :mod:`repro.opmat.rl_integral`.
"""

from __future__ import annotations


import numpy as np

from .._validation import check_fractional_order, check_positive_float, check_positive_int
from .base import BasisSet, QuadratureProjectionMixin, cached_operator

__all__ = ["LegendreBasis"]


class LegendreBasis(QuadratureProjectionMixin, BasisSet):
    """Shifted Legendre polynomials ``Ps_0 .. Ps_{m-1}`` on ``[0, t_end]``.

    Examples
    --------
    >>> import numpy as np
    >>> basis = LegendreBasis(2.0, 4)
    >>> coeffs = basis.project(lambda t: 3.0 * t)   # linear function
    >>> np.round(coeffs, 12) + 0.0                  # 3t = 3 + 3*Ps_1(t)
    array([3., 3., 0., 0.])
    """

    def __init__(self, t_end: float, m: int, *, n_quad: int | None = None) -> None:
        self._t_end = check_positive_float(t_end, "t_end")
        self._m = check_positive_int(m, "m")
        self._n_quad = n_quad if n_quad is not None else max(64, 2 * m)
        nodes, weights = np.polynomial.legendre.leggauss(self._n_quad)
        # map [-1, 1] -> [0, T]
        self._quad_t = 0.5 * self._t_end * (nodes + 1.0)
        self._quad_w = 0.5 * self._t_end * weights
        self._norms = self._t_end / (2.0 * np.arange(self._m) + 1.0)
        # (m, n_quad) basis values at the quadrature nodes: the constant
        # factor of every projection (the warm-session hot path)
        self._quad_vander = np.polynomial.legendre.legvander(nodes, self._m - 1).T

    # ------------------------------------------------------------------
    # identification
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._m

    @property
    def t_end(self) -> float:
        return self._t_end

    @property
    def name(self) -> str:
        return "Legendre"

    # ------------------------------------------------------------------
    # function-space <-> coefficient-space
    # ------------------------------------------------------------------
    def evaluate(self, times) -> np.ndarray:
        t = np.atleast_1d(np.asarray(times, dtype=float))
        x = 2.0 * t / self._t_end - 1.0
        return np.polynomial.legendre.legvander(x, self._m - 1).T

    # projection: QuadratureProjectionMixin (Gauss-Legendre nodes)

    # ------------------------------------------------------------------
    # operational matrices
    # ------------------------------------------------------------------
    @cached_operator
    def integration_matrix(self) -> np.ndarray:
        """Classical shifted-Legendre integration matrix (see module docs)."""
        m = self._m
        p = np.zeros((m, m))
        half_t = self._t_end / 2.0
        p[0, 0] = half_t
        if m > 1:
            p[0, 1] = half_t
        for n in range(1, m):
            coeff = half_t / (2.0 * n + 1.0)
            if n + 1 < m:
                p[n, n + 1] = coeff
            p[n, n - 1] = -coeff
        return p

    @cached_operator
    def fractional_integration_matrix(self, alpha: float) -> np.ndarray:
        """Spectral RL fractional-integration matrix via Gauss-Jacobi quadrature.

        Row ``i`` holds the Legendre coefficients of
        ``I^alpha Ps_i (t) = t^alpha / Gamma(alpha)
        * integral_0^1 (1-s)^{alpha-1} Ps_i(t s) ds``,
        with the inner integral evaluated exactly (for polynomial
        integrands) by Gauss-Jacobi quadrature with weight
        ``(1-s)^{alpha-1}``.
        """
        from scipy.special import gamma as gamma_fn, roots_jacobi

        alpha = check_fractional_order(alpha, allow_zero=True)
        if alpha == 0.0:
            return np.eye(self._m)
        n_jac = self._m + 2
        jac_nodes, jac_weights = roots_jacobi(n_jac, alpha - 1.0, 0.0)
        s_nodes = 0.5 * (jac_nodes + 1.0)  # on [0, 1]
        jac_scale = 2.0**-alpha

        # I^alpha Ps_i evaluated at the projection quadrature times.
        t = self._quad_t  # (nq,)
        # inner[i, q] = integral_0^1 (1-s)^{alpha-1} Ps_i(t_q * s) ds
        ts = t[None, :, None] * s_nodes[None, None, :]  # (1, nq, nj)
        x = 2.0 * ts / self._t_end - 1.0
        vander = np.polynomial.legendre.legvander(x.reshape(-1, n_jac), self._m - 1)
        vander = vander.reshape(t.size, n_jac, self._m)  # (nq, nj, m)
        inner = np.einsum("qjm,j->mq", vander, jac_weights) * jac_scale
        frac_vals = (t[None, :] ** alpha) / gamma_fn(alpha) * inner  # (m, nq)

        basis_vals = self.evaluate(t)  # (m, nq)
        norms = self._t_end / (2.0 * np.arange(self._m) + 1.0)
        return (frac_vals * self._quad_w) @ basis_vals.T / norms[None, :]
