"""Abstract interface for basis-function families.

Section I of the paper points out that OPM "can readily switch to using
other basis functions" -- block-pulse, Walsh, Haar, Legendre, Laguerre,
... -- each with its own merits.  This module fixes the contract those
families implement so the solvers can stay basis-agnostic.

A basis is a finite family ``psi_0, ..., psi_{m-1}`` on ``[0, T)``.  A
function is represented by its coefficient vector ``c`` with
``f(t) ~= sum_i c_i psi_i(t)``; matrices act on coefficients:

* ``integration_matrix()`` returns ``P`` with
  ``integral_0^t psi(tau) dtau ~= P psi(t)`` so integration maps
  coefficients ``c -> P^T c`` (paper eq. (3) for block pulses);
* ``differentiation_matrix()`` returns ``D`` with
  ``d/dt psi ~= D psi`` where that operator exists (paper eq. (7));
  polynomial bases raise :class:`~repro.errors.BasisError` because the
  from-zero derivative operator is not representable in the span (the
  derivative drops the initial-condition information), and the
  integral-form solver must be used instead.

Implementations must also provide ``evaluate`` / ``project`` /
``synthesize`` so the solvers can move between function space and
coefficient space.
"""

from __future__ import annotations

import abc
import functools
from typing import Callable

import numpy as np

from ..errors import BasisError

__all__ = ["BasisSet", "QuadratureProjectionMixin", "cached_operator"]


def cached_operator(method):
    """Memoise an operational-matrix builder per basis instance.

    Operational matrices depend only on the basis parameters and the
    call arguments, yet historically every ``integration_matrix()`` /
    ``fractional_integration_matrix(alpha)`` call re-ran the full
    construction.  Decorating a builder with ``cached_operator`` stores
    one result per ``(method, args, kwargs)`` signature on the instance,
    marks returned arrays read-only (they are shared between callers),
    and counts actual constructions in
    :attr:`BasisSet.operator_builds` -- which is what the engine's
    warm-session regression tests assert stays flat.
    """
    name = method.__name__

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        cache = self.__dict__.setdefault("_operator_cache", {})
        key = (name, tuple(float(a) if isinstance(a, (int, float)) else a for a in args),
               tuple(sorted(kwargs.items())))
        try:
            hit = cache.get(key)
        except TypeError:  # unhashable argument: build without caching
            return method(self, *args, **kwargs)
        if hit is None:
            hit = method(self, *args, **kwargs)
            if isinstance(hit, np.ndarray):
                hit.setflags(write=False)
            cache[key] = hit
            self.__dict__["_operator_builds"] = (
                self.__dict__.get("_operator_builds", 0) + 1
            )
        return hit

    return wrapper


class BasisSet(abc.ABC):
    """Common interface of all basis families in :mod:`repro.basis`."""

    # ------------------------------------------------------------------
    # identification
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of basis functions ``m``."""

    @property
    @abc.abstractmethod
    def t_end(self) -> float:
        """Right end of the span ``[0, t_end)``."""

    @property
    def name(self) -> str:
        """Short human-readable family name (class name by default)."""
        return type(self).__name__

    # ------------------------------------------------------------------
    # function-space <-> coefficient-space
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def evaluate(self, times) -> np.ndarray:
        """Evaluate all basis functions at ``times``.

        Returns an array of shape ``(size, len(times))`` whose row ``i``
        is ``psi_i`` sampled at the given times.
        """

    @abc.abstractmethod
    def project(self, func: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Best-approximation coefficients of a scalar function.

        ``func`` must accept a 1-D array of times and return the
        matching array of values.  Returns the coefficient vector of
        length ``size``.
        """

    def project_vector(self, func: Callable[[np.ndarray], np.ndarray], width: int) -> np.ndarray:
        """Project a vector-valued function component by component.

        ``func(times)`` must return an array of shape
        ``(width, len(times))``.  Returns coefficients of shape
        ``(width, size)`` -- the layout of the matrices ``U`` and ``X``
        in paper eqs. (10)-(11).
        """
        coeffs = np.empty((width, self.size))
        for row in range(width):
            coeffs[row] = self.project(lambda t, _row=row: np.asarray(func(t))[_row])
        return coeffs

    def synthesize(self, coeffs, times) -> np.ndarray:
        """Reconstruct function values from coefficients.

        ``coeffs`` carries the basis index on its trailing axis: a
        vector of length ``size`` (scalar function), a matrix
        ``(q, size)`` (vector function) or a stack ``(k, q, size)`` of
        runs; the result replaces that axis by ``len(times)``.
        """
        return self._coefficient_array(coeffs) @ self.evaluate(times)

    def _coefficient_array(self, coeffs) -> np.ndarray:
        """``coeffs`` as a float array whose trailing axis has ``size`` entries."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim == 0 or coeffs.shape[-1] != self.size:
            raise BasisError(
                f"coefficients need {self.size} entries on their last axis, "
                f"got shape {coeffs.shape}"
            )
        return coeffs

    # ------------------------------------------------------------------
    # operational matrices
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def integration_matrix(self) -> np.ndarray:
        """Operational matrix of integration ``P`` (``integral psi ~= P psi``)."""

    def differentiation_matrix(self) -> np.ndarray:
        """Operational matrix of differentiation ``D`` (``d psi/dt ~= D psi``).

        Raises
        ------
        BasisError
            If the family admits no differentiation operational matrix
            (polynomial bases; see the module docstring).
        """
        raise BasisError(f"{self.name} does not admit a differentiation operational matrix")

    def fractional_differentiation_matrix(self, alpha: float) -> np.ndarray:
        """Fractional differentiation matrix ``D^alpha``; optional."""
        raise BasisError(
            f"{self.name} does not implement fractional differentiation matrices"
        )

    def fractional_integration_matrix(self, alpha: float) -> np.ndarray:
        """Fractional integration matrix; optional."""
        raise BasisError(f"{self.name} does not implement fractional integration matrices")

    # ------------------------------------------------------------------
    # operator caching
    # ------------------------------------------------------------------
    @property
    def operator_builds(self) -> int:
        """Number of operational-matrix constructions actually performed.

        Calls served from the per-instance cache installed by
        :func:`cached_operator` do not increment this counter; a warm
        :class:`~repro.engine.session.Simulator` therefore keeps it
        flat across repeated ``run``/``sweep``/``march`` calls.
        """
        return self.__dict__.get("_operator_builds", 0)

    def clear_operator_cache(self) -> None:
        """Drop all cached operational matrices (testing/memory hook)."""
        self.__dict__.pop("_operator_cache", None)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @cached_operator
    def gram_matrix(self, n_quad: int = 256) -> np.ndarray:
        """Numerical Gram matrix ``G[i,j] = <psi_i, psi_j>`` on ``[0, t_end)``.

        Default implementation uses composite Gauss-Legendre quadrature
        with ``n_quad`` panels; orthogonal families override nothing and
        simply test ``G`` is (close to) diagonal.
        """
        nodes, weights = np.polynomial.legendre.leggauss(4)
        edges = np.linspace(0.0, self.t_end, n_quad + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        all_t = (mids[:, None] + half[:, None] * nodes[None, :]).ravel()
        all_w = (half[:, None] * weights[None, :]).ravel()
        vals = self.evaluate(all_t)
        return (vals * all_w) @ vals.T

    def __repr__(self) -> str:
        return f"{self.name}(m={self.size}, t_end={self.t_end:g})"


class QuadratureProjectionMixin:
    """Weighted-quadrature projection shared by the spectral families.

    Subclasses (Legendre, Chebyshev) set in ``__init__``:

    * ``_quad_t`` -- quadrature nodes on ``[0, t_end]``;
    * ``_quad_w`` -- matching weights (absorbing any weight function);
    * ``_quad_vander`` -- ``(m, n_quad)`` basis values at the nodes;
    * ``_norms`` -- squared norms ``<psi_i, psi_i>`` under the family's
      inner product.

    Projection is then one GEMM -- ``c = (f(t_q) * w) V^T / norms`` --
    and :meth:`project_values` is the value-space entry point the
    engine's hybrid marching (``OperatorBundle.history_matrix``) builds
    on.
    """

    @property
    def quadrature_times(self) -> np.ndarray:
        """Projection quadrature nodes on ``[0, t_end]``."""
        return self._quad_t

    def project(self, func: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Best-approximation coefficients of a scalar function."""
        return self.project_values(np.asarray(func(self._quad_t), dtype=float))

    def project_values(self, values) -> np.ndarray:
        """Coefficients from samples at :attr:`quadrature_times`.

        ``values`` has shape ``(..., n_quad)``; the quadrature weights
        and norms are applied along the trailing axis, so a whole stack
        of functions projects in one GEMM.
        """
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != self._quad_t.size:
            raise BasisError(
                f"values must have {self._quad_t.size} trailing samples "
                f"(one per quadrature node), got {values.shape}"
            )
        return (values * self._quad_w) @ self._quad_vander.T / self._norms

    def project_vector(self, func: Callable[[np.ndarray], np.ndarray], width: int) -> np.ndarray:
        """Project a vector-valued function in one evaluation pass."""
        values = np.asarray(func(self._quad_t), dtype=float)
        if values.shape != (width, self._quad_t.size):
            raise BasisError(
                f"vector function must return ({width}, {self._quad_t.size}) "
                f"quadrature values, got {values.shape}"
            )
        return self.project_values(values)
