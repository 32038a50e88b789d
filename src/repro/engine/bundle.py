"""Basis-generic operator plans: the :class:`OperatorBundle` layer.

The paper's algorithm is defined over *any* orthogonal-function
operational matrix, but the engine built in earlier iterations was
hardwired to block pulses.  This module is the seam that removes that
assumption: an :class:`OperatorBundle` wraps one
:class:`~repro.basis.base.BasisSet` together with

* its *solver route* (:attr:`OperatorBundle.kind`):

  - ``'block-pulse'`` -- the paper's triangular Toeplitz / adaptive
    sweeps (:class:`~repro.basis.block_pulse.BlockPulseBasis`);
  - ``'pwconst'`` -- Walsh/Haar families, solved in block-pulse
    coordinates through the exact change of basis and transformed at
    the session boundary;
  - ``'toeplitz'`` -- the Laguerre functions, whose Tustin-form
    operational matrices are upper Toeplitz, so the very same column
    sweep applies with different coefficients;
  - ``'spectral'`` -- polynomial bases (Chebyshev, Legendre, and any
    user-defined :class:`BasisSet`), solved in the integral
    formulation by a column sweep in the Schur coordinates of the
    integration matrix (one cached pencil factorisation per Schur
    diagonal entry);

* cached access to the operational matrices it needs (delegating to
  the per-instance caches installed by
  :func:`~repro.basis.base.cached_operator`);
* the *history matrices* of hybrid-function marching: for a spectral
  window basis, ``history_matrix(alpha, lag)`` is the operational
  matrix mapping a past window's coefficients to the
  Riemann-Liouville memory it exerts ``lag`` windows later -- the
  construction of Damarla & Kundu's orthogonal hybrid functions;
* a content-based :meth:`OperatorBundle.fingerprint` identifying the
  basis (equal bases fingerprint equal, regardless of instance), for
  callers who key external caches -- shared bundles, memoised session
  factories -- by basis identity.

:func:`resolve_basis` maps user-facing specifications -- a family name
such as ``"chebyshev"`` or a ready-made :class:`BasisSet` instance --
to a basis bound to the session grid, with typo suggestions.
"""

from __future__ import annotations

import difflib

import numpy as np

from ..basis import (
    BasisSet,
    BlockPulseBasis,
    ChebyshevBasis,
    HaarBasis,
    LaguerreBasis,
    LegendreBasis,
    TimeGrid,
    WalshBasis,
)
from ..basis.pwconst import PiecewiseConstantBasis
from ..errors import BasisError
from . import assembly

__all__ = [
    "BASIS_FAMILIES",
    "OperatorBundle",
    "basis_names",
    "resolve_basis",
    "validate_basis_name",
]


def _make_block_pulse(grid: TimeGrid) -> BasisSet:
    return BlockPulseBasis(grid)


def _make_pwconst(cls):
    def make(grid: TimeGrid) -> BasisSet:
        if not grid.is_uniform:
            raise BasisError(
                f"{cls.__name__} requires a uniform grid (its transform acts "
                "on equal block pulses); use basis='block-pulse' for adaptive grids"
            )
        return cls(grid.t_end, grid.m)

    return make


def _make_spectral(cls):
    def make(grid: TimeGrid) -> BasisSet:
        if not grid.is_uniform:
            raise BasisError(
                f"{cls.__name__} is grid-free (only the span and the number "
                "of coefficients are used) and cannot honour adaptive "
                "spacing; pass a uniform grid or a (t_end, m) tuple"
            )
        return cls(grid.t_end, grid.m)

    return make


def _make_laguerre(grid: TimeGrid) -> BasisSet:
    raise BasisError(
        "the Laguerre family needs an explicit time scale: pass a "
        "LaguerreBasis(a, m) instance instead of the name 'laguerre' "
        "(choose a of the order of the dominant system pole)"
    )


#: Registered basis families: name -> factory(grid).
BASIS_FAMILIES = {
    "block-pulse": _make_block_pulse,
    "bpf": _make_block_pulse,
    "walsh": _make_pwconst(WalshBasis),
    "haar": _make_pwconst(HaarBasis),
    "legendre": _make_spectral(LegendreBasis),
    "chebyshev": _make_spectral(ChebyshevBasis),
    "laguerre": _make_laguerre,
}


def basis_names() -> tuple:
    """Sorted names accepted by ``basis=`` throughout the engine/CLI."""
    return tuple(sorted(BASIS_FAMILIES))


def validate_basis_name(name: str) -> str:
    """Normalise a basis family name, raising with suggestions on typos."""
    key = str(name).strip().lower().replace("_", "-").replace(" ", "-")
    if key in BASIS_FAMILIES:
        return key
    close = difflib.get_close_matches(key, BASIS_FAMILIES, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    raise BasisError(
        f"unknown basis {name!r}{hint}; choose from {basis_names()} "
        "or pass a BasisSet instance"
    )


def resolve_basis(spec, grid: TimeGrid | None = None) -> BasisSet:
    """Resolve a basis specification to a :class:`BasisSet`.

    Parameters
    ----------
    spec:
        ``None`` (block pulse, the paper's default), a family name from
        :func:`basis_names`, or a ready-made :class:`BasisSet` instance
        (returned unchanged).
    grid:
        The session grid the named family is bound to (required for
        names, ignored for instances).  Named families project with
        their default rule; an instance carries its own (e.g.
        ``BlockPulseBasis(grid, projection="midpoint")``).
    """
    if isinstance(spec, BasisSet):
        return spec
    if spec is None:
        spec = "block-pulse"
    if not isinstance(spec, str):
        raise TypeError(
            f"basis must be a family name or a BasisSet instance, "
            f"got {type(spec).__name__}"
        )
    key = validate_basis_name(spec)
    if grid is None:
        raise BasisError(f"a grid is required to build the {key!r} basis by name")
    return BASIS_FAMILIES[key](grid)


class OperatorBundle:
    """One basis plus everything the engine caches about it.

    Thin, stateless-looking wrapper: the heavy objects (operational
    matrices, history matrices) are memoised either on the basis
    instance (via :func:`~repro.basis.base.cached_operator`) or on the
    bundle itself, so repeated ``run``/``sweep``/``march`` calls on a
    warm session rebuild nothing.
    """

    def __init__(self, basis: BasisSet) -> None:
        if not isinstance(basis, BasisSet):
            raise TypeError(f"basis must be a BasisSet, got {type(basis).__name__}")
        self.basis = basis
        if isinstance(basis, BlockPulseBasis):
            self.kind = "block-pulse"
        elif isinstance(basis, PiecewiseConstantBasis):
            self.kind = "pwconst"
        elif isinstance(basis, LaguerreBasis):
            self.kind = "toeplitz"
        else:
            self.kind = "spectral"
        self._cache: dict = {}

    # ------------------------------------------------------------------
    # identification
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.basis.size

    @property
    def t_end(self) -> float:
        return self.basis.t_end

    @property
    def name(self) -> str:
        return self.basis.name

    @property
    def grid(self) -> TimeGrid | None:
        """The underlying :class:`TimeGrid` for grid-based kinds, else ``None``."""
        if self.kind == "block-pulse":
            return self.basis.grid
        if self.kind == "pwconst":
            return self.basis.block_pulse.grid
        return None

    @property
    def solver_bundle(self) -> "OperatorBundle":
        """The bundle the column sweep actually runs in.

        Walsh/Haar sessions solve in block-pulse coordinates (the exact
        change of basis preserves triangularity); every other kind
        solves in its own basis.
        """
        if self.kind == "pwconst":
            inner = self._cache.get("solver_bundle")
            if inner is None:
                inner = OperatorBundle(self.basis.block_pulse)
                self._cache["solver_bundle"] = inner
            return inner
        return self

    @property
    def transform(self) -> np.ndarray | None:
        """Change-of-basis matrix ``W`` for ``pwconst`` kinds, else ``None``."""
        if self.kind == "pwconst":
            return self.basis.transform
        return None

    @property
    def supports_march(self) -> bool:
        """Whether windowed marching is defined for this family.

        Laguerre functions live on ``[0, inf)`` -- there is no finite
        window to tile -- so only finite-horizon families march.
        """
        return np.isfinite(self.t_end)

    def fingerprint(self) -> tuple:
        """Content-based identity of the basis for cache keying.

        Covers everything that changes projection or operator content:
        family, size, span, projection rule (block-pulse-backed
        families), and quadrature order (spectral families).
        """
        basis = self.basis
        if self.kind == "block-pulse":
            return (
                "block-pulse",
                basis.size,
                basis.grid.edges.tobytes(),
                basis.projection,
            )
        if self.kind == "pwconst":
            return (basis.name, basis.size, basis.t_end, basis.projection)
        if self.kind == "toeplitz":
            return ("laguerre", basis.size, basis.a)
        return (
            type(basis).__module__,
            type(basis).__qualname__,
            basis.size,
            basis.t_end,
            getattr(basis, "_n_quad", None),
        )

    # ------------------------------------------------------------------
    # operational matrices
    # ------------------------------------------------------------------
    def integration_matrix(self) -> np.ndarray:
        """Operational matrix of integration (cached on the basis)."""
        return self.basis.integration_matrix()

    def fractional_integration_matrix(self, alpha: float) -> np.ndarray:
        """Fractional integration matrix ``I^alpha`` (cached on the basis).

        ``alpha = 1`` routes to the classical integration matrix so the
        spectral plan has one uniform entry point for every order.
        """
        if alpha == 1.0:
            return self.basis.integration_matrix()
        return self.basis.fractional_integration_matrix(alpha)

    def toeplitz_coefficients(self, alpha: float) -> np.ndarray:
        """First-row coefficients of the upper-Toeplitz ``D^alpha``.

        Only defined for the Toeplitz solver routes: uniform block-pulse
        grids (paper eq. (22), shared process-wide memo) and Laguerre
        functions (exact Tustin series with ``2/h -> a``).
        """
        if self.kind == "block-pulse":
            grid = self.basis.grid
            if not grid.is_uniform:
                raise BasisError(
                    "Toeplitz coefficients require a uniform block-pulse grid"
                )
            return assembly.toeplitz_coefficients(alpha, grid.m, grid.h)
        if self.kind == "toeplitz":
            # the basis owns (and caches) its Tustin coefficient formula
            return self.basis.fractional_differentiation_coefficients(alpha)
        raise BasisError(
            f"{self.name} has no Toeplitz differentiation coefficients; "
            "it is solved in the integral formulation"
        )

    def ones_coefficients(self) -> np.ndarray:
        """Coefficients of the constant function ``1`` in this basis.

        Block pulses (and their Walsh/Haar transforms handled through
        the block-pulse solver bundle) represent constants exactly as
        the all-ones vector; other families project once and cache.
        """
        ones = self._cache.get("ones")
        if ones is None:
            if self.kind == "block-pulse":
                ones = np.ones(self.size)
            else:
                ones = self.basis.project(lambda t: np.ones_like(t))
            ones.setflags(write=False)
            self._cache["ones"] = ones
        return ones

    def terminal_vector(self) -> np.ndarray:
        """Synthesis weights for the right-edge value ``f(t_end)``.

        ``coeffs @ terminal_vector()`` evaluates the expansion at the
        window end -- exact for polynomial bases, used by classical
        hybrid marching to carry the state across windows.
        """
        vec = self._cache.get("terminal")
        if vec is None:
            vec = self.basis.evaluate(np.array([self.t_end]))[:, 0].copy()
            vec.setflags(write=False)
            self._cache["terminal"] = vec
        return vec

    # ------------------------------------------------------------------
    # hybrid-function marching: fractional history matrices
    # ------------------------------------------------------------------
    def history_matrix(self, alpha: float, lag: int) -> np.ndarray:
        """Memory operator of a past window at distance ``lag`` windows.

        Row ``i`` holds this basis' coefficients of the function

        .. math::

            h_i(\\tau) = \\frac{1}{\\Gamma(\\alpha)} \\int_0^W
                (\\mathrm{lag}\\cdot W + \\tau - \\sigma)^{\\alpha-1}
                \\psi_i(\\sigma)\\, d\\sigma,

        i.e. the Riemann-Liouville ``I^alpha`` memory that window
        ``k - lag`` (expanded in ``psi``) exerts on window ``k`` at
        local time ``tau``.  With these matrices the fractional memory
        tail of hybrid-function marching is a handful of GEMMs per
        window: ``tail_k = sum_l (A Z_{k-l} + R_{k-l}) H_l``.

        Computed by quadrature at the basis' own projection nodes --
        plain Gauss-Legendre for ``lag >= 2`` (smooth kernel), a
        dyadically graded composite rule for ``lag == 1`` (the kernel
        steepens like ``tau^(alpha-1)`` toward the shared boundary) --
        then projected with :meth:`project_values`.  Cached per
        ``(alpha, lag)``.
        """
        if lag < 1:
            raise BasisError(f"history lag must be >= 1, got {lag}")
        key = ("history", float(alpha), int(lag))
        H = self._cache.get(key)
        if H is not None:
            return H
        basis = self.basis
        if not hasattr(basis, "quadrature_times") or not hasattr(basis, "project_values"):
            raise BasisError(
                f"{self.name} does not expose quadrature_times/project_values; "
                "fractional hybrid marching needs both"
            )
        W = self.t_end
        tau = np.asarray(basis.quadrature_times, dtype=float)
        m = self.size
        if lag >= 2:
            # smooth kernel: composite Gauss-Legendre in sigma
            ng = max(64, 2 * m)
            nodes, weights = np.polynomial.legendre.leggauss(ng)
            sigma = 0.5 * W * (nodes + 1.0)
            ws = 0.5 * W * weights
            psi = basis.evaluate(sigma)  # (m, ng)
            kernel = (lag * W + tau[:, None] - sigma[None, :]) ** (alpha - 1.0)
            vals = psi @ (kernel * ws[None, :]).T  # (m, nq)
        else:
            # adjacent window: integrate in u = W + tau - sigma over
            # [tau, W + tau] with dyadic panels graded toward u = tau,
            # where u^(alpha-1) varies fastest.  Basis functions are
            # only ever evaluated inside [0, W].
            gl_nodes, gl_weights = np.polynomial.legendre.leggauss(16)
            vals = np.empty((m, tau.size))
            for q, t_q in enumerate(tau):
                panels = []
                top = W + float(t_q)
                # custom bases may place a quadrature node at tau = 0
                # (Lobatto-style); the integrand mass below top*1e-15
                # is O((top*1e-15)^alpha) -- negligible -- and a strictly
                # positive start keeps the dyadic refinement finite
                a = max(float(t_q), top * 1e-15)
                while a < top:
                    b = min(2.0 * a, top)
                    panels.append((a, b))
                    a = b
                u_nodes = np.concatenate(
                    [0.5 * (b - a) * (gl_nodes + 1.0) + a for a, b in panels]
                )
                u_weights = np.concatenate(
                    [0.5 * (b - a) * gl_weights for a, b in panels]
                )
                sigma = W + float(t_q) - u_nodes  # inside [0, W]
                psi = basis.evaluate(sigma)  # (m, nodes)
                vals[:, q] = psi @ (u_weights * u_nodes ** (alpha - 1.0))
        from scipy.special import gamma as gamma_fn

        vals = vals / gamma_fn(alpha)
        H = np.asarray(basis.project_values(vals), dtype=float)
        H.setflags(write=False)
        self._cache[key] = H
        return H

    def __repr__(self) -> str:
        return f"OperatorBundle({self.basis!r}, kind={self.kind!r})"
