"""Pluggable fractional-operator discretisations (the method zoo).

The paper's operational-matrix route is one of several competing
discretisations of the fractional integral ``I^alpha``.  This module
implements the alternatives ROADMAP calls for as *pluggable methods*:
each :class:`FractionalMethod` builds, for one
:class:`~repro.engine.bundle.OperatorBundle` and one order ``alpha``,
the ``m x m`` coefficient-space operator ``F`` with

.. math::  \\text{coeffs}(I^\\alpha f) = c\\, F

(the row-vector convention of the engine's integral formulation, so a
causal operator is *upper* triangular under right-multiplication).
The engine then solves ``E Z = A Z F + R F`` through exactly the same
cached-pencil machinery as the spectral bases (see
:class:`repro.engine.session._IntegralPlan`): a triangular column sweep
with one ``E - F[j, j] A`` factorisation per distinct diagonal entry
when ``F`` is upper triangular (GL, Oustaloup: one in total), and the
same sweep in the real Schur coordinates ``F = Q T Q^T`` otherwise
(``jacobi``: one factorisation per real eigenvalue or conjugate pair).

Registered methods
------------------
``'gl'``
    Grünwald-Letnikov convolution quadrature (Podlubny 1999, ch. 7):
    ``F`` is the upper-triangular Toeplitz matrix of the binomial
    weights of ``(1 - z)^{-alpha}`` scaled by ``h^alpha``.  First-order
    accurate; block-pulse/Walsh/Haar coordinates.
``'oustaloup'``
    Band-limited Oustaloup recursive rational approximation of
    ``s^{-alpha}`` (Oustaloup et al. 2000; the CFE/rational family of
    Dorčák & Petráš), Tustin-discretised on the session grid: ``F`` is
    the Toeplitz matrix of the cascade's impulse response, with integer
    parts split off exactly (``F = F_frac M^n`` for ``alpha = n +
    frac``).  Accuracy is set by the section count and fit band, not
    the grid -- the classic controls-community route.
``'jacobi'``
    Jacobi-Gauss *collocation* fractional integration matrix in the
    spirit of Zeng & Li's spectral differentiation matrices: the
    fractional integral of each Lagrange cardinal polynomial on the
    Jacobi-Gauss nodes is evaluated exactly (inner Gauss-Jacobi rule
    with weight ``(1-s)^{alpha-1}``), then re-expanded in the session's
    spectral basis.  Distinct from the engine's native Galerkin
    ``fractional_integration_matrix`` (an L2 projection): this is the
    nodal/interpolatory construction.

``'opm'`` names the engine's native operational-matrix route and is
accepted everywhere a method name is; :func:`resolve_method` maps it to
``None`` (no zoo plan).

:func:`validate_method_name` gives every front door (``Simulator``,
``dispatch.simulate``, deck ``.options method=``, CLI ``--method``,
service requests) the same typo-suggesting validation UX as basis
names (see :func:`repro.engine.bundle.validate_basis_name`).
"""

from __future__ import annotations

import difflib
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SolverError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> here)
    from ..engine.bundle import OperatorBundle

__all__ = [
    "FractionalMethod",
    "GrunwaldLetnikovMethod",
    "OustaloupMethod",
    "JacobiMethod",
    "FRACTIONAL_METHODS",
    "NATIVE_METHOD",
    "method_names",
    "normalise_method_name",
    "unknown_method_message",
    "validate_method_name",
    "resolve_method",
    "gl_integration_weights",
]

#: The engine's own operational-matrix route (not a zoo entry).
NATIVE_METHOD = "opm"


def gl_integration_weights(alpha: float, m: int) -> np.ndarray:
    """First ``m`` Grünwald-Letnikov *integration* weights.

    The coefficients ``w_k`` of ``(1 - z)^{-alpha}``: ``w_0 = 1`` and
    ``w_k = w_{k-1} (alpha + k - 1) / k``, so that ``(I^alpha f)(t_j)
    ~= h^alpha sum_k w_k f(t_{j-k})``.

    >>> gl_integration_weights(1.0, 4).tolist()  # plain summation
    [1.0, 1.0, 1.0, 1.0]
    """
    if m < 1:
        raise SolverError(f"need at least one GL weight, got m={m}")
    w = np.empty(int(m))
    w[0] = 1.0
    if m > 1:
        k = np.arange(1, int(m), dtype=float)
        w[1:] = np.cumprod((float(alpha) + k - 1.0) / k)
    return w


class FractionalMethod:
    """One pluggable discretisation of the fractional integral.

    Subclasses set the identifying attributes and implement
    :meth:`integration_operator`.  Instances are stateless apart from
    their construction parameters, which enter :meth:`fingerprint` so
    differently parameterised methods never unify in a keyed cache.
    """

    #: registry key (also what ``info['method']`` reports)
    name: str = ""
    #: one-line description for tables / error messages
    summary: str = ""
    #: literature origin
    citation: str = ""
    #: solver-bundle kinds the construction supports
    routes: tuple = ("block-pulse",)
    #: basis family bound when the caller leaves ``basis=None``
    #: (``None``: the engine's block-pulse default)
    default_basis: str | None = None

    def params(self) -> tuple:
        """Construction parameters (the method's fingerprint payload)."""
        return ()

    def fingerprint(self) -> tuple:
        """Content key: name plus construction parameters."""
        return (self.name, *self.params())

    def check_bundle(self, bundle: "OperatorBundle") -> None:
        """Reject solver bundles the construction does not support."""
        if bundle.kind not in self.routes:
            if "spectral" in self.routes:
                fix = (
                    f"use basis={self.default_basis!r} (the default) or "
                    "another spectral family"
                )
            else:
                fix = "use the block-pulse default (or walsh/haar)"
            raise SolverError(
                f"method {self.name!r} solves on {self.routes} bundles, not "
                f"the {bundle.name} basis ({bundle.kind!r}); {fix}"
            )

    def integration_operator(
        self, bundle: "OperatorBundle", alpha: float
    ) -> np.ndarray:
        """The ``m x m`` coefficient-space operator of ``I^alpha``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        params = ", ".join(repr(p) for p in self.params())
        return f"{type(self).__name__}({params})"


def _uniform_grid(bundle: "OperatorBundle", name: str):
    grid = bundle.grid
    if grid is None or not grid.is_uniform:
        raise SolverError(
            f"method {name!r} builds a Toeplitz convolution operator and "
            "requires a uniform grid"
        )
    return grid


class GrunwaldLetnikovMethod(FractionalMethod):
    """Grünwald-Letnikov convolution-quadrature integration operator.

    The same quadrature the ``'grunwald-letnikov'`` *time stepper*
    baseline uses, but assembled as an operational matrix and solved
    through the engine's cached-pencil column sweep -- so warm-session
    reuse, batched sweeps, and the service cache all apply.
    """

    name = "gl"
    summary = "Grünwald-Letnikov convolution quadrature (Toeplitz F)"
    citation = "Podlubny (1999), ch. 7"
    routes = ("block-pulse",)

    def integration_operator(self, bundle, alpha: float) -> np.ndarray:
        from ..opmat.nilpotent import upper_toeplitz

        self.check_bundle(bundle)
        grid = _uniform_grid(bundle, self.name)
        g = grid.h ** float(alpha) * gl_integration_weights(alpha, grid.m)
        return upper_toeplitz(g)


class OustaloupMethod(FractionalMethod):
    """Band-limited Oustaloup rational approximation of ``s^{-alpha}``.

    ``N`` first-order sections with zeros/poles log-spaced over
    ``[w_b, w_h]`` approximate ``s^{-frac}`` (Oustaloup et al. 2000);
    the cascade is Tustin-discretised on the session grid and its
    impulse response becomes the Toeplitz operator.  Integer parts are
    split off exactly: ``F = F_frac M^n`` with ``M`` the bundle's exact
    integration matrix.  Parameters:

    sections:
        Section count ``N`` (default 12); in-band ripple shrinks as
        ``N`` grows.
    band:
        ``(w_b, w_h)`` fit band in rad/s.  Default: ``2 pi / (50
        t_end)`` up to the grid Nyquist rate ``pi / h`` -- covering the
        frequencies the session grid can represent.
    """

    name = "oustaloup"
    summary = "Oustaloup/CFE band-limited rational fit of s^-alpha"
    citation = "Oustaloup et al. (2000); Dorčák & Petráš"
    routes = ("block-pulse",)

    def __init__(self, sections: int = 12, band: tuple | None = None) -> None:
        self.sections = int(sections)
        if self.sections < 1:
            raise SolverError(
                f"oustaloup needs at least one section, got {sections}"
            )
        if band is not None:
            lo, hi = float(band[0]), float(band[1])
            if not (0.0 < lo < hi):
                raise SolverError(
                    f"oustaloup band must satisfy 0 < w_b < w_h, got {band}"
                )
            band = (lo, hi)
        self.band = band

    def params(self) -> tuple:
        return (self.sections, self.band)

    def integration_operator(self, bundle, alpha: float) -> np.ndarray:
        from ..opmat.nilpotent import upper_toeplitz

        self.check_bundle(bundle)
        grid = _uniform_grid(bundle, self.name)
        n_int = int(np.floor(float(alpha)))
        frac = float(alpha) - n_int
        if frac == 0.0:
            # pure integer order: the exact operational matrix
            return np.linalg.matrix_power(
                np.asarray(bundle.integration_matrix(), dtype=float), n_int
            )
        F = upper_toeplitz(self._impulse_response(frac, grid.m, grid.h))
        if n_int:
            F = F @ np.linalg.matrix_power(
                np.asarray(bundle.integration_matrix(), dtype=float), n_int
            )
        return F

    def _impulse_response(self, frac: float, m: int, h: float) -> np.ndarray:
        """Impulse response of the Tustin-discretised section cascade."""
        from scipy.signal import lfilter  # slow to import; only used here

        if self.band is not None:
            w_lo, w_hi = self.band
        else:
            w_lo = 2.0 * np.pi / (50.0 * m * h)
            w_hi = np.pi / h
        gamma = -frac  # the approximated exponent of s^gamma
        N = self.sections
        k = np.arange(1, N + 1, dtype=float)
        ratio = w_hi / w_lo
        zeros = w_lo * ratio ** ((2.0 * k - 1.0 - gamma) / (2.0 * N))
        poles = w_lo * ratio ** ((2.0 * k - 1.0 + gamma) / (2.0 * N))
        signal = np.zeros(m)
        signal[0] = w_hi**gamma
        c = 2.0 / h  # Tustin: s -> c (1 - q) / (1 + q)
        for z, p in zip(zeros, poles):
            signal = lfilter([c + z, z - c], [c + p, p - c], signal)
        return signal


class JacobiMethod(FractionalMethod):
    """Jacobi-Gauss collocation fractional integration matrix.

    Nodal construction on the Jacobi-Gauss points ``x_q`` of
    ``P_m^{(a,b)}`` mapped to ``(0, t_end)``: the fractional integral
    of each Lagrange cardinal polynomial,

    .. math::  (I^\\alpha \\ell_r)(x_q) = \\frac{x_q^\\alpha}
        {\\Gamma(\\alpha)} \\int_0^1 (1-s)^{\\alpha-1}
        \\ell_r(x_q s)\\, ds,

    is evaluated *exactly* by an inner Gauss-Jacobi rule with weight
    ``(1-s)^{alpha-1}``, and the nodal map is conjugated into the
    session basis's coefficient space: ``F = V L^T V^{-1}`` with
    ``V[i, q] = psi_i(x_q)``.  This is the interpolatory analogue of
    Zeng & Li's fractional differentiation matrices -- deliberately
    distinct from the engine's native Galerkin (L2-projected)
    fractional integration matrix, which is what makes it a genuine
    cross-check.
    """

    name = "jacobi"
    summary = "Jacobi-Gauss spectral collocation integration matrix"
    citation = "Zeng & Li (2015), fractional differentiation matrices"
    routes = ("spectral",)
    default_basis = "legendre"

    def __init__(self, jacobi_a: float = 0.0, jacobi_b: float = 0.0) -> None:
        if jacobi_a <= -1.0 or jacobi_b <= -1.0:
            raise SolverError(
                f"Jacobi parameters must exceed -1, got ({jacobi_a}, {jacobi_b})"
            )
        self.jacobi_a = float(jacobi_a)
        self.jacobi_b = float(jacobi_b)

    def params(self) -> tuple:
        return (self.jacobi_a, self.jacobi_b)

    def integration_operator(self, bundle, alpha: float) -> np.ndarray:
        from numpy.polynomial import legendre as npleg
        from scipy.special import gamma as gamma_function, roots_jacobi

        self.check_bundle(bundle)
        alpha = float(alpha)
        if alpha <= 0.0:
            raise SolverError(f"alpha must be positive, got {alpha:g}")
        basis = bundle.basis
        m = bundle.size
        t_end = float(basis.t_end)
        # collocation nodes: Jacobi-Gauss points mapped to (0, t_end)
        x_ref = roots_jacobi(m, self.jacobi_a, self.jacobi_b)[0]
        nodes = 0.5 * t_end * (x_ref + 1.0)
        # inner rule: exact for the degree-(m-1) cardinal polynomials
        n_inner = m + 2
        t_ref, w_ref = roots_jacobi(n_inner, alpha - 1.0, 0.0)
        s = 0.5 * (t_ref + 1.0)
        w = w_ref * 2.0**-alpha
        # Lagrange cardinals through a Legendre modal representation
        # (well conditioned at Gauss nodes); ref() maps to [-1, 1]
        ref = lambda t: 2.0 * t / t_end - 1.0
        V_nodes = npleg.legvander(ref(nodes), m - 1)  # (m, m)
        pts = nodes[:, None] * s[None, :]  # (m, n_inner)
        V_pts = npleg.legvander(ref(pts.ravel()), m - 1)
        cardinals = np.linalg.solve(V_nodes.T, V_pts.T).T  # ell_r(pts)
        L = np.einsum(
            "qjr,j->qr", cardinals.reshape(m, n_inner, m), w
        ) * (nodes**alpha / gamma_function(alpha))[:, None]
        # conjugate the nodal map into coefficient space: c -> c V L^T V^-1
        V = np.asarray(basis.evaluate(nodes), dtype=float)  # (m, m)
        return np.linalg.solve(V.T, (V @ L.T).T).T


#: Registered zoo methods, by name (``'opm'`` is the native route and
#: deliberately not an entry -- see :data:`NATIVE_METHOD`).
FRACTIONAL_METHODS: dict = {
    method.name: method
    for method in (GrunwaldLetnikovMethod(), OustaloupMethod(), JacobiMethod())
}


def method_names(*, include_native: bool = True) -> tuple:
    """Method names accepted by ``Simulator(method=...)`` (sorted zoo
    names, with the native ``'opm'`` first by default)."""
    names = tuple(sorted(FRACTIONAL_METHODS))
    return ((NATIVE_METHOD,) + names) if include_native else names


def normalise_method_name(name) -> str:
    """Canonical key form of a method name (case/space/underscore-blind)."""
    return str(name).strip().lower().replace("_", "-").replace(" ", "-")


def unknown_method_message(name, valid, *, context: str = "method") -> str:
    """The shared unknown-method diagnostic: did-you-mean plus the full
    registered list (mirroring basis-name validation)."""
    valid = tuple(valid)
    close = difflib.get_close_matches(normalise_method_name(name), valid, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return f"unknown {context} {name!r}{hint}; choose from {valid}"


def validate_method_name(
    name, valid=None, *, context: str = "method", error=SolverError
) -> str:
    """Normalise a method name against ``valid`` (default: ``'opm'``
    plus the registered zoo), raising ``error`` with a typo suggestion
    and the full list on unknown names."""
    allowed = tuple(valid) if valid is not None else method_names()
    key = normalise_method_name(name)
    if key in allowed:
        return key
    raise error(unknown_method_message(name, allowed, context=context))


def resolve_method(spec):
    """Resolve a ``method=`` specification for the engine session.

    ``None`` / ``'opm'`` -> ``None`` (the native route); a registered
    name -> its :class:`FractionalMethod`; a ready instance is passed
    through (custom parameterisations); anything else raises with the
    shared did-you-mean diagnostic.
    """
    if spec is None:
        return None
    if isinstance(spec, FractionalMethod):
        return spec
    key = validate_method_name(spec)
    if key == NATIVE_METHOD:
        return None
    return FRACTIONAL_METHODS[key]
