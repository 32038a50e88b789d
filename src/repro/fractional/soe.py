"""Sum-of-exponentials (SOE) compression of fractional memory kernels.

Every fractional solve in this package is a discrete convolution with a
power-law kernel: the windowed march GEMMs the *entire* solved history
against the block-pulse Toeplitz coefficients
(:class:`~repro.fractional.history.HistoryTail`), the GL stepper dots
every past state against the binomial weights, and the spectral march
convolves per-lag Riemann-Liouville operators over all previous
windows.  A horizon of ``W`` windows therefore costs ``O(W^2)``.

This module removes that quadratic wall the way the rational-
approximation literature treats ``s^alpha`` (Oustaloup / CFE filters),
applied at the *memory* level: the smooth far part of the kernel is
fitted by a short exponential mixture

.. math::  w_d \\approx \\sum_p c_p \\lambda_p^d
           \\qquad (|\\lambda_p| < 1),

so the contribution of all sufficiently old history collapses into one
``(n, P)`` matrix of *mode states* updated by a geometric (AXPY-style)
recurrence -- constant work per window/step, linear work overall.

The compression is **certified, not trusted** (the same contract PR 6's
model-order reduction established): after every fit the *exact*
approximation error is evaluated over the full compressed lag range and
summarised as the relative ``l1`` bound

.. math::  \\mathrm{bound} = \\frac{\\sum_d |w_d - \\hat w_d|}
                                   {\\sum_d |w_d|},

which bounds the induced ``l_\\infty \\to l_\\infty`` operator error of
the compressed memory term relative to the exact one.  A fit whose
bound exceeds the requested ``rtol`` is *not used*: consumers fall back
to exact memory (recording why), or raise
:class:`~repro.errors.MemoryCompressionError` when the plan says
``fallback=False``.

Two kernel flavours are supported:

* :func:`fit_discrete_kernel` -- lag-indexed coefficients (GL weights,
  block-pulse Tustin/Toeplitz coefficients).  The dictionary carries
  decay rates of *both signs* (``lambda = +-exp(-theta)``) because the
  Tustin tail mixes a monotone ``d^{-1-alpha}`` branch with an
  alternating ``(-1)^d d^{alpha-1}`` branch.
* :func:`fit_continuous_kernel` -- the Riemann-Liouville kernel
  ``t^{alpha-1}/Gamma(alpha)`` on a window-scaled interval
  ``[W, K W]``, used by the spectral (hybrid-function) march, where the
  separability ``e^{-theta(tau + lW - sigma)} = mu^l e^{-theta tau}
  e^{theta sigma}`` turns every lag operator into a rank-one update.

Fits are cached process-wide (content-keyed, LRU) so repeated marches
on the same horizon re-fit nothing.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import MemoryCompressionError, SolverError
from .history import history_weights

__all__ = [
    "SoePlan",
    "SoeFit",
    "SoeTail",
    "fit_discrete_kernel",
    "fit_continuous_kernel",
    "resolve_memory",
    "clear_fit_cache",
    "fit_cache_stats",
]

#: Default certification tolerance for ``memory='soe'``.
DEFAULT_MEMORY_RTOL = 1e-10

#: Rate-ladder densities (dictionary nodes per decade of decay rates);
#: the fitter escalates through these until the certificate meets the
#: requested tolerance or the mode cap is hit.
_NODE_DENSITIES = (3, 4, 6, 8, 10, 14)

#: Fastest dimensionless decay rate in the dictionary:
#: ``exp(-_THETA_MAX)`` is below double precision, so faster modes
#: cannot contribute anywhere in the fitted range.
_THETA_MAX = 36.0

#: Largest number of least-squares rows; longer lag ranges are fitted
#: on a log-spaced subsample (the certificate is still evaluated on
#: every lag).
_MAX_FIT_ROWS = 3000


@dataclass(frozen=True)
class SoePlan:
    """User-facing memory-compression settings (``memory=`` knob).

    Parameters
    ----------
    rtol:
        Certification tolerance: a fit is only used when its exact
        relative ``l1`` bound is ``<= rtol``.
    max_modes:
        Cap on the exponential dictionary size (both signs counted).
    exact_lags:
        Width of the exact near window kept by *stepper* consumers (the
        GL scheme); the windowed march keeps its own window width
        exact, so this knob does not affect it.
    fallback:
        ``True`` (default): an uncertified fit silently falls back to
        exact memory, recording the reason.  ``False``: raise
        :class:`~repro.errors.MemoryCompressionError` instead.
    """

    rtol: float = DEFAULT_MEMORY_RTOL
    max_modes: int = 192
    exact_lags: int = 64
    fallback: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < float(self.rtol) < 1.0):
            raise SolverError(
                f"memory rtol must be in (0, 1), got {self.rtol!r}"
            )
        if int(self.max_modes) < 2:
            raise SolverError(
                f"max_modes must be >= 2, got {self.max_modes!r}"
            )
        if int(self.exact_lags) < 1:
            raise SolverError(
                f"exact_lags must be >= 1, got {self.exact_lags!r}"
            )

    def fingerprint(self) -> tuple:
        """Content key (joins the session fingerprint: SOE memory
        changes the arithmetic, so compressed sessions must never unify
        with exact ones in a fingerprint-keyed cache)."""
        return (
            "soe",
            float(self.rtol),
            int(self.max_modes),
            int(self.exact_lags),
            bool(self.fallback),
        )


def resolve_memory(memory) -> Optional[SoePlan]:
    """Normalise the ``memory=`` knob to ``None`` (exact) or a plan.

    Accepts ``None`` / ``'exact'`` (exact memory), ``'soe'`` (the
    default plan), or a ready :class:`SoePlan`, which carries its own
    tolerance (``SoePlan(rtol=1e-6)``).
    """
    if memory is None or isinstance(memory, SoePlan):
        return memory
    if isinstance(memory, str):
        name = memory.strip().lower()
        if name in ("", "exact", "off", "none", "false"):
            return None
        if name == "soe":
            return SoePlan()
        raise SolverError(
            f"memory must be 'exact', 'soe', or an SoePlan, got {memory!r}"
        )
    raise SolverError(
        f"memory must be 'exact', 'soe', or an SoePlan, got "
        f"{type(memory).__name__}"
    )


@dataclass(frozen=True)
class SoeFit:
    """A fitted exponential mixture with its certified error bound.

    ``weights[p] * rates[p]**d`` summed over ``p`` approximates the
    kernel at lag ``d`` for every ``d`` in ``[lag_start, lag_stop]``
    (discrete fits) or ``weights[p] * exp(-rates[p] * t)`` approximates
    the continuous kernel on ``[t_min, t_max]`` (continuous fits, where
    ``rates`` are decay rates, not ratios).

    ``bound`` is the *exact* relative ``l1`` error over the certified
    range -- no extrapolation: it is computed by evaluating the fitted
    mixture at every certified lag (discrete) or on the dense
    certification grid (continuous) after the fit.
    """

    weights: np.ndarray
    rates: np.ndarray
    bound: float
    rtol: float
    lag_start: int
    lag_stop: int
    kind: str = "discrete"

    @property
    def n_modes(self) -> int:
        """Number of exponential modes in the mixture."""
        return int(self.weights.size)

    @property
    def certified(self) -> bool:
        """Whether the exact bound meets the requested tolerance."""
        return bool(self.bound <= self.rtol)

    def evaluate(self, lags: np.ndarray) -> np.ndarray:
        """Fitted kernel values at ``lags`` (discrete) / times (continuous)."""
        lags = np.asarray(lags, dtype=float)
        if self.kind == "continuous":
            return _exp_design(lags, self.rates) @ self.weights
        return _power_design(lags, self.rates) @ self.weights

    def info(self) -> dict:
        """Result-metadata payload (mirrors the MOR ``info`` contract)."""
        return {
            "mode": "soe",
            "modes": self.n_modes,
            "bound": float(self.bound),
            "rtol": float(self.rtol),
            "certified": self.certified,
            "lag_start": int(self.lag_start),
            "lag_stop": int(self.lag_stop),
        }


def _power_design(lags: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Design matrix ``M[d, p] = rates[p]**lags[d]`` for ``|rates| < 1``.

    Evaluated as ``sign**d * exp(d * log|rate|)`` so huge lags underflow
    cleanly to zero instead of tripping ``pow`` overflow paths.
    """
    lags = np.asarray(lags, dtype=float)
    mags = np.abs(rates)
    with np.errstate(divide="ignore"):
        log_mags = np.log(mags)
    M = np.exp(np.outer(lags, log_mags))
    neg = rates < 0.0
    if np.any(neg):
        parity = np.where(np.asarray(lags).astype(np.int64) % 2 == 0, 1.0, -1.0)
        M[:, neg] *= parity[:, None]
    return M


def _exp_design(times: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Design matrix ``M[t, p] = exp(-rates[p] * times[t])``."""
    return np.exp(-np.outer(np.asarray(times, dtype=float), rates))


def _weighted_lstsq(
    M: np.ndarray, y: np.ndarray, row_weights: np.ndarray
) -> np.ndarray:
    """Row-weighted, column-equilibrated least squares (SVD, rank-safe)."""
    Mw = M * row_weights[:, None]
    yw = y * row_weights
    col_scale = np.linalg.norm(Mw, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    sol, *_ = np.linalg.lstsq(Mw / col_scale[None, :], yw, rcond=None)
    return sol / col_scale


def _fit_rows(lo: float, hi: float) -> np.ndarray:
    """Log-spaced least-squares sample of ``[lo, hi]`` (unique values)."""
    count = int(hi - lo) + 1
    if count <= _MAX_FIT_ROWS:
        return np.arange(lo, hi + 1.0)
    # keep every lag near the (hardest) lower end, log-thin the far tail
    dense_hi = min(hi, lo + _MAX_FIT_ROWS // 2)
    dense = np.arange(lo, dense_hi + 1.0)
    sparse = np.unique(
        np.round(np.geomspace(dense_hi + 1.0, hi, _MAX_FIT_ROWS // 2))
    )
    return np.unique(np.concatenate([dense, sparse]))


def _rate_ladder(theta_min: float, theta_max: float, density: int) -> np.ndarray:
    """Log-spaced decay rates, ``density`` nodes per decade."""
    decades = math.log10(theta_max / theta_min)
    count = max(2, int(math.ceil(decades * density)) + 1)
    return np.geomspace(theta_min, theta_max, count)


def fit_discrete_kernel(
    coeffs: np.ndarray,
    lag_start: int,
    lag_stop: int,
    plan: SoePlan | None = None,
) -> SoeFit:
    """Fit ``coeffs[d] ~ sum_p c_p lambda_p^d`` over ``d in [lag_start, lag_stop]``.

    The dictionary holds signed geometric ratios
    ``lambda = +-exp(-theta)`` with ``theta`` log-spaced, fitted by
    row-weighted least squares (relative weighting, so the slowly
    decaying far tail is not drowned by the near lags); the node
    density escalates until the exact certificate meets ``plan.rtol``
    or the ``plan.max_modes`` cap stops it.  The returned fit carries
    the exact bound either way -- the *caller* decides between
    fallback and raising (see :func:`resolve_memory` consumers).

    Results are cached process-wide on the kernel content and the plan.
    """
    plan = plan or SoePlan()
    coeffs = np.ascontiguousarray(coeffs, dtype=float)
    lag_start, lag_stop = int(lag_start), int(lag_stop)
    if lag_start < 1 or lag_stop < lag_start:
        raise SolverError(
            f"need 1 <= lag_start <= lag_stop, got ({lag_start}, {lag_stop})"
        )
    if coeffs.size <= lag_stop:
        raise SolverError(
            f"kernel provides {coeffs.size} coefficients but certification "
            f"needs lag {lag_stop}; build coefficients for the full horizon"
        )
    key = (
        "discrete",
        coeffs[: lag_stop + 1].tobytes(),
        lag_start,
        lag_stop,
        plan.fingerprint(),
    )
    hit = _fit_cache_get(key)
    if hit is not None:
        return hit

    all_lags = np.arange(lag_start, lag_stop + 1, dtype=float)
    target_all = coeffs[lag_start : lag_stop + 1]
    fit_lags = _fit_rows(float(lag_start), float(lag_stop))
    target = coeffs[fit_lags.astype(np.int64)]
    # relative row weighting with an absolute floor: the certificate is
    # an l1 *ratio*, so lags whose coefficient is orders of magnitude
    # below the kernel scale need no pointwise accuracy
    scale = float(np.max(np.abs(target_all)))
    if scale == 0.0:
        fit = SoeFit(
            weights=np.zeros(1),
            rates=np.zeros(1),
            bound=0.0,
            rtol=plan.rtol,
            lag_start=lag_start,
            lag_stop=lag_stop,
        )
        _fit_cache_put(key, fit)
        return fit
    row_w = 1.0 / (np.abs(target) + 1e-8 * scale)
    denom = float(np.sum(np.abs(target_all)))

    theta_max = _THETA_MAX / lag_start
    theta_min = 1.0 / (20.0 * lag_stop)
    theta_min = min(theta_min, theta_max / 10.0)

    best: SoeFit | None = None
    for density in _NODE_DENSITIES:
        theta = _rate_ladder(theta_min, theta_max, density)
        rates = np.concatenate([np.exp(-theta), -np.exp(-theta)])
        if rates.size > plan.max_modes:
            rates = np.concatenate(
                [
                    np.exp(-_rate_ladder(theta_min, theta_max, density))[
                        : plan.max_modes // 2
                    ],
                    -np.exp(-_rate_ladder(theta_min, theta_max, density))[
                        : plan.max_modes // 2
                    ],
                ]
            )
        c = _weighted_lstsq(_power_design(fit_lags, rates), target, row_w)
        # prune modes that cannot move the certificate, then certify
        # EXACTLY over every lag in the compressed range
        keep = np.abs(c) * np.abs(rates) ** lag_start > 1e-3 * plan.rtol * scale
        if not np.any(keep):
            keep = np.abs(c) == np.max(np.abs(c))
        c, kept_rates = c[keep], rates[keep]
        err = _power_design(all_lags, kept_rates) @ c - target_all
        bound = float(np.sum(np.abs(err)) / denom)
        fit = SoeFit(
            weights=c,
            rates=kept_rates,
            bound=bound,
            rtol=plan.rtol,
            lag_start=lag_start,
            lag_stop=lag_stop,
        )
        if best is None or fit.bound < best.bound:
            best = fit
        if fit.certified:
            break
        if rates.size >= plan.max_modes:
            break
    _fit_cache_put(key, best)
    return best


def fit_continuous_kernel(
    alpha: float,
    horizon_windows: int,
    window: float,
    plan: SoePlan | None = None,
) -> SoeFit:
    """Fit ``t^{alpha-1}/Gamma(alpha) ~ sum_p c_p exp(-theta_p t)`` on
    ``[W, K W]`` (``W = window``, ``K = horizon_windows``).

    Used by the spectral (hybrid-function) march, which keeps the
    singular adjacent-window operator (lag 1) exact and compresses
    every older lag: separability of the exponential makes each
    compressed lag operator rank-one (see
    :func:`repro.engine.marching._march_spectral`).

    The fit is performed in the dimensionless variable ``s = t / W``
    (so it caches per ``(alpha, K, plan)`` across window lengths) and
    rescaled; the certificate is the exact relative ``l1`` error on a
    dense log-linear grid of ``s in [1, K]`` with trapezoidal measure.
    """
    plan = plan or SoePlan()
    alpha = float(alpha)
    K = int(horizon_windows)
    window = float(window)
    if K < 2:
        raise SolverError(f"continuous SOE fit needs >= 2 windows, got {K}")
    if window <= 0.0:
        raise SolverError(f"window length must be positive, got {window}")
    key = ("continuous", alpha, K, plan.fingerprint())
    hit = _fit_cache_get(key)
    if hit is None:
        hit = _fit_continuous_dimensionless(alpha, K, plan)
        _fit_cache_put(key, hit)
    # rescale t = W s: rates theta/W, weights absorb W^(alpha-1)/Gamma
    scale = window ** (alpha - 1.0) / math.gamma(alpha)
    return SoeFit(
        weights=hit.weights * scale,
        rates=hit.rates / window,
        bound=hit.bound,
        rtol=hit.rtol,
        lag_start=hit.lag_start,
        lag_stop=hit.lag_stop,
        kind="continuous",
    )


def _fit_continuous_dimensionless(alpha: float, K: int, plan: SoePlan) -> SoeFit:
    """Fit ``s^{alpha-1}`` on ``s in [1, K]`` (dimensionless core)."""
    # dense certification grid: linear near the curved left end, log
    # thinning beyond; the certificate integrates |error| against the
    # trapezoidal measure of this grid
    left = np.linspace(1.0, min(4.0, float(K)), 257)
    grid = np.unique(
        np.concatenate([left, np.geomspace(1.0, float(K), 1025)])
    )
    target = grid ** (alpha - 1.0)
    measure = np.gradient(grid)
    denom = float(np.sum(np.abs(target) * measure))
    row_w = 1.0 / (np.abs(target) + 1e-8)

    theta_max = _THETA_MAX  # exp(-36) at s = 1: below double precision
    theta_min = 1.0 / (20.0 * K)
    best: SoeFit | None = None
    for density in _NODE_DENSITIES:
        rates = _rate_ladder(theta_min, theta_max, density)
        if rates.size > plan.max_modes:
            rates = rates[: plan.max_modes]
        c = _weighted_lstsq(_exp_design(grid, rates), target, row_w)
        keep = np.abs(c) * np.exp(-rates) > 1e-3 * plan.rtol
        if not np.any(keep):
            keep = np.abs(c) == np.max(np.abs(c))
        c, kept = c[keep], rates[keep]
        err = _exp_design(grid, kept) @ c - target
        bound = float(np.sum(np.abs(err) * measure) / denom)
        fit = SoeFit(
            weights=c,
            rates=kept,
            bound=bound,
            rtol=plan.rtol,
            lag_start=1,
            lag_stop=K,
            kind="continuous",
        )
        if best is None or fit.bound < best.bound:
            best = fit
        if fit.certified or rates.size >= plan.max_modes:
            break
    return best


def require_certified(fit: SoeFit, plan: SoePlan, what: str) -> bool:
    """Gate a fit: ``True`` when usable, ``False`` for recorded fallback.

    Raises :class:`~repro.errors.MemoryCompressionError` when the plan
    forbids falling back (``fallback=False``).
    """
    if fit.certified:
        return True
    if plan.fallback:
        return False
    raise MemoryCompressionError(
        f"SOE compression of the {what} memory kernel missed its certified "
        f"tolerance (bound {fit.bound:.3e} > rtol {fit.rtol:.3e} with "
        f"{fit.n_modes} modes); loosen the plan's rtol (SoePlan(rtol=...), "
        "or a deck's memory_rtol), raise max_modes, or use memory='exact'"
    )


class SoeTail:
    """Drop-in for :class:`~repro.fractional.history.HistoryTail` with
    compressed far memory.

    The most recent appended block is served **exactly** (its lags are
    below the fitted range, where the kernel is most curved); all older
    blocks live in the ``(n, P)`` mode-state matrix ``M`` with

    .. math::  M_{:,p} = \\sum_{i < N - w} \\lambda_p^{N - i} x_i

    (``N`` columns appended, ``w`` the recent block's width), updated on
    every :meth:`append` by one scaled GEMM:
    ``M <- (M + R @ Lambda_w) * lambda^b``.  :meth:`tail` then costs
    ``O(n (w + P) count)`` independent of the marched horizon, against
    the exact tail's ``O(n N count)``.

    The fit must be certified for every lag the tail will touch: lag
    ``recent_width + 1`` (the oldest compressed column is always at
    least one full block behind) through
    ``columns + count - 1`` at the final :meth:`tail` call -- both are
    validated, never extrapolated.
    """

    def __init__(self, coeffs: np.ndarray, fit: SoeFit) -> None:
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise SolverError("coeffs must be a non-empty 1-D array")
        if fit.kind != "discrete":
            raise SolverError("SoeTail requires a discrete-kernel SoeFit")
        self.fit = fit
        self._rates = np.asarray(fit.rates, dtype=float)
        self._weights = np.asarray(fit.weights, dtype=float)
        self._columns = 0
        self._recent: np.ndarray | None = None
        self._modes: np.ndarray | None = None

    @property
    def columns(self) -> int:
        """Total number of solved columns appended so far."""
        return self._columns

    @property
    def n_modes(self) -> int:
        """Size of the exponential mode state."""
        return int(self._rates.size)

    def _powers(self, exponents: np.ndarray) -> np.ndarray:
        """``rates**exponents`` as a ``(len(exponents), P)`` matrix."""
        return _power_design(np.asarray(exponents, dtype=float), self._rates)

    def append(self, block: np.ndarray) -> None:
        """Record a solved coefficient block of shape ``(n, m_block)``.

        The previous recent block graduates into the mode states.
        """
        block = np.asarray(block, dtype=float)
        if block.ndim != 2:
            raise SolverError(f"history blocks must be 2-D, got ndim={block.ndim}")
        b = block.shape[1]
        if self._recent is not None:
            w = self._recent.shape[1]
            if self._modes is None:
                self._modes = np.zeros((self._recent.shape[0], self.n_modes))
            # absorb the graduating block at its pre-append lags
            # (1..w columns back), then age everything by b columns
            graduate = self._recent @ self._powers(np.arange(w, 0, -1.0))
            self._modes = (self._modes + graduate) * self._powers(
                np.array([float(b)])
            )
        self._recent = block
        self._columns += b

    def tail(self, count: int) -> np.ndarray | None:
        """Memory contribution of every appended block to the next
        ``count`` columns: exact for the recent block, mode recurrence
        for everything older.  ``None`` before the first append
        (matching the :class:`HistoryTail` contract)."""
        if self._recent is None:
            return None
        count = int(count)
        w = self._recent.shape[1]
        # exact near part: the recent block's lags are 1 .. w+count-1
        W = history_weights(self.coeffs, w, count)
        H = self._recent @ W
        if self._modes is not None:
            oldest = self._columns + count - 1
            if w + 1 < self.fit.lag_start or oldest > self.fit.lag_stop:
                raise SolverError(
                    f"SOE fit certified for lags [{self.fit.lag_start}, "
                    f"{self.fit.lag_stop}] cannot serve lags "
                    f"[{w + 1}, {oldest}]; fit the full marching horizon"
                )
            # H_far[:, j] = sum_p c_p lambda_p^j M[:, p]
            H += (self._modes * self._weights[None, :]) @ self._powers(
                np.arange(count, dtype=float)
            ).T
        return H


# ----------------------------------------------------------------------
# process-wide fit cache (content-keyed, LRU) -- repeated marches and
# warm service sessions re-fit nothing; ``reuses`` mirrors the
# BasisSet.cached_operator build counter so tests can assert reuse
# ----------------------------------------------------------------------
_FIT_CACHE: OrderedDict[tuple, SoeFit] = OrderedDict()
_FIT_CACHE_SIZE = 32
_FIT_CACHE_REUSES = 0


def _fit_cache_get(key: tuple) -> SoeFit | None:
    global _FIT_CACHE_REUSES
    fit = _FIT_CACHE.get(key)
    if fit is not None:
        _FIT_CACHE.move_to_end(key)
        _FIT_CACHE_REUSES += 1
    return fit


def _fit_cache_put(key: tuple, fit: SoeFit) -> None:
    _FIT_CACHE[key] = fit
    while len(_FIT_CACHE) > _FIT_CACHE_SIZE:
        _FIT_CACHE.popitem(last=False)


def clear_fit_cache() -> None:
    """Drop all cached fits and reset the reuse counter (testing hook)."""
    global _FIT_CACHE_REUSES
    _FIT_CACHE.clear()
    _FIT_CACHE_REUSES = 0


def fit_cache_stats() -> dict:
    """Cache telemetry: ``{'entries': ..., 'reuses': ...}``."""
    return {"entries": len(_FIT_CACHE), "reuses": _FIT_CACHE_REUSES}
