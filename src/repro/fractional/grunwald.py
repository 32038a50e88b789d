"""Grünwald-Letnikov time-stepping solver for fractional systems.

This is the classical *time-domain* method for
``E d^alpha x = A x + B u`` that the paper's introduction describes as
"extremely inefficient if not impossible" for traditional transient
analysis: every step must convolve the entire state history with the GL
weights, giving ``O(n^beta m + n m^2)`` work -- the same asymptotic
cost the paper derives for fractional OPM, which makes GL the natural
accuracy/runtime baseline for the fractional benchmarks.

Scheme (implicit, zero initial state at ``t_0 = 0``):

.. math::

    h^{-\\alpha} E \\sum_{j=0}^{k} w_j x_{k-j} = A x_k + B u(t_k)
    \\;\\Longrightarrow\\;
    (h^{-\\alpha} E - A) x_k
        = B u(t_k) - h^{-\\alpha} E \\sum_{j=1}^{k} w_j x_{k-j},

with ``w_j`` the GL weights.  One pencil factorisation, reused for all
steps.

**Nonzero initial state.**  The raw GL operator applied to ``x`` itself
would be wrong for ``x(0) != 0``: the RL/GL fractional derivative of
the constant ``x0`` is *nonzero* (``t^{-alpha} x0 / Gamma(1-alpha)``),
so the classical "shift the solution by ``x0``" trick of first-order
solvers does not carry over verbatim.  The proper forcing correction --
the shifted-GL / Caputo scheme -- applies the GL operator to the
*deviation* ``z = x - x0``, which turns ``E D^alpha_C x = A x + B u``
into the zero-initial-state problem
``E D^alpha_GL z = A z + B u + A x0`` with ``x = z + x0``.  That is
exactly what this solver implements (the ``A x0`` term via
:meth:`~repro.core.lti.DescriptorSystem.shifted_input_offset`, the
final un-shift at the end); it is validated against the analytic
Mittag-Leffler relaxation ``x0 E_alpha(-lam t^alpha)`` in the test
suite, converging at the expected ``O(h^alpha)`` rate near the ``t = 0``
singularity.  Orders ``alpha > 1`` with nonzero ``x0`` are rejected at
model construction (they would need derivative initial data).
"""

from __future__ import annotations

import time

import numpy as np

from .._validation import check_positive_int
from ..core.lti import DescriptorSystem
from ..core.result import SampledResult
from ..engine.backends import PencilBank, select_backend
from ..errors import ModelError
from .definitions import cached_gl_weights
from .history import history_dot
from .soe import fit_discrete_kernel, require_certified, resolve_memory

__all__ = ["simulate_grunwald_letnikov"]


def simulate_grunwald_letnikov(
    system: DescriptorSystem,
    u,
    t_end: float,
    n_steps: int,
    *,
    memory="exact",
) -> SampledResult:
    """Simulate ``E d^alpha x = A x + B u`` with implicit GL stepping.

    Parameters
    ----------
    system:
        :class:`DescriptorSystem` or
        :class:`~repro.core.lti.FractionalDescriptorSystem`; ``alpha``
        is read from the model (``1.0`` turns this into backward
        Euler).  Zero initial state (paper convention); nonzero ``x0``
        with ``alpha <= 1`` uses the same constant shift as OPM.
    u:
        Callable ``u(times)`` (vectorised, shape ``(p, nt)`` or
        ``(nt,)`` for single input) or a scalar constant.
    t_end:
        Horizon; nodes are ``t_k = k h`` with ``h = t_end / n_steps``.
    n_steps:
        Number of time steps.
    memory:
        ``'exact'`` (default: the full per-step history convolution),
        ``'soe'``, or an :class:`~repro.fractional.soe.SoePlan`.
        Compressed memory keeps the most recent ``exact_lags`` lags
        exact and folds everything older into a certified
        sum-of-exponentials mode recurrence, making the whole solve
        linear in ``n_steps``; an uncertified fit falls back to exact
        memory (recorded in ``info['memory']``).  The plan carries the
        certification tolerance (``SoePlan(rtol=1e-6)``).

    Returns
    -------
    SampledResult
        States at the ``n_steps + 1`` nodes (including ``t = 0``).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.lti import FractionalDescriptorSystem
    >>> sysf = FractionalDescriptorSystem(0.5, [[1.0]], [[-1.0]], [[1.0]])
    >>> res = simulate_grunwald_letnikov(sysf, 1.0, 1.0, 200)
    >>> res.state_values.shape
    (1, 201)
    """
    if not isinstance(system, DescriptorSystem):
        raise TypeError(f"system must be a DescriptorSystem, got {type(system).__name__}")
    n_steps = check_positive_int(n_steps, "n_steps")
    t_end = float(t_end)
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    h = t_end / n_steps
    alpha = system.alpha
    n, p = system.n_states, system.n_inputs

    times = np.linspace(0.0, t_end, n_steps + 1)
    if np.isscalar(u):
        u_vals = np.full((p, times.size), float(u))
    elif callable(u):
        u_vals = np.asarray(u(times), dtype=float)
        if u_vals.ndim == 1:
            u_vals = u_vals.reshape(1, -1)
        if u_vals.shape != (p, times.size):
            raise ModelError(
                f"input callable must return ({p}, {times.size}) values, got {u_vals.shape}"
            )
    else:
        raise ModelError("GL stepping requires a callable or scalar input")

    offset = system.shifted_input_offset()
    weights = cached_gl_weights(alpha, n_steps + 1)
    scale = h**-alpha
    E = system.E
    cache = PencilBank(select_backend(E, system.A))

    # optional SOE memory compression: keep L recent lags exact, fold
    # older history into P mode states updated by one AXPY per step
    mem_plan = resolve_memory(memory)
    memory_info: dict = {"mode": "exact"}
    fit = None
    if mem_plan is not None:
        L = int(mem_plan.exact_lags)
        if n_steps > 2 * L:
            fit = fit_discrete_kernel(weights, L + 1, n_steps, mem_plan)
            memory_info = fit.info()
            if not require_certified(fit, mem_plan, "Grünwald-Letnikov"):
                memory_info.update(mode="exact", fallback=True)
                fit = None
            else:
                memory_info["fallback"] = False
                memory_info["exact_lags"] = L
        else:
            memory_info = {"mode": "exact", "reason": "short-horizon"}

    start = time.perf_counter()
    X = np.zeros((n, n_steps + 1))
    if fit is not None:
        lam, c = fit.rates, fit.weights
        # integer exponent keeps negative (alternating) ratios exact
        lam_entry = lam ** (L + 1)
        near = weights[L:0:-1]
        S = np.zeros((n, lam.size))  # S[:, p] = sum_{i<k-L} lam_p^{k-i} x_i
        for k in range(1, n_steps + 1):
            rhs = system.B @ u_vals[:, k]
            if offset is not None:
                rhs = rhs + offset
            if k <= L:
                hist = history_dot(X, weights, k)
            else:
                hist = X[:, k - L : k] @ near + S @ c
            rhs = rhs - scale * (E @ hist)
            X[:, k] = cache.solve(scale, rhs)
            if k >= L:
                S = S * lam[None, :] + np.outer(X[:, k - L], lam_entry)
    else:
        for k in range(1, n_steps + 1):
            rhs = system.B @ u_vals[:, k]
            if offset is not None:
                rhs = rhs + offset
            # GL memory convolution sum_{j=1..k} w_j z_{k-j} (shared with
            # the marching engine's cross-window tail -- see
            # fractional.history)
            hist = history_dot(X, weights, k)
            rhs = rhs - scale * (E @ hist)
            X[:, k] = cache.solve(scale, rhs)
    wall = time.perf_counter() - start

    if system.x0 is not None:
        # un-shift the Caputo deviation variable: x = z + x0
        X = X + system.x0[:, None]
    return SampledResult(
        times,
        X,
        system,
        input_values=u_vals,
        wall_time=wall,
        info={
            "method": "grunwald-letnikov",
            "alpha": alpha,
            "h": h,
            "memory": memory_info,
        },
    )
