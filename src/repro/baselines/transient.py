"""Classical transient-analysis schemes for descriptor systems.

These are the comparison methods of the paper's Table II: backward
Euler (``b-Euler``), the trapezoidal rule, and Gear's second-order BDF
-- the workhorses of SPICE-class circuit simulators.  All three solve

.. math::  E \\dot{x} = A x + B u

on a uniform step ``h`` with one pencil factorisation reused across all
steps (same cost structure the paper assumes when comparing against
OPM):

* backward Euler:  ``(E/h - A) x_{k+1} = (E/h) x_k + B u_{k+1}``
* trapezoidal:     ``(2E/h - A) x_{k+1} = (2E/h + A) x_k + B (u_k + u_{k+1})``
* Gear (BDF2):     ``(3E/(2h) - A) x_{k+1} = (E/(2h)) (4 x_k - x_{k-1}) + B u_{k+1}``
  (bootstrapped with one backward-Euler step)

Initial conditions are taken directly as the node value ``x_0`` -- no
shift is needed for node-based schemes.  For DAEs the caller must
supply a consistent ``x0`` (zero is consistent whenever ``u(0) = 0``).
"""

from __future__ import annotations

import time

import numpy as np

from .._validation import check_positive_float, check_positive_int
from ..core.lti import DescriptorSystem
from ..core.result import SampledResult
from ..engine.backends import PencilBank, select_backend
from ..errors import ModelError, SolverError

__all__ = ["simulate_transient", "TRANSIENT_METHODS"]

#: Supported scheme names.
TRANSIENT_METHODS = ("backward-euler", "trapezoidal", "gear2")


def _sample_input(u, p: int, times: np.ndarray) -> np.ndarray:
    if np.isscalar(u):
        return np.full((p, times.size), float(u))
    if callable(u):
        vals = np.asarray(u(times), dtype=float)
        if vals.ndim == 1:
            vals = vals.reshape(1, -1)
        if vals.shape != (p, times.size):
            raise ModelError(
                f"input callable must return ({p}, {times.size}) values, got {vals.shape}"
            )
        return vals
    raise ModelError("transient baselines require a callable or scalar input")


def simulate_transient(
    system: DescriptorSystem,
    u,
    t_end: float,
    n_steps: int,
    *,
    method: str = "trapezoidal",
) -> SampledResult:
    """Simulate ``E x' = A x + B u`` with a classical one-step scheme.

    Parameters
    ----------
    system:
        First-order :class:`DescriptorSystem` (``alpha == 1``).
    u:
        Callable ``u(times)`` (vectorised) or a scalar constant.
    t_end:
        Horizon; nodes are ``t_k = k h``, ``h = t_end / n_steps``.
    n_steps:
        Number of steps.
    method:
        One of ``'backward-euler'``, ``'trapezoidal'``, ``'gear2'``.

    Returns
    -------
    SampledResult
        States at all ``n_steps + 1`` nodes;
        ``info`` records the method, step and factorisation count.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.lti import DescriptorSystem
    >>> sys1 = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])
    >>> res = simulate_transient(sys1, 1.0, 5.0, 500, method='trapezoidal')
    >>> bool(abs(res.states([3.0])[0, 0] - (1 - np.exp(-3.0))) < 1e-5)
    True
    """
    if not isinstance(system, DescriptorSystem):
        raise TypeError(f"system must be a DescriptorSystem, got {type(system).__name__}")
    if system.alpha != 1.0:
        raise SolverError(
            f"transient schemes are first-order only (alpha=1), got alpha={system.alpha}; "
            "use simulate_grunwald_letnikov or OPM for fractional systems"
        )
    if method not in TRANSIENT_METHODS:
        raise SolverError(f"method must be one of {TRANSIENT_METHODS}, got {method!r}")
    t_end = check_positive_float(t_end, "t_end")
    n_steps = check_positive_int(n_steps, "n_steps")

    h = t_end / n_steps
    n, p = system.n_states, system.n_inputs
    times = np.linspace(0.0, t_end, n_steps + 1)
    u_vals = _sample_input(u, p, times)
    Bu = system.B @ u_vals

    E, A = system.E, system.A
    cache = PencilBank(select_backend(E, A))
    X = np.zeros((n, n_steps + 1))
    if system.x0 is not None:
        X[:, 0] = system.x0

    start = time.perf_counter()
    if method == "backward-euler":
        sigma = 1.0 / h
        for k in range(n_steps):
            rhs = sigma * (E @ X[:, k]) + Bu[:, k + 1]
            X[:, k + 1] = cache.solve(sigma, rhs)
    elif method == "trapezoidal":
        sigma = 2.0 / h
        for k in range(n_steps):
            rhs = sigma * (E @ X[:, k]) + (A @ X[:, k]) + Bu[:, k] + Bu[:, k + 1]
            X[:, k + 1] = cache.solve(sigma, rhs)
    else:  # gear2 (BDF2), bootstrapped with backward Euler
        sigma_be = 1.0 / h
        rhs = sigma_be * (E @ X[:, 0]) + Bu[:, 1]
        X[:, 1] = cache.solve(sigma_be, rhs)
        sigma = 1.5 / h
        for k in range(1, n_steps):
            rhs = (E @ (4.0 * X[:, k] - X[:, k - 1])) / (2.0 * h) + Bu[:, k + 1]
            X[:, k + 1] = cache.solve(sigma, rhs)
    wall = time.perf_counter() - start

    return SampledResult(
        times,
        X,
        system,
        input_values=u_vals,
        wall_time=wall,
        info={"method": method, "h": h, "factorisations": cache.factorisations},
    )
