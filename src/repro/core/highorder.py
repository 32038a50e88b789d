"""OPM for multi-term (high-order / multi-order fractional) systems.

Section IV of the paper observes that high-order differential systems
are special cases of fractional systems and can be simulated with the
same machinery.  The general multi-term form

.. math::

    \\sum_k M_k \\frac{d^{\\alpha_k}}{dt^{\\alpha_k}} x(t) = B u(t)

becomes, in block-pulse coefficients,

.. math::  \\sum_k M_k X D^{\\alpha_k} = B U .

Every ``D^{alpha_k}`` is upper-triangular Toeplitz with first-row
coefficients ``c^{(k)}``, so column ``j`` reads

.. math::

    \\Big( \\sum_k c^{(k)}_0 M_k \\Big) x_j
    = r_j - \\sum_k M_k \\sum_{i<j} c^{(k)}_{j-i} x_i ,

one factorisation of the *pencil sum* plus ``O(K n m)`` accumulation
per column -- the natural generalisation of the paper's complexity
argument.  The paper's section V-B power-grid example is the
three-term integer instance ``M2 x'' + M1 x' + M0 x = B u`` solved on
the (smaller) NA model, versus classical transient analysis on the
(larger) first-order MNA model.

Since the engine refactor the sweep lives in
:func:`repro.engine.kernels.sweep_multiterm` (where it additionally
accepts batched right-hand sides) and this function is a thin wrapper
over a throwaway :class:`~repro.engine.session.Simulator`; reuse a
session directly for repeated multi-term solves.
"""

from __future__ import annotations

import time

from ..engine.session import Simulator
from .lti import MultiTermSystem
from .result import SimulationResult

__all__ = ["simulate_multiterm"]


def simulate_multiterm(
    system: MultiTermSystem,
    u,
    grid,
    *,
    backend: str = "auto",
) -> SimulationResult:
    """Simulate a :class:`~repro.core.lti.MultiTermSystem` with OPM.

    Parameters
    ----------
    system:
        The multi-term model; zero initial conditions are assumed
        (paper convention -- nonzero high-order ICs would require
        derivative data).
    u:
        Input specification (see
        :func:`repro.engine.inputs.project_input`).
    grid:
        Uniform :class:`TimeGrid`, ``(t_end, m)`` tuple, or a
        piecewise-constant basis instance carrying its input projection
        rule (e.g. ``BlockPulseBasis(grid, projection='midpoint')``).
        Adaptive grids are rejected: the per-term matrices would lose
        their shared Toeplitz structure (use the companion form plus
        :func:`~repro.core.opm_adaptive.simulate_opm_adaptive` instead).
    backend:
        Linear-algebra backend selection for the pencil-sum
        factorisation (``'auto'`` / ``'dense'`` / ``'sparse'``).

    Returns
    -------
    SimulationResult
        ``info['method'] == 'opm-multiterm'``.

    Examples
    --------
    Fractional oscillator ``x'' + 0.5 d^{1/2}x + x = u`` (a classical
    multi-term FDE, here just exercised for shape):

    >>> import numpy as np
    >>> from repro.core.lti import MultiTermSystem
    >>> msys = MultiTermSystem(
    ...     [(2.0, np.eye(1)), (0.5, 0.5 * np.eye(1)), (0.0, np.eye(1))],
    ...     [[1.0]])
    >>> res = simulate_multiterm(msys, 1.0, (10.0, 64))
    >>> res.coefficients.shape
    (1, 64)
    """
    if not isinstance(system, MultiTermSystem):
        raise TypeError(f"system must be a MultiTermSystem, got {type(system).__name__}")

    start = time.perf_counter()
    sim = Simulator(system, grid, backend=backend)
    result = sim.run(u)
    # one-shot call: charge session assembly + factorisation to the run
    result.wall_time = time.perf_counter() - start
    return result
