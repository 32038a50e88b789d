"""The OPM simulation algorithm (paper sections III and IV).

Main entry point: :func:`simulate_opm`.  Given a system model, an input,
and a time grid, the solver

1. projects the input onto the block-pulse basis (eq. (11)),
2. forms the operational-matrix equation ``E X D^alpha = A X + B U``
   (eq. (14) for ``alpha = 1``, eq. (27) for fractional orders,
   eq. (18) for adaptive grids),
3. solves it column by column exploiting the triangular structure
   (never assembling the Kronecker system), and
4. returns a :class:`~repro.core.result.SimulationResult` whose
   piecewise-constant expansion is the response ``x(t) = X phi(t)``.

Since the engine refactor this is a thin wrapper over
:class:`repro.engine.session.Simulator`: each call builds a throwaway
session and runs it once.  Repeated-solve workloads (parameter sweeps,
many input waveforms) should construct a ``Simulator`` directly and
reuse it -- a warm session skips basis assembly, coefficient
construction, and the pencil LU factorisation.

Multi-term systems (the paper's high-order case) run on the same
session; :func:`repro.core.highorder.simulate_multiterm` is the
multi-term-only spelling.  Every other basis runs through the same
call: Walsh and Haar by the exact change of basis from block pulses
(section I's "switch to other basis functions"), Laguerre by the
same Toeplitz sweep, the polynomial families in integral form.
:func:`project_input` (re-exported from :mod:`repro.engine.inputs`) is
the shared input projection helper.
"""

from __future__ import annotations

import time

from ..engine.inputs import project_input
from ..engine.session import InputLike, Simulator, resolve_grid
from .result import SimulationResult

__all__ = ["simulate_opm", "project_input", "resolve_grid"]


def simulate_opm(
    system,
    u: InputLike,
    grid,
    *,
    basis=None,
    backend: str = "auto",
    reduce=None,
    memory="exact",
) -> SimulationResult:
    """Simulate a system with the OPM algorithm (block-pulse by default).

    Parameters
    ----------
    system:
        :class:`~repro.core.lti.DescriptorSystem` (eq. (9)),
        :class:`~repro.core.lti.FractionalDescriptorSystem` (eq. (19))
        or :class:`~repro.core.lti.MultiTermSystem` /
        :class:`~repro.core.lti.SecondOrderSystem` (section V-B).
    u:
        Input specification; see :func:`repro.engine.inputs.project_input`.
    grid:
        :class:`TimeGrid`, ``(t_end, m)`` tuple, or a ready
        :class:`~repro.basis.base.BasisSet` instance.  Uniform grids use
        the Toeplitz fast path; adaptive grids the general triangular
        sweep (on fractional adaptive grids the steps pick paper
        eq. (25)'s eigendecomposition or a Schur matrix power).
    basis:
        Basis family to solve in -- ``None`` (block pulse), a name from
        :func:`repro.engine.bundle.basis_names` (``'chebyshev'``,
        ``'legendre'``, ``'haar'``, ...), or a
        :class:`~repro.basis.base.BasisSet` instance, which carries the
        input projection rule (``BlockPulseBasis(grid,
        projection='midpoint')`` samples midpoints instead of eq. (2)'s
        averages).  See :class:`~repro.engine.session.Simulator`.
    backend:
        Linear-algebra backend selection, ``'auto'`` / ``'dense'`` /
        ``'sparse'`` (see :func:`repro.engine.backends.select_backend`).
    reduce:
        Certified model-order reduction at bind: ``None`` (off),
        ``'auto'``, a moment count, or a
        :class:`~repro.engine.reduction.ReductionPlan` (see
        :mod:`repro.engine.reduction`).  First-order systems only.
    memory:
        Fractional-memory compression: ``'exact'`` (default),
        ``'soe'``, or a :class:`~repro.fractional.soe.SoePlan` (which
        carries the certification tolerance, e.g.
        ``SoePlan(rtol=1e-6)``); see
        :class:`~repro.engine.session.Simulator` and
        :mod:`repro.fractional.soe`.

    Returns
    -------
    SimulationResult
        With ``info['method']`` one of ``'opm-toeplitz'``,
        ``'opm-alternating'``, ``'opm-general'`` and
        ``info['factorisations']`` the number of pencil LUs performed.

    Examples
    --------
    Unit-step response of the scalar ODE ``x' = -x + u``:

    >>> import numpy as np
    >>> from repro.core.lti import DescriptorSystem
    >>> sys1 = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])
    >>> res = simulate_opm(sys1, 1.0, (5.0, 200))
    >>> float(np.abs(res.states([3.0])[0, 0] - (1 - np.exp(-3.0)))) < 1e-3
    True
    """
    start = time.perf_counter()
    sim = Simulator(
        system, grid, basis=basis, backend=backend, reduce=reduce, memory=memory
    )
    result = sim.run(u)
    # one-shot call: charge session assembly + factorisation to the run
    result.wall_time = time.perf_counter() - start
    return result

