"""Unified simulation entry point.

:func:`simulate` routes one call signature to every solver in the
package -- the OPM variants and the classical baselines -- so scripts
and benchmarks can switch methods with a string:

>>> import numpy as np
>>> from repro.core import DescriptorSystem
>>> from repro.core.dispatch import simulate
>>> rc = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])
>>> opm = simulate(rc, 1.0, 5.0, 500)                      # OPM (default)
>>> trap = simulate(rc, 1.0, 5.0, 500, method="trapezoidal")
>>> bool(abs(opm.states_smooth([3.0])[0, 0] - trap.states([3.0])[0, 0]) < 1e-4)
True
"""

from __future__ import annotations

import sys

from ..basis.base import BasisSet
from ..engine.bundle import validate_basis_name
from ..errors import SolverError
from ..fractional.methods import (
    FRACTIONAL_METHODS,
    unknown_method_message,
)
from .opm_solver import simulate_opm

__all__ = ["simulate", "SIMULATION_METHODS", "FRACTIONAL_ZOO_METHODS"]

#: The pluggable fractional-operator discretisations (the method zoo);
#: each runs on a warm :class:`~repro.engine.session.Simulator` through
#: the same cached-pencil machinery as ``'opm'``.
FRACTIONAL_ZOO_METHODS = tuple(sorted(FRACTIONAL_METHODS))

#: Method names accepted by :func:`simulate`.
SIMULATION_METHODS = (
    "opm",
    "opm-windowed",
    "opm-adaptive",
    "opm-kron",
    "backward-euler",
    "trapezoidal",
    "gear2",
    "fft",
    "grunwald-letnikov",
    "expm",
) + FRACTIONAL_ZOO_METHODS

#: Methods restricted to first-order (``alpha == 1``) systems.
_FIRST_ORDER_ONLY = ("backward-euler", "trapezoidal", "gear2", "expm")


#: Methods that accept a ``basis=`` argument (the basis-generic engine).
_BASIS_GENERIC = ("opm", "opm-windowed") + FRACTIONAL_ZOO_METHODS


def simulate(
    system,
    u,
    t_end: float,
    steps: int | None = None,
    *,
    method: str | None = None,
    basis=None,
    jobs: int | None = None,
    parallel: str = "process",
    **kwargs,
):
    """Simulate ``system`` driven by ``u`` over ``[0, t_end)``.

    Parameters
    ----------
    system:
        Any model from :mod:`repro.core.lti`, a
        :class:`~repro.circuits.netlist.Netlist` -- netlists are
        assembled on the fly through
        :func:`repro.engine.netlist_session.build_system` (honouring
        their ``.ic`` card), their ``.tran`` / ``.options`` cards fill
        every setting not given here (``t_end=None`` / ``steps=None``
        defer to the cards; see
        :func:`repro.engine.netlist_session.resolve_deck_options`), and
        ``u=None`` means "drive with the deck's own source
        waveforms" -- or an
        :class:`~repro.engine.executor.Ensemble` of ``(system, u)``
        members, executed across ``jobs`` workers and returning a
        :class:`~repro.core.result.BatchResult`.  (Method
        support varies: the classical one-step schemes need
        ``alpha == 1``; the FFT and Grünwald-Letnikov baselines accept
        fractional orders; ensembles require the default ``'opm'``.)
    u:
        Input specification (callable, scalar, or -- for the OPM
        fixed-grid methods -- a coefficient array).  ``None`` is only
        meaningful for netlist systems (see above).
    t_end:
        Horizon.
    steps:
        Resolution: basis terms for OPM methods, time steps for the
        one-step schemes, sampling points for the FFT method.  Not used
        by ``'opm-adaptive'`` (pass ``rtol``/``atol`` instead).
    method:
        ``None`` (``'opm'``, or a netlist's ``.options method=``
        card) or one of :data:`SIMULATION_METHODS`: the OPM variants, the
        classical baselines, or a fractional zoo method from
        :data:`FRACTIONAL_ZOO_METHODS` (``'gl'``, ``'oustaloup'``,
        ``'jacobi'`` -- alternative discretisations of the fractional
        operator solved on a :class:`~repro.engine.session.Simulator`
        through the cached-pencil machinery; see
        :mod:`repro.fractional.methods`).  Unknown names raise with a
        typo suggestion and the full registered list.
    jobs:
        Worker count for ensemble execution (default: the usable CPU
        count).  Only meaningful when ``system`` is an
        :class:`~repro.engine.executor.Ensemble`; many inputs on a
        single system are one batched :meth:`repro.Simulator.sweep`.
    parallel:
        Ensemble executor backend: ``'process'`` (default) or
        ``'serial'``.
    basis:
        Basis family for the basis-generic OPM methods (``'opm'`` and
        ``'opm-windowed'``): ``None`` (block pulse), a name from
        :func:`repro.engine.bundle.basis_names`, or a
        :class:`~repro.basis.base.BasisSet` instance.  Unknown names
        raise with a typo suggestion and the list of valid families.
    **kwargs:
        Forwarded to the underlying solver.  Notably, the OPM methods
        (``'opm'``, ``'opm-windowed'``, and ensembles) accept
        ``reduce='auto' | int | ReductionPlan`` for certified
        reduce-then-sweep (see :mod:`repro.engine.reduction`).  A
        netlist takes the deck vocabulary (``backend``, ``reduce``,
        ``mor_order``, ``memory``, ``memory_rtol``, ``windows``) and
        ``events``.

    Returns
    -------
    SimulationResult | SampledResult
        Coefficient-based for OPM methods, node-based for the baselines;
        both expose ``outputs(times)`` /
        :func:`repro.analysis.sample_outputs`.
    """
    # ensembles and netlists sit in layers this module does not import
    # (the executor, repro.circuits): an instance can only exist once its
    # module is loaded, so detect them through sys.modules
    netlist_module = sys.modules.get("repro.circuits.netlist")
    is_netlist = netlist_module is not None and isinstance(
        system, netlist_module.Netlist
    )
    if not is_netlist:
        method = method or "opm"
        if method not in SIMULATION_METHODS:
            raise SolverError(unknown_method_message(method, SIMULATION_METHODS))
    executor_module = sys.modules.get("repro.engine.executor")
    if executor_module is not None and isinstance(system, executor_module.Ensemble):
        return _simulate_ensemble(
            system, u, t_end, steps, method=method, basis=basis,
            jobs=jobs, parallel=parallel, **kwargs,
        )
    if jobs is not None:
        raise SolverError(
            "jobs= is only meaningful when simulating an Ensemble; for "
            "many inputs on one system use Simulator.sweep(inputs)"
        )
    if is_netlist:
        return _simulate_netlist(
            system, u, t_end, steps, method=method, basis=basis, **kwargs
        )
    if u is None:
        raise SolverError(
            "u=None is only valid for Netlist systems (whose decks carry "
            "their own source waveforms)"
        )
    if basis is not None:
        if method not in _BASIS_GENERIC:
            raise SolverError(
                f"method {method!r} does not take a basis; only "
                f"{_BASIS_GENERIC} are basis-generic"
            )
        if not isinstance(basis, BasisSet):
            basis = validate_basis_name(basis)  # raises with suggestions
    if method in _FIRST_ORDER_ONLY:
        alpha = getattr(system, "alpha", 1.0)
        if alpha != 1.0:
            raise SolverError(
                f"method {method!r} requires a first-order system (alpha=1), "
                f"got alpha={alpha:g}; use 'opm', 'fft' or 'grunwald-letnikov' "
                "for fractional orders"
            )
    if method == "opm-adaptive":
        from .opm_adaptive import simulate_opm_adaptive

        return simulate_opm_adaptive(system, u, t_end, **kwargs)
    if steps is None:
        raise SolverError(f"method {method!r} requires steps")
    if method in FRACTIONAL_ZOO_METHODS:
        from ..engine import Simulator

        sim = Simulator(system, (t_end, steps), basis=basis, method=method, **kwargs)
        return sim.run(u)
    if method == "opm":
        return simulate_opm(system, u, (t_end, steps), basis=basis, **kwargs)
    if method == "opm-windowed":
        return _simulate_windowed(system, u, t_end, steps, basis=basis, **kwargs)
    if method == "opm-kron":
        from .kron_solver import simulate_opm_kron

        return simulate_opm_kron(system, u, (t_end, steps), **kwargs)
    if method in ("backward-euler", "trapezoidal", "gear2"):
        from ..baselines.transient import simulate_transient

        return simulate_transient(system, u, t_end, steps, method=method, **kwargs)
    if method == "fft":
        from ..baselines.fft_method import simulate_fft

        return simulate_fft(system, u, t_end, steps, **kwargs)
    if method == "grunwald-letnikov":
        from ..fractional.grunwald import simulate_grunwald_letnikov

        return simulate_grunwald_letnikov(system, u, t_end, steps, **kwargs)
    # method == "expm"
    from ..baselines.expm import simulate_expm

    return simulate_expm(system, u, t_end, steps, **kwargs)


def _simulate_netlist(netlist, u, t_end, steps, *, method, basis, events=(), **kwargs):
    """Netlist dispatch: assemble the deck and solve its transient with
    the settings :func:`~repro.engine.netlist_session.resolve_deck_options`
    merges from the arguments (``kwargs``: its deck vocabulary) and the
    deck's cards."""
    from ..engine import netlist_session

    options = netlist_session.resolve_deck_options(
        netlist.analysis, basis=basis, method=method, t_end=t_end,
        steps=steps, **kwargs,
    )
    system = netlist_session.build_system(netlist)
    return netlist_session._solve_transient(
        netlist, system, options, u=u, events=events
    )


def _simulate_ensemble(
    ensemble,
    u,
    t_end: float,
    steps: int | None,
    *,
    method: str,
    basis,
    jobs: int | None,
    parallel: str,
    **kwargs,
):
    """Ensemble dispatch (``system`` was an :class:`Ensemble`).

    Shards the members across ``jobs`` workers; ``u`` (if given) is the
    default input for members that carry none.
    """
    if method != "opm":
        raise SolverError(
            f"ensembles support method='opm' only, got {method!r}"
        )
    if steps is None:
        raise SolverError("ensemble simulation requires steps")
    from ..engine.executor import ParallelExecutor

    backend = kwargs.pop("backend", "auto")
    with ParallelExecutor(parallel, jobs=jobs) as executor:
        return executor.run(
            ensemble,
            (t_end, steps),
            basis=basis,
            u=u,
            solver_backend=backend,
            **kwargs,
        )


def _simulate_windowed(
    system,
    u,
    t_end: float,
    steps: int,
    *,
    windows: int = 1,
    events=(),
    basis=None,
    **kwargs,
):
    """One-shot windowed marching (``method='opm-windowed'``).

    ``steps`` is the *total* number of basis terms over ``[0, t_end]``;
    it must divide evenly into ``windows`` windows.  Repeated-march
    workloads should hold a :class:`~repro.engine.session.Simulator`
    bound to one window grid and call :meth:`march` directly.  With a
    spectral ``basis`` this is hybrid-function marching: ``steps /
    windows`` spectral coefficients per window.
    """
    from ..engine import Simulator

    windows = int(windows)
    if windows < 1:
        raise SolverError(f"windows must be >= 1, got {windows}")
    if steps % windows:
        raise SolverError(
            f"steps={steps} must be divisible by windows={windows} "
            "(every window carries the same number of basis terms)"
        )
    sim = Simulator(system, (t_end / windows, steps // windows), basis=basis, **kwargs)
    return sim.march(u, t_end, events=events)
