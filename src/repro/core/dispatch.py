"""Unified simulation entry point and the route table behind it.

:data:`ROUTES` holds one :class:`Route` per ``method=`` name -- the OPM
variants, the classical baselines and the fractional method zoo.  A row
says how its route runs (a lazily imported one-shot solver, or a warm
:class:`~repro.engine.session.Simulator` session) and which solve
settings and features it honours.  Every front door -- :func:`simulate`,
the deck resolver, the CLI and the service daemon -- takes its answers
from the row, and refuses anything else with the row's one message:

>>> ROUTES["trapezoidal"].refusal("windows")  # doctest: +NORMALIZE_WHITESPACE
"method 'trapezoidal' only supports a plain transient: windowed marching
runs on method='opm' or 'opm-windowed' only; drop the method or the
windows setting"

:func:`simulate` routes one call signature to every row, so scripts and
benchmarks can switch methods with a string:

>>> import numpy as np
>>> from repro.core import DescriptorSystem
>>> rc = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])
>>> opm = simulate(rc, 1.0, 5.0, 500)                      # OPM (default)
>>> trap = simulate(rc, 1.0, 5.0, 500, method="trapezoidal")
>>> bool(abs(opm.states_smooth([3.0])[0, 0] - trap.states([3.0])[0, 0]) < 1e-4)
True
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

from ..errors import OptionError, SolverError

__all__ = ["simulate", "ROUTES", "Route", "SIMULATION_METHODS"]

#: Why a route refuses a setting or feature it does not honour; ``{}``
#: lists the routes that do (see :meth:`Route.refusal`).
_REFUSALS = {
    "basis": "does not take a basis; only {} are basis-generic",
    "backend": "has no pencil backend to pick; backend applies to {} only",
    "reduce": "does not support model-order reduction; reduce/mor_order "
    "apply to {} only",
    "memory": "has no fractional memory tail to compress; "
    "memory/memory_rtol apply to {} only",
    "windows": "only supports a plain transient: windowed marching runs on "
    "{} only; drop the method or the windows setting",
    "events": "only supports a plain transient: events fire at the window "
    "boundaries of a march on {} only",
    "sweep": "cannot batch a sweep: batched multi-RHS sweeps run on a "
    "cached session of {} only",
    "ensemble": "cannot solve an ensemble: ensemble members run on {} only",
    "session": "is a one-shot baseline and cannot run on a warm session; "
    "use simulate_netlist() for it, or pick {}",
}

#: The resolved deck settings a row may honour (``reduce`` stands for
#: ``reduce``/``mor_order``, ``memory`` for ``memory``/``memory_rtol``);
#: the rest of :data:`_REFUSALS` are features.
SETTINGS = ("basis", "backend", "reduce", "memory", "windows")


@dataclass(frozen=True)
class Route:
    """One ``method=`` route: how it runs and what it honours.

    ``runner`` is the ``"module:function"`` of a one-shot solver, called
    as ``runner(system, u, t_end, steps)`` (``grid=(t_end, steps)`` with
    ``pair``; no ``steps`` when the route does not need them; plus
    ``method=<name>`` with ``scheme``), or ``None`` for a route that runs
    on a :class:`~repro.engine.session.Simulator` session (a march when
    ``marches`` or ``windows > 1``).  ``honours`` names the
    :data:`SETTINGS` and features (``events``, ``sweep``, ``ensemble``)
    the route takes; ``first_order`` routes need ``alpha == 1``.
    """

    name: str
    summary: str
    runner: str | None = None
    honours: tuple[str, ...] = ()
    first_order: bool = False
    steps: bool = True
    marches: bool = False
    pair: bool = False
    scheme: bool = False

    def refusal(self, option: str) -> str:
        """The one message every door gives for ``option`` on this route."""
        routes = [
            route.name
            for route in ROUTES.values()
            if (route.runner is None if option == "session" else option in route.honours)
        ]
        names = ", ".join(map(repr, routes[:-1]))
        names = f"{names} or {routes[-1]!r}" if names else repr(routes[-1])
        return f"method {self.name!r} " + _REFUSALS[option].format(f"method={names}")

    def require(self, option: str, error=OptionError) -> None:
        """Raise ``error`` (with :meth:`refusal`) unless the route
        honours ``option`` (``'session'``: runs on a warm session)."""
        honoured = self.runner is None if option == "session" else option in self.honours
        if not honoured:
            raise error(self.refusal(option))

    def solve(self, system, u, options, *, events=(), **extra):
        """Run ``system`` driven by ``u`` with the resolved ``options``
        (a :class:`~repro.engine.netlist_session.DeckOptions`); ``extra``
        keywords go to the solver (``rtol``/``atol`` for an adaptive run)."""
        alpha = getattr(system, "alpha", 1.0)
        if self.first_order and alpha != 1.0:
            fractional = [r.name for r in ROUTES.values() if not r.first_order]
            raise OptionError(
                f"method {self.name!r} requires a first-order system (alpha=1), "
                f"got alpha={alpha:g}; use one of {tuple(fractional)} for "
                "fractional orders"
            )
        if events:
            self.require("events")
        if not self.steps:
            return self._runner()(system, u, options.t_end, **extra)
        t_end, steps = options.grid()
        if self.runner is not None:
            kwargs = {name: getattr(options, name) for name in SETTINGS if name in self.honours}
            if self.scheme:
                kwargs["method"] = self.name
            grid = ((t_end, steps),) if self.pair else (t_end, steps)
            return self._runner()(system, u, *grid, **kwargs, **extra)
        windows = options.windows
        if self.marches or windows > 1:
            if steps % windows:
                raise OptionError(
                    f"steps={steps} must be divisible by windows={windows} "
                    "(every window carries the same number of basis terms)"
                )
            sim = options.session(system, (t_end / windows, steps // windows))
            return sim.march(u, t_end, events=events, **extra)
        if events:
            raise OptionError(
                "events fire at window boundaries: pass windows >= 2 (the "
                "CLI's --windows K) so event times land strictly inside the "
                "horizon"
            )
        start = time.perf_counter()
        result = options.session(system).run(u, **extra)
        # one-shot call: charge session assembly + factorisation to the run
        result.wall_time = time.perf_counter() - start
        return result

    def _runner(self):
        module, _, function = self.runner.partition(":")
        return getattr(importlib.import_module(module), function)


_ZOO = ("basis", "backend", "sweep")
_TRANSIENT = "repro.baselines.transient:simulate_transient"

#: Every route, by method name, in the order the CLI help and the
#: README list them; the first is the default.
ROUTES = {
    route.name: route
    for route in (
        Route("opm", "OPM column sweep (default; uniform or adaptive grids, any order)",
              honours=SETTINGS + ("events", "sweep", "ensemble")),
        Route("opm-windowed", "windowed time-marching (long horizons, mid-run events, any order)",
              honours=SETTINGS + ("events",), marches=True),
        Route("opm-adaptive", "OPM with on-the-fly step-doubling error control (first order)",
              runner="repro.core.opm_adaptive:simulate_opm_adaptive", first_order=True,
              steps=False),
        Route("opm-kron", "explicit Kronecker reference solve of eqs. (15)/(27) (validation)",
              runner="repro.core.kron_solver:simulate_opm_kron", pair=True),
        Route("backward-euler", "classical one-step transient baseline (first order)",
              runner=_TRANSIENT, first_order=True, scheme=True),
        Route("trapezoidal", "classical one-step transient baseline (first order)",
              runner=_TRANSIENT, first_order=True, scheme=True),
        Route("gear2", "BDF2 transient baseline (first order)",
              runner=_TRANSIENT, first_order=True, scheme=True),
        Route("fft", "frequency-domain (FFT) baseline, fractional-capable",
              runner="repro.baselines.fft_method:simulate_fft"),
        Route("grunwald-letnikov", "fractional time-stepping baseline",
              runner="repro.fractional.grunwald:simulate_grunwald_letnikov",
              honours=("memory",)),
        Route("expm", "matrix-exponential reference (first order, regular `E`)",
              runner="repro.baselines.expm:simulate_expm", first_order=True),
        Route("gl", "fractional method zoo: GL convolution quadrature as an operational matrix",
              honours=_ZOO),
        Route("jacobi", "fractional method zoo: Jacobi–Gauss spectral collocation matrix",
              honours=_ZOO),
        Route("oustaloup",
              "fractional method zoo: band-limited Oustaloup/CFE rational fit of `s^-α`",
              honours=_ZOO),
    )
}

#: Method names accepted by :func:`simulate`.
SIMULATION_METHODS = tuple(ROUTES)


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
        defer to the cards), and ``u=None`` means "drive with the deck's
        own source waveforms" -- or an
        :class:`~repro.engine.executor.Ensemble` of ``(system, u)``
        members, executed across ``jobs`` workers and returning a
        :class:`~repro.core.result.BatchResult`.  What each method
        supports (``alpha != 1``, ensembles, a basis, ...) is its
        :data:`ROUTES` row.
    u:
        Input specification (callable, scalar, or -- for the OPM
        fixed-grid methods -- a coefficient array).  ``None`` is only
        meaningful for netlist systems (see above).
    t_end:
        Horizon.
    steps:
        Resolution: basis terms for OPM methods, time steps for the
        one-step schemes, sampling points for the FFT method.  Routes
        that need none (an adaptive controller) take ``rtol``/``atol``.
    method:
        ``None`` (the first :data:`ROUTES` row, or a netlist's
        ``.options method=`` card) or a :data:`ROUTES` name.  Unknown
        names raise with a typo suggestion and the full list.
    jobs:
        Worker count for ensemble execution (default: the usable CPU
        count).  Only meaningful when ``system`` is an
        :class:`~repro.engine.executor.Ensemble`; many inputs on a
        single system are one batched :meth:`repro.Simulator.sweep`.
    parallel:
        Ensemble executor backend: ``'process'`` (default) or
        ``'serial'``.
    basis:
        Basis family for the basis-generic routes: ``None`` (block
        pulse), a name from :func:`repro.engine.bundle.basis_names`, or
        a :class:`~repro.basis.base.BasisSet` instance.  Unknown names
        raise with a typo suggestion and the list of valid families.
    **kwargs:
        The deck vocabulary (``backend``, ``reduce``, ``mor_order``,
        ``memory``, ``memory_rtol``, ``windows``), merged with the
        cards by :func:`repro.engine.options.resolve_deck_options`
        exactly as every other door merges it, and ``events``; anything
        else is forwarded to the route's solver.  A route refuses a
        setting its row does not honour with a
        :class:`~repro.errors.OptionError`.

    Returns
    -------
    SimulationResult | SampledResult
        Coefficient-based for OPM methods, node-based for the baselines;
        both expose ``outputs(times)`` /
        :func:`repro.analysis.sample_outputs`.
    """
    from ..engine.options import OPTION_ROWS, resolve_deck_options

    # netlists and ensembles sit in layers this module does not import
    # (repro.circuits, the executor): an instance can only exist once
    # its module is loaded, so detect them through sys.modules
    netlist_module = sys.modules.get("repro.circuits.netlist")
    is_netlist = netlist_module is not None and isinstance(
        system, netlist_module.Netlist
    )
    executor_module = sys.modules.get("repro.engine.executor")
    is_ensemble = executor_module is not None and isinstance(
        system, executor_module.Ensemble
    )
    # the deck vocabulary resolves; the rest goes to the route's solver
    settings = {
        row.keyword: kwargs.pop(row.keyword)
        for row in OPTION_ROWS.values()
        if row.keyword in kwargs
    }
    options = resolve_deck_options(
        system.analysis if is_netlist else None,
        t_end=t_end, steps=steps, method=method, basis=basis, **settings,
    )
    if is_ensemble:
        from ..engine import netlist_session

        return netlist_session._solve_ensemble(
            None, options, system, None, u=u, jobs=jobs, parallel=parallel, **kwargs,
        )
    if jobs is not None:
        raise SolverError(
            "jobs= is only meaningful when simulating an Ensemble; for "
            "many inputs on one system use Simulator.sweep(inputs)"
        )
    if is_netlist:
        from ..engine import netlist_session

        return netlist_session._solve_transient(
            system, netlist_session.build_system(system), options, u=u, **kwargs
        )
    if u is None:
        raise SolverError(
            "u=None is only valid for Netlist systems (whose decks carry "
            "their own source waveforms)"
        )
    return options.route.solve(system, u, options, **kwargs)
