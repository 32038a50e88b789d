"""Netlist-native simulation sessions: the SPICE front door.

This module turns a parsed :class:`~repro.circuits.netlist.Netlist`
(or a ``.cir`` file) directly into engine work, executing the deck's
:class:`~repro.circuits.cards.AnalysisSpec`:

* :func:`build_system` -- graph lint (floating nodes, missing DC
  paths; see :mod:`repro.circuits.graph`) followed by MNA assembly
  honouring ``.ic`` initial node voltages -- the single choke point
  every front door (library, CLI, service daemon) assembles through,
  so structural deck defects fail fast with named nodes/elements
  instead of a singular pencil deep in the solver;
* :func:`lint_netlist` -- the standalone lint report (the CLI's
  ``--lint`` flag and the service daemon's ``lint`` op);
* :func:`resolve_deck_options` -- the one "explicit > deck card >
  default" merge of the solve settings (grid, basis, method, backend,
  reduction, memory, windows) behind every front door;
* :func:`from_netlist` (also reachable as
  :meth:`repro.Simulator.from_netlist`) -- a warm cached
  :class:`~repro.engine.session.Simulator` whose grid, basis, and
  backend default to the deck's ``.tran`` / ``.options`` cards and
  whose input channels are bound to the parsed source waveforms, so
  ``sim.run()`` needs no arguments;
* :func:`ac_scan` -- ``.ac`` small-signal sweeps through
  :func:`repro.analysis.frequency.frequency_response`, driven by the
  sources' ``AC`` magnitudes;
* :func:`simulate_netlist` -- the one-call driver: parse,
  graph-analyse, assemble, run every requested analysis (``.tran``
  through ``run``/``march``, ``.ac`` through the frequency sweep), and
  return a :class:`NetlistRun`.  An ``ensemble=`` runs its members
  through the :class:`~repro.engine.executor.ParallelExecutor`.

Example
-------
>>> from repro.engine.netlist_session import simulate_netlist
>>> run = simulate_netlist('''
... I1 0 n1 SIN(0 1m 100)
... R1 n1 0 1k
... C1 n1 0 1u
... .tran 50u 10m
... ''')
>>> run.tran.info['basis']
'BlockPulse'
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..circuits.cards import OPTION_ROWS, AcCard
from ..circuits.graph import CircuitGraph, LintReport
from ..circuits.mna import assemble_mna
from ..circuits.netlist import Netlist
from ..errors import NetlistError, SolverError
from ..fractional.methods import FractionalMethod, validate_method_name
from ..fractional.soe import resolve_memory
from .reduction import combine_reduce_options
from .session import Simulator

__all__ = [
    "build_system",
    "lint_netlist",
    "from_netlist",
    "ac_scan",
    "simulate_netlist",
    "resolve_deck_options",
    "DeckOptions",
    "AcScan",
    "NetlistRun",
]

#: Transient methods served natively by the cached-session engine; any
#: other name is routed through :func:`repro.core.dispatch.simulate`.
_SESSION_METHODS = ("opm", "opm-windowed")


def _as_netlist(source, title: str = "") -> Netlist:
    """Coerce a :class:`Netlist`, deck text, or file path to a netlist.

    A string containing a newline is parsed as deck text; anything else
    (plain string or :class:`~pathlib.Path`) is read as a file.
    """
    if isinstance(source, Netlist):
        return source
    if isinstance(source, str) and "\n" in source:
        return Netlist.from_spice(source, title=title)
    return Netlist.from_spice_file(source)


@dataclass(frozen=True)
class DeckOptions:
    """The resolved settings of one deck solve.

    Built only by :func:`resolve_deck_options`, which applies the
    "explicit argument > ``.options``/``.tran`` card > default" rule
    once for every front door (library, CLI, service daemon).
    ``memory`` is the resolved fractional-memory plan: ``None`` (exact)
    or an :class:`~repro.fractional.soe.SoePlan` carrying the deck's
    ``memory_rtol``.
    """

    basis: object
    method: object
    backend: str
    reduce: object
    memory: object
    windows: int
    t_end: float | None
    steps: int | None

    @property
    def native(self) -> bool:
        """True for the native cached-session routes (``_SESSION_METHODS``)."""
        return self.method in _SESSION_METHODS

    def grid(self) -> tuple[float, int]:
        """The transient grid ``(t_end, steps)``; raises when unknown."""
        if self.t_end is None:
            raise NetlistError(
                "no transient horizon: the deck has no .tran card; pass "
                "t_end= (or grid=(t_end, m)) explicitly"
            )
        if self.steps is None:
            raise NetlistError(
                "transient requested without a term count: add a .tran card "
                "or pass steps="
            )
        return self.t_end, self.steps

    def session(self, system, grid=None) -> Simulator:
        """A warm :class:`Simulator` with these settings on ``grid``
        (default: :meth:`grid`)."""
        from ..core.dispatch import FRACTIONAL_ZOO_METHODS

        method = None if self.native else self.method
        if method is not None and not (
            isinstance(method, FractionalMethod) or method in FRACTIONAL_ZOO_METHODS
        ):
            raise NetlistError(
                f"method {method!r} is a one-shot baseline and cannot run on a "
                "warm session; use simulate_netlist() for it, or pick 'opm' or "
                f"one of {FRACTIONAL_ZOO_METHODS}"
            )
        return Simulator(
            system,
            grid if grid is not None else self.grid(),
            basis=self.basis,
            backend=self.backend,
            method=method,
            reduce=self.reduce,
            memory=self.memory,
        )


#: The deck-option rows by library keyword (``steps`` is the ``m`` row).
_ROWS_BY_KEYWORD = {row.keyword: row for row in OPTION_ROWS.values()}


def resolve_deck_options(analysis, *, t_end=None, **given) -> DeckOptions:
    """Merge explicit settings with a deck's cards into :class:`DeckOptions`.

    ``given`` holds the explicit settings by library keyword (the rows
    of :data:`repro.circuits.cards.OPTION_ROWS`; ``steps`` sets the
    ``m`` row), ``None`` meaning "not given".  Each is parsed by its
    row, then falls back to its ``.options`` card (``analysis`` is the
    deck's :class:`~repro.circuits.cards.AnalysisSpec`), then to the
    default.  The rules every front door shares:

    * grid: ``t_end`` falls back to the ``.tran`` horizon; ``steps`` to
      ``.options m=``, then the ``.tran`` card's ``tstop / tstep``;
    * reduction: ``reduce`` / ``mor_order`` combine through
      :func:`~repro.engine.reduction.combine_reduce_options` (a moment
      count implies reduction);
    * memory: resolves to ``None`` (exact) or an
      :class:`~repro.fractional.soe.SoePlan`; an explicit
      ``memory_rtol`` alone implies ``'soe'`` and with exact memory is
      an error; the ``.options memory_rtol=`` card applies only to a
      plan named ``'soe'`` (by a card or explicitly), so a bare card
      never turns compression on and never retunes a ready plan;
    * ``basis`` and ``method`` names are validated with a did-you-mean
      diagnostic (a ready :class:`~repro.fractional.methods.
      FractionalMethod` or basis instance passes through);
    * a method other than ``'opm'`` / ``'opm-windowed'`` rejects
      windowed marching and reduction, and memory compression needs
      the native route or the ``'grunwald-letnikov'`` baseline.
    """
    from ..core.dispatch import SIMULATION_METHODS
    from .bundle import basis_names, validate_basis_name

    explicit = {}
    for keyword, value in given.items():
        row = _ROWS_BY_KEYWORD.get(keyword)
        if row is None:
            raise TypeError(
                f"resolve_deck_options() got an unexpected keyword argument "
                f"{keyword!r}"
            )
        if value is not None:
            explicit[row.name] = row.parse(value, instances=True)
    merged = {**analysis.options, **explicit}

    tran = analysis.tran
    if t_end is None and tran is not None:
        t_end = tran.tstop
    steps = merged.get("m") or (tran.steps if tran is not None else None)

    basis = merged.get("basis")
    if isinstance(basis, str):
        basis = validate_basis_name(basis)
        if basis == "laguerre":
            raise NetlistError(
                "basis 'laguerre' needs an explicit time scale, which a name "
                "cannot carry: use the library API with a LaguerreBasis(a, m) "
                "instance, or pick one of "
                + ", ".join(n for n in basis_names() if n != "laguerre")
            )
    method = merged.get("method", "opm")
    if not isinstance(method, FractionalMethod):
        method = validate_method_name(
            method, SIMULATION_METHODS, context="method", error=NetlistError
        )
    reduce = combine_reduce_options(merged.get("reduce"), merged.get("mor_order"))
    memory = merged.get("memory")
    if memory is None and "memory_rtol" in explicit:
        memory = "soe"
    plan = resolve_memory(memory)
    rtol = explicit.get("memory_rtol")
    if rtol is None and isinstance(memory, str):
        rtol = analysis.memory_rtol
    if plan is not None and rtol is not None:
        plan = replace(plan, rtol=rtol)
    elif plan is None and "memory_rtol" in explicit:
        raise SolverError(
            "memory_rtol is only meaningful with memory='soe' "
            "(exact memory has no approximation tolerance)"
        )
    windows = merged.get("windows", 1)

    name = getattr(method, "name", method)
    if method not in _SESSION_METHODS:
        if windows > 1:
            raise NetlistError(
                f"method {name!r} only supports a plain transient: windowed "
                "marching is an engine-session feature; drop the method or "
                "the windows setting"
            )
        if reduce is not None:
            raise NetlistError(
                f"method {name!r} does not support model-order reduction; "
                "reduce/mor_order apply to the OPM engine only"
            )
    if plan is not None and method not in (
        _SESSION_METHODS + ("grunwald-letnikov",)
    ):
        raise NetlistError(
            f"method {name!r} has no fractional memory tail to compress; "
            "memory/memory_rtol apply to the OPM engine and the "
            "grunwald-letnikov baseline only"
        )
    return DeckOptions(
        basis=basis,
        method=method,
        backend=merged.get("backend", "auto"),
        reduce=reduce,
        memory=plan,
        windows=windows,
        t_end=None if t_end is None else float(t_end),
        steps=steps,
    )


def lint_netlist(source, title: str = "") -> LintReport:
    """Graph-lint a deck without assembling or solving it.

    Parses ``source`` (netlist / deck text / path) and returns the
    :class:`~repro.circuits.graph.LintReport` of its circuit graph --
    floating nodes and components without a DC path, each naming the
    offending nodes/elements with a fix hint.  This is what the CLI's
    ``--lint`` flag and the service daemon's ``lint`` op expose.
    """
    return CircuitGraph(_as_netlist(source, title)).lint()


def build_system(netlist: Netlist, outputs=None, *, sparse: str = "auto",
                 use_ic: bool = True, lint: bool = True):
    """Graph-lint and assemble the netlist's MNA model.

    Wrapper over :func:`repro.circuits.mna.assemble_mna` that first
    runs the circuit-graph lint (floating nodes, missing DC path --
    ``lint=False`` skips it) so structural defects raise a
    :class:`~repro.errors.NetlistError` naming the offending
    nodes/elements *before* factorisation instead of surfacing as a
    :class:`~repro.errors.SingularPencilError` inside the solver, and
    then threads the deck's ``.ic`` initial node voltages into the
    model's ``x0`` (disable with ``use_ic=False``).
    """
    if lint:
        CircuitGraph(netlist).check()
    ic = netlist.analysis.ic if use_ic else None
    return assemble_mna(netlist, outputs=outputs, sparse=sparse, ic=ic)


def from_netlist(
    netlist,
    grid=None,
    *,
    outputs=None,
    basis=None,
    sparse: str = "auto",
    use_ic: bool = True,
    backend=None,
    method=None,
    reduce=None,
    memory=None,
    memory_rtol=None,
) -> Simulator:
    """Build a cached :class:`Simulator` session straight from a netlist.

    Parameters
    ----------
    netlist:
        A :class:`Netlist`, deck text (with newlines), or ``.cir`` path.
    grid:
        Session grid (:class:`~repro.basis.grid.TimeGrid`, ``(t_end,
        m)`` tuple, or basis instance).  ``None`` derives it from the
        deck's ``.tran`` card and ``.options m=``.
    outputs:
        Node names to expose as model outputs (default: every node).
    basis, backend, method, reduce, memory, memory_rtol:
        Session settings; ``None`` defers to the matching ``.options``
        card, merged by :func:`resolve_deck_options` exactly as the CLI
        and the service daemon merge them.  ``memory_rtol`` is the deck
        spelling of the tolerance; it resolves into the session's
        :class:`~repro.fractional.soe.SoePlan`.
    sparse, use_ic:
        Forwarded to :func:`build_system`.

    The parsed source waveforms are bound to the session
    (:meth:`Simulator.bind_input`), so ``sim.run()`` and
    ``sim.march(None, t_end)`` simulate the deck's own drive without
    re-supplying it.

    Examples
    --------
    >>> sim = from_netlist('''
    ... I1 0 n1 1m
    ... R1 n1 0 1k
    ... C1 n1 0 1u
    ... .tran 50u 5m
    ... ''')
    >>> sim.grid.m, sim.runs
    (100, 0)
    >>> bool(abs(sim.run().states([5e-3])[0, 0] - 1.0) < 1e-2)
    True
    """
    netlist = _as_netlist(netlist)
    output_names = list(outputs) if outputs is not None else list(netlist.nodes)
    system = build_system(netlist, outputs=output_names, sparse=sparse, use_ic=use_ic)
    pair = isinstance(grid, (tuple, list))
    options = resolve_deck_options(
        netlist.analysis,
        basis=basis,
        method=method,
        backend=backend,
        reduce=reduce,
        memory=memory,
        memory_rtol=memory_rtol,
        t_end=grid[0] if pair else None,
        steps=grid[1] if pair else None,
    )
    sim = options.session(system, None if pair else grid)
    sim.bind_input(netlist.input_function())
    return sim


@dataclass(frozen=True)
class AcScan:
    """Result of one ``.ac`` small-signal sweep.

    ``response[k, j]`` is the complex phasor of output ``outputs[j]``
    at ``frequencies[k]`` hertz, for the excitation declared by the
    sources' ``AC`` magnitudes (see
    :meth:`~repro.circuits.netlist.Netlist.ac_vector`).
    """

    frequencies: np.ndarray
    response: np.ndarray
    outputs: tuple[str, ...]
    card: AcCard

    @property
    def n_points(self) -> int:
        return int(self.frequencies.size)

    def magnitude(self) -> np.ndarray:
        """``|H|`` per point and output, shape ``(nf, q)``."""
        return np.abs(self.response)

    def magnitude_db(self) -> np.ndarray:
        """``20 log10 |H|`` per point and output, shape ``(nf, q)``."""
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.abs(self.response))

    def phase_deg(self) -> np.ndarray:
        """Phase in degrees per point and output, shape ``(nf, q)``."""
        return np.degrees(np.angle(self.response))

    def __repr__(self) -> str:
        return (
            f"AcScan({self.n_points} points, "
            f"{self.frequencies[0]:g}..{self.frequencies[-1]:g} Hz, "
            f"outputs={list(self.outputs)})"
        )


def ac_scan(netlist, system=None, card=None, *, outputs=None) -> AcScan:
    """Run an ``.ac`` sweep of a netlist through the transfer function.

    Parameters
    ----------
    netlist:
        A :class:`Netlist`, deck text, or file path.
    system:
        Pre-assembled model (assembled from the netlist when ``None``;
        its outputs must match ``outputs``).
    card:
        The sweep card (default: the deck's ``.ac`` card).
    outputs:
        Output node names (default: every node).

    Examples
    --------
    >>> scan = ac_scan('''
    ... I1 0 n1 AC 1
    ... R1 n1 0 1k
    ... C1 n1 0 1u
    ... .ac dec 1 1 1000
    ... ''')
    >>> scan.n_points, float(round(scan.magnitude()[0, 0], 2))
    (4, 999.98)
    """
    netlist = _as_netlist(netlist)
    if card is None:
        card = netlist.analysis.ac
        if card is None:
            raise NetlistError(
                "AC analysis requested but the deck has no .ac card"
            )
    output_names = tuple(outputs) if outputs is not None else tuple(netlist.nodes)
    if system is None:
        system = build_system(netlist, outputs=output_names)
    from ..analysis.frequency import frequency_response

    H = frequency_response(system, card.omegas())  # (nf, q, p)
    excitation = netlist.ac_vector()
    response = np.einsum("fqp,p->fq", H, excitation)
    return AcScan(
        frequencies=card.frequencies(),
        response=response,
        outputs=output_names,
        card=card,
    )


@dataclass(frozen=True)
class NetlistRun:
    """Everything one deck's analyses produced.

    Attributes
    ----------
    netlist, system:
        The parsed circuit and its assembled model.
    outputs:
        Output node names, in the order of the result rows/columns.
    tran:
        The transient result
        (:class:`~repro.core.result.SimulationResult`,
        :class:`~repro.core.result.MarchingResult`, or a baseline's
        sampled result), ``None`` when no transient ran.
    ac:
        The :class:`AcScan`, ``None`` when no ``.ac`` sweep ran.
    ensemble:
        The members' :class:`~repro.core.result.BatchResult`, ``None``
        when no ``ensemble=`` was given.
    """

    netlist: Netlist
    system: object
    outputs: tuple[str, ...]
    tran: object | None = None
    ac: AcScan | None = None
    ensemble: object | None = None

    def __repr__(self) -> str:
        ran = [
            label
            for label, result in (
                ("tran", self.tran),
                ("ac", self.ac),
                ("ensemble", self.ensemble),
            )
            if result is not None
        ]
        return (
            f"NetlistRun({self.netlist.title!r}, outputs={list(self.outputs)}, "
            f"analyses={ran})"
        )


def _solve_transient(
    netlist: Netlist, system, options: DeckOptions, *, u=None, events=()
):
    """Run the deck's transient on the route ``options`` select.

    Non-session methods go through :func:`repro.core.dispatch.simulate`;
    ``windows > 1`` (or ``'opm-windowed'``) marches one cached session,
    firing ``events`` at window boundaries; anything else is one session
    run.  ``u=None`` drives the deck's own source waveforms.
    """
    windows = options.windows
    marches = options.native and (windows > 1 or options.method == "opm-windowed")
    if events and not marches:
        raise NetlistError(
            "events fire at window boundaries: pass windows >= 2 so event "
            "times can land strictly inside the horizon"
        )
    t_end, m = options.grid()
    if u is None:
        u = netlist.input_function()
    if not options.native:
        from ..core.dispatch import FRACTIONAL_ZOO_METHODS, simulate

        method_kwargs: dict[str, object] = {}
        if options.method == "grunwald-letnikov":
            # The GL baseline is the only non-session method with a
            # history tail to compress.
            method_kwargs["memory"] = options.memory
        elif options.method in FRACTIONAL_ZOO_METHODS:
            # zoo methods run on a Simulator inside dispatch: give
            # them the session backend the deck/caller picked
            method_kwargs["backend"] = options.backend
        return simulate(
            system, u, t_end, m, method=options.method, basis=options.basis,
            **method_kwargs,
        )
    if marches:
        if m % windows:
            raise NetlistError(f"steps={m} must be divisible by windows={windows}")
        sim = options.session(system, (t_end / windows, m // windows))
        return sim.march(u, t_end, events=events)
    return options.session(system).run(u)


def _solve_ensemble(
    netlist: Netlist, options: DeckOptions, ensemble, outputs, *,
    jobs=None, parallel: str = "process", use_ic: bool = True,
):
    """Solve an ensemble (spec dict or ready
    :class:`~repro.engine.executor.Ensemble`) on the deck's grid; spec
    members start from the deck's ``.ic`` voltages unless ``use_ic`` is
    off, like the deck's own transient."""
    from .executor import Ensemble, ParallelExecutor

    grid = options.grid()
    if not isinstance(ensemble, Ensemble):
        ensemble = Ensemble.from_spec(
            netlist, ensemble, outputs=outputs,
            ic=netlist.analysis.ic if use_ic else None,
        )
    with ParallelExecutor(parallel, jobs=jobs) as executor:
        return executor.run(
            ensemble, grid, basis=options.basis, solver_backend=options.backend,
            reduce=options.reduce, memory=options.memory,
        )


def simulate_netlist(
    source,
    *,
    title: str = "",
    outputs=None,
    t_end: float | None = None,
    sparse: str = "auto",
    use_ic: bool = True,
    ensemble=None,
    jobs: int | None = None,
    parallel: str = "process",
    **settings,
) -> NetlistRun:
    """Parse a deck and run every analysis it (or the caller) requests.

    The deck's cards provide the defaults -- ``.tran`` the horizon and
    term count, ``.options`` the basis / method / window count /
    backend / reduction / memory -- and every keyword argument that is
    not ``None`` overrides its card; :func:`resolve_deck_options` does
    the merge, the same one the CLI and the service daemon use.  The
    transient routes through a cached :class:`Simulator` session
    (``run``, or ``march`` when ``windows > 1``); other ``method``
    names (``'trapezoidal'``, ``'fft'``, ...) route through
    :func:`repro.core.dispatch.simulate`.  An ``.ac`` card adds a
    small-signal :func:`ac_scan`.

    Parameters
    ----------
    source:
        A :class:`Netlist`, deck text (with newlines), or file path.
    title:
        Title for text sources (file sources use the file stem).
    outputs:
        Output node names (default: every node).
    t_end:
        Transient horizon override.  A transient runs when the deck has
        a ``.tran`` card or ``t_end`` is given.
    **settings:
        Overrides for the deck's ``.options`` cards, one keyword per row
        of :data:`repro.circuits.cards.OPTION_ROWS`: ``steps`` (the term
        count, card ``m``), ``basis``, ``method``, ``windows``,
        ``backend``, ``reduce`` / ``mor_order`` (certified model-order
        reduction, session methods and ensembles only; see
        :mod:`repro.engine.reduction`) and ``memory`` / ``memory_rtol``
        (fractional-memory compression, session methods and the
        ``'grunwald-letnikov'`` baseline; see :mod:`repro.fractional.soe`).
    sparse, use_ic:
        Forwarded to :func:`build_system`.
    ensemble:
        Optional per-deck corner sweep / Monte-Carlo specification: a
        JSON-style dict (see
        :meth:`repro.engine.executor.Ensemble.from_spec`) or a ready
        :class:`~repro.engine.executor.Ensemble`.  The members are
        solved on the deck's transient grid across ``jobs`` workers
        (``parallel`` backend) and returned as
        :attr:`NetlistRun.ensemble`.
    jobs, parallel:
        Ensemble worker count and executor backend (``'process'`` or
        ``'serial'``); ``jobs`` without ``ensemble`` raises
        :class:`~repro.errors.SolverError`, as in
        :func:`repro.core.dispatch.simulate`.

    Examples
    --------
    >>> run = simulate_netlist('''
    ... V1 in 0 DC 0 AC 1 SIN(0 1 100)
    ... R1 in out 1k
    ... C1 out 0 1u
    ... .tran 100u 10m
    ... .ac dec 2 10 10k
    ... ''')
    >>> run.tran is not None and run.ac is not None
    True
    >>> run.outputs
    ('in', 'out')
    """
    if jobs is not None and ensemble is None:
        raise SolverError(
            "jobs= is only meaningful with ensemble=; a deck's own "
            "transient is one in-process session solve"
        )
    netlist = _as_netlist(source, title)
    spec = netlist.analysis
    output_names = tuple(outputs) if outputs is not None else tuple(netlist.nodes)
    system = build_system(netlist, outputs=output_names, sparse=sparse, use_ic=use_ic)
    options = resolve_deck_options(spec, t_end=t_end, **settings)

    tran = None
    if options.t_end is not None:
        tran = _solve_transient(netlist, system, options)
    ensemble_result = None
    if ensemble is not None:
        ensemble_result = _solve_ensemble(
            netlist, options, ensemble, output_names,
            jobs=jobs, parallel=parallel, use_ic=use_ic,
        )

    ac = None
    if spec.ac is not None:
        ac = ac_scan(netlist, system=system, card=spec.ac, outputs=output_names)

    return NetlistRun(
        netlist=netlist,
        system=system,
        outputs=output_names,
        tran=tran,
        ac=ac,
        ensemble=ensemble_result,
    )
