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

from dataclasses import dataclass

import numpy as np

from ..circuits.cards import AcCard
from ..circuits.graph import CircuitGraph, LintReport
from ..circuits.mna import assemble_mna
from ..circuits.netlist import Netlist
from ..errors import NetlistError, OptionError, SolverError
from .options import DeckOptions, resolve_deck_options
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
    netlist: Netlist, system, options: DeckOptions, *, u=None, events=(), **extra
):
    """Run the deck's transient on the route ``options`` select (see
    :meth:`repro.core.dispatch.Route.solve`); ``u=None`` drives the
    deck's own source waveforms."""
    if u is None:
        u = netlist.input_function()
    return options.route.solve(system, u, options, events=events, **extra)


def _solve_ensemble(
    netlist: Netlist | None, options: DeckOptions, ensemble, outputs, *,
    u=None, jobs=None, parallel: str = "process", use_ic: bool = True,
):
    """Solve an ensemble (spec dict or ready
    :class:`~repro.engine.executor.Ensemble`) on the deck's grid; spec
    members start from the deck's ``.ic`` voltages unless ``use_ic`` is
    off, like the deck's own transient.  ``u`` drives members that
    carry no input; each solves on one window (``windows > 1`` is refused)."""
    options.route.require("ensemble")
    if options.windows > 1:
        raise OptionError(
            f"an ensemble solves each member in one window: drop windows={options.windows}"
        )
    grid = options.grid()
    from .executor import Ensemble, ParallelExecutor

    if not isinstance(ensemble, Ensemble):
        ensemble = Ensemble.from_spec(
            netlist, ensemble, outputs=outputs,
            ic=netlist.analysis.ic if use_ic else None,
        )
    with ParallelExecutor(parallel, jobs=jobs) as executor:
        return executor.run(
            ensemble, grid, basis=options.basis, u=u,
            solver_backend=options.backend, reduce=options.reduce,
            memory=options.memory,
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
    transient runs on the method's :data:`~repro.core.dispatch.ROUTES`
    row: a cached :class:`Simulator` session (``run``, or ``march``
    when ``windows > 1``) or a one-shot baseline solver.  An ``.ac``
    card adds a small-signal :func:`ac_scan`.

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
        of :data:`repro.engine.options.OPTION_ROWS`: ``steps`` (the term
        count, card ``m``), ``basis``, ``method``, ``windows``,
        ``backend``, ``reduce`` / ``mor_order`` (certified model-order
        reduction; see :mod:`repro.engine.reduction`) and ``memory`` /
        ``memory_rtol`` (fractional-memory compression; see
        :mod:`repro.fractional.soe`), each where the method's route
        honours it.
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

    ensemble_result = None
    if ensemble is not None:
        ensemble_result = _solve_ensemble(
            netlist, options, ensemble, output_names,
            jobs=jobs, parallel=parallel, use_ic=use_ic,
        )
    tran = None
    if options.t_end is not None:
        tran = _solve_transient(netlist, system, options)

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
