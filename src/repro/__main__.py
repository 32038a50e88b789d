"""Command-line interface: simulate a SPICE netlist with OPM.

Usage::

    python -m repro --netlist circuit.cir
    python -m repro circuit.sp --t-end 5e-3 --steps 500 \\
        --outputs n1 n2 --csv waveforms.csv

Reads a netlist (R/C/L/K/I/V cards with SIN/PULSE/PWL/EXP transient
sources, plus the ``P`` constant-phase-element extension -- see
:mod:`repro.circuits.netlist`), assembles the MNA model (automatically
dispatching to the fractional or multi-term solver when CPEs are
present), and executes the deck's analysis cards: ``.tran`` fixes the
horizon and resolution (so ``--t-end`` becomes optional), ``.ac`` adds
a small-signal frequency sweep, ``.ic`` sets initial node voltages,
and ``.options`` pre-selects basis/method/m/windows.  Command-line
flags override their matching cards.  Transient samples go to
``--csv``, AC sweeps to ``--ac-csv``.

Hierarchical decks are supported natively: ``.subckt name ports
[param=val ...]`` / ``.ends`` definitions are instantiated by ``X``
cards (nested to any depth) and flattened at parse time with
deterministic dotted names (``xfilt.n1``, ``xfilt.r1``); ``{param}``
placeholders in subcircuit bodies are substituted from instance
overrides or definition defaults.

``--lint`` runs the circuit-graph structural lint (floating nodes,
sub-circuits with no DC path to ground -- see
:mod:`repro.circuits.graph`) and exits without solving: status 0 when
the deck is clean, 1 with findings.  The same report is available from
a running service via ``client --netlist deck.cir --lint``.

``--basis`` selects the basis family the engine solves in: block
pulses (the paper's default), Walsh/Haar transforms, or spectral
Chebyshev/Legendre polynomials -- smooth circuits reach the same
accuracy with far fewer spectral coefficients (``--steps 24`` instead
of ``--steps 1000``)::

    python -m repro circuit.sp --t-end 5e-3 --steps 24 --basis chebyshev

``--method`` selects the solver route: the native operational-matrix
engine (``opm``, default), a one-shot baseline (``trapezoidal``,
``fft``, ``grunwald-letnikov``, ...), or a fractional method-zoo
discretisation (``gl``, ``oustaloup``, ``jacobi`` -- see
:mod:`repro.fractional.methods`) solved through the same cached-pencil
engine::

    python -m repro cpe.sp --t-end 1.0 --steps 512 --method oustaloup

With ``--sweep S1 S2 ...`` the netlist's input waveform is scaled by
each factor and all scaled variants are solved in a single batched
multi-RHS column sweep through one cached
:class:`~repro.engine.session.Simulator` session -- one pencil
factorisation and one triangular sweep for the whole family.

With ``--ensemble spec.json`` the deck becomes the nominal circuit of
a parameter ensemble -- a cartesian corner sweep or a seeded
Monte-Carlo tolerance analysis over element values -- and every member
is assembled (state-layout-checked against the base deck), factorised
once, and solved; ``--jobs N`` shards the members across ``N`` worker
processes, which return coefficients through shared memory::

    python -m repro rc.sp --t-end 5e-3 --steps 200 \\
        --ensemble corners.json --jobs 8

where ``corners.json`` holds, e.g.::

    {"mode": "monte-carlo", "n": 64, "seed": 7,
     "params": {"R1": 0.2, "C1": [0.9e-6, 1.1e-6]}}

(``--parallel serial`` runs the same task plan on one core; a
``"mode": "cartesian"`` spec lists explicit values per element.)

With ``--windows K`` the horizon is solved by windowed time-marching:
``K`` consecutive windows of ``steps/K`` block pulses each on one
cached session, carrying the state (and, for fractional netlists, the
memory tail) across window boundaries.  Events fire at window
boundaries (so they require ``--windows``)::

    python -m repro grid.sp --t-end 1e-8 --steps 600 --windows 10 \\
        --event t=5e-9 file=grid_switched.sp --event t=8e-9 scale=2.0

``file=`` re-stamps the MNA pencil from another netlist (same nodes;
switch closures, load hookups) and switches to its sources; ``scale=``
multiplies the active input waveform (load steps).

``--reduce auto`` (or a deck's ``.options reduce=auto`` card) turns on
certified model-order reduction: large first-order pencils are reduced
once at session bind by Krylov moment matching, every solve runs on
the small reduced model, and the result is certified against a
residual error bound -- exceeding it falls back to the full model.
``--mor-order Q`` picks the number of matched block moments::

    python -m repro grid.sp --t-end 1e-8 --steps 200 --reduce auto

``--memory soe`` (or a deck's ``.options memory=soe`` card) compresses
the fractional power-law history tail into a certified
sum-of-exponentials recurrence, making long windowed marches
linear-time in the horizon; the kernel fit is certified against a
computable relative error bound (``--memory-rtol``, default 1e-10) and
falls back to the exact tail when the bound cannot be met::

    python -m repro cpe.sp --t-end 1.0 --steps 3000 --windows 100 \\
        --memory soe

Two subcommands run the simulation *service* instead of a one-shot
analysis (see :mod:`repro.engine.service`)::

    python -m repro serve --port 7777 --max-sessions 8 --bank-bytes 256M
    python -m repro client --port 7777 --netlist rc.cir --scale 2.0
    python -m repro client --port 7777 --stats
    python -m repro client --port 7777 --shutdown

``serve`` starts the long-running daemon: requests sharing a circuit
configuration hit a warm cached session (bounded LRU), and concurrent
same-configuration requests are coalesced into one batched multi-RHS
sweep.  ``client`` is the matching one-shot JSON-lines client.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

# only what a plain deck solve runs: ensembles, events, marches and the
# service load their modules inside the handlers that need them
from . import __version__
from .circuits.cards import OPTION_ROWS
from .circuits.netlist import Netlist
from .core.dispatch import FRACTIONAL_ZOO_METHODS
from .core.result import MarchingResult
from .engine.inputs import scaled_input
from .engine.netlist_session import (
    _solve_ensemble,
    _solve_transient,
    ac_scan,
    build_system,
    resolve_deck_options,
)
from .errors import ReproError
from .io import Table, write_csv


def _add_option_flags(parser, rows) -> None:
    """One flag per deck-option row that has one (see
    :data:`repro.circuits.cards.OPTION_ROWS`)."""
    for row in rows:
        if row.flag is not None:
            parser.add_argument(
                row.flag, type=row.type, default=None, metavar=row.metavar,
                choices=row.choices, help=row.help_text(),
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="OPM transient simulation of a SPICE-subset netlist "
        "(DATE'12 operational-matrix algorithm).",
    )
    parser.add_argument(
        "netlist",
        type=Path,
        nargs="?",
        help="netlist file (SPICE subset); equivalent to --netlist",
    )
    parser.add_argument(
        "--netlist",
        type=Path,
        dest="netlist_flag",
        metavar="FILE",
        help="netlist file (SPICE subset); its .tran/.ac/.ic/.options "
        "cards drive the analysis",
    )
    parser.add_argument(
        "--t-end",
        type=float,
        default=None,
        help="simulation horizon in seconds (default: the .tran card's tstop)",
    )
    _add_option_flags(parser, OPTION_ROWS.values())
    parser.add_argument(
        "--outputs",
        nargs="+",
        metavar="NODE",
        help="node names to report (default: every node)",
    )
    parser.add_argument(
        "--points",
        type=int,
        default=10,
        help="number of printed sample times (default 10)",
    )
    parser.add_argument(
        "--sweep",
        nargs="+",
        type=float,
        metavar="SCALE",
        help="scale the input waveform by each factor and solve the whole "
        "family in one batched multi-RHS sweep",
    )
    parser.add_argument(
        "--ensemble",
        type=Path,
        metavar="SPEC",
        help="JSON ensemble specification: parameter variations of the "
        'deck, e.g. {"mode": "monte-carlo", "n": 64, "seed": 7, '
        '"params": {"R1": 0.2}}; members are solved on one shared '
        "session configuration, sharded across --jobs workers",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker count for --ensemble (default: all cores)",
    )
    parser.add_argument(
        "--parallel",
        choices=("process", "serial"),
        default="process",
        help="ensemble executor backend (default: process; "
        "'serial' runs the same task plan on one core)",
    )
    parser.add_argument(
        "--event",
        action="append",
        nargs="+",
        metavar="KEY=VALUE",
        default=None,
        help="mid-run event at a window boundary: t=TIME required, plus "
        "file=NETLIST (re-stamp the pencil from another netlist) and/or "
        "scale=FACTOR (scale the active input); repeatable",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="graph-lint the deck and exit without solving: report "
        "floating/dangling nodes and components without a DC path to "
        "ground, naming the offending nodes and elements (exit 0 when "
        "clean, 1 with findings)",
    )
    parser.add_argument("--csv", type=Path, help="write all samples to this CSV file")
    parser.add_argument(
        "--ac-csv",
        type=Path,
        metavar="FILE",
        help="write the .ac sweep (magnitude [dB] and phase [deg] per "
        "output) to this CSV file",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    return parser


def _print_times(args, options) -> np.ndarray:
    """The sample times printed by both single-run and sweep tables."""
    t_end = options.t_end
    return np.linspace(t_end / args.points, t_end * 0.999, args.points)


def _smooth_outputs(result, times) -> np.ndarray:
    """Best available output sampling (baseline results lack smoothing)."""
    sampler = getattr(result, "outputs_smooth", None)
    return sampler(times) if sampler is not None else result.outputs(times)


def _all_sample_times(result) -> np.ndarray:
    """The result's native sampling grid (coefficient or node based)."""
    sampler = getattr(result, "sample_times", None)
    return sampler() if sampler is not None else result.times


def _print_memory(info: dict) -> None:
    """Report the fractional-memory compression outcome, if any."""
    mem = info.get("memory") or {}
    if mem.get("mode") == "soe":
        print(
            f"compressed memory: {mem['modes']} exponential modes, "
            f"certified bound {mem['bound']:.2e} (rtol {mem['rtol']:g})"
        )
    elif mem.get("fallback"):
        print(
            f"compressed memory: fit bound {mem['bound']:.2e} missed "
            f"rtol {mem['rtol']:g}; fell back to the exact history tail"
        )


def _run_lint(netlist) -> int:
    """Report the deck's circuit-graph lint; exit 1 when defects exist."""
    from .circuits import CircuitGraph

    graph = CircuitGraph(netlist)
    s = graph.summary()
    print(
        f"deck {netlist.title!r}: {s['nodes']} node(s), "
        f"{s['elements']} element(s), {s['components']} component(s), "
        f"max degree {s['max_degree']}"
    )
    report = graph.lint()
    if not report:
        print("lint: clean")
        return 0
    for issue in report:
        print(f"lint: {issue}")
    return 1


def _run_transient(args, options, netlist, system, outputs, events) -> int:
    result = _solve_transient(netlist, system, options, events=events)
    info = result.info
    print(f"{netlist!r}")
    print(f"model: {system!r}")
    if isinstance(result, MarchingResult):
        print(
            f"marched [0, {options.t_end:g}) s as {result.n_windows} windows "
            f"of m={result.window_m} ({info.get('basis', 'BlockPulse')} "
            f"basis, {info['backend']} backend, "
            f"{info['factorisations']} factorisation(s), "
            f"{info['stamps']} pencil stamp(s), "
            f"{len(info['events'])} event(s), "
            f"{result.wall_time * 1e3:.2f} ms)"
        )
    else:
        print(
            f"simulated [0, {options.t_end:g}) s with m={options.steps} "
            f"({info.get('basis', 'BlockPulse')} basis, "
            f"method {info.get('method', options.method)}), "
            f"{info.get('factorisations', 1)} factorisation(s), "
            f"{result.wall_time * 1e3:.2f} ms"
        )
        mor = info.get("mor") or {}
        if mor.get("reduced"):
            print(
                f"reduced model: order {mor['order']} of {mor['full_order']} "
                f"states, certified bound {mor['bound']:.2e} "
                f"(rtol {mor['rtol']:g})"
            )
    _print_memory(info)
    print()

    t_print = _print_times(args, options)
    values = _smooth_outputs(result, t_print)
    table = Table(["t [s]"] + [f"v({node})" for node in outputs])
    for k, t in enumerate(t_print):
        table.add_row([f"{t:.4g}"] + [f"{values[i, k]:.6g}" for i in range(len(outputs))])
    print(table.render())

    if args.csv is not None:
        t_all = _all_sample_times(result)
        v_all = result.outputs(t_all)
        table = np.column_stack([t_all, v_all.T])
        path = write_csv(args.csv, ["t"] + list(outputs), table.tolist())
        print(f"\nwrote {t_all.size} samples to {path}")
    return 0


def _run_sweep(args, options, netlist, system, outputs) -> int:
    scales = list(args.sweep)
    sim = options.session(system)
    base_u = netlist.input_function()
    sweep = sim.sweep([scaled_input(base_u, s) for s in scales])
    print(f"{netlist!r}")
    print(f"model: {system!r}")
    print(
        f"swept {len(scales)} scaled inputs over [0, {options.t_end:g}) s "
        f"with m={options.steps} ({sweep.info.get('basis', 'BlockPulse')} basis, "
        f"{sweep.info['backend']} backend, "
        f"{sweep.info['factorisations']} factorisation(s) shared, "
        f"{sweep.wall_time * 1e3:.2f} ms total)\n"
    )

    t_print = _print_times(args, options)
    values = sweep.outputs_smooth(t_print)  # (k, q, points), as in single-run mode
    table = Table(
        ["t [s]"]
        + [f"v({node})@x{scale:g}" for scale in scales for node in outputs]
    )
    for k_t, t in enumerate(t_print):
        table.add_row(
            [f"{t:.4g}"]
            + [
                f"{values[i, j, k_t]:.6g}"
                for i in range(len(scales))
                for j in range(len(outputs))
            ]
        )
    print(table.render())

    if args.csv is not None:
        t_all = sweep.sample_times()
        v_all = sweep.outputs(t_all)  # (k, q, nt)
        header = ["t"] + [
            f"{node}@x{scale:g}" for scale in scales for node in outputs
        ]
        table = np.column_stack([t_all, v_all.reshape(-1, t_all.size).T])
        path = write_csv(args.csv, header, table.tolist())
        print(f"\nwrote {t_all.size} samples x {len(scales)} scales to {path}")
    return 0


def _run_ensemble(args, options, netlist, system, outputs) -> int:
    import json

    try:
        spec = json.loads(args.ensemble.read_text())
    except OSError as exc:
        raise ReproError(f"cannot read ensemble spec {args.ensemble}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"bad ensemble spec {args.ensemble}: {exc}") from exc
    if not isinstance(spec, dict):
        raise ReproError(
            f"ensemble spec {args.ensemble} must be a JSON object, "
            f"got {type(spec).__name__}"
        )
    result = _solve_ensemble(
        netlist, options, spec, list(outputs), jobs=args.jobs,
        parallel=args.parallel,
    )

    print(f"{netlist!r}")
    print(f"model: {system!r}")
    info = result.info
    shm = (
        f", {info['shm_bytes'] / 1e6:.3g} MB returned via shared memory"
        if info.get("shm_bytes")
        else ""
    )
    print(
        f"solved {len(result)}-member ensemble "
        f"({spec.get('mode', 'cartesian')}) over [0, {options.t_end:g}) s "
        f"with m={options.steps} ({info.get('basis', 'BlockPulse')} basis, "
        f"{info['n_groups']} pencil group(s), {info['factorisations']} "
        f"factorisation(s), {info['jobs']} {info['executor']} worker(s)"
        f"{shm}, {result.wall_time * 1e3:.2f} ms total)\n"
    )

    t_final = options.t_end * 0.999
    table = Table(
        ["member"] + [f"v({node})@t={t_final:.3g}" for node in outputs]
    )
    finals = result.outputs([t_final])  # (k, q, 1)
    for i, label in enumerate(result.labels):
        table.add_row(
            [label] + [f"{finals[i, j, 0]:.6g}" for j in range(len(outputs))]
        )
    print(table.render())

    if args.csv is not None:
        t_all = result.sample_times()
        v_all = result.outputs(t_all)  # (k, q, nt)
        header = ["t"] + [
            f"{node}@{label}" for label in result.labels for node in outputs
        ]
        table = np.column_stack([t_all, v_all.reshape(-1, t_all.size).T])
        path = write_csv(args.csv, header, table.tolist())
        print(
            f"\nwrote {t_all.size} samples x {len(result)} members to {path}"
        )
    return 0


def _parse_event(tokens, base_netlist, outputs):
    """Build a marching :class:`~repro.engine.marching.Event` from
    ``key=value`` CLI tokens."""
    from .circuits.mna import assemble_mna_restamp
    from .engine.marching import Event

    fields: dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or key not in ("t", "file", "scale"):
            raise ReproError(
                f"bad --event token {token!r}; expected t=TIME "
                "[file=NETLIST] [scale=FACTOR]"
            )
        fields[key] = value
    if "t" not in fields:
        raise ReproError("--event requires t=TIME")
    try:
        t = float(fields["t"])
        scale = float(fields["scale"]) if "scale" in fields else None
    except ValueError as exc:
        raise ReproError(f"bad --event number: {exc}") from exc
    system = u = None
    label = None
    if "file" in fields:
        path = Path(fields["file"])
        try:
            text = path.read_text()
        except OSError as exc:
            raise ReproError(f"cannot read event netlist {path}: {exc}") from exc
        ev_netlist = Netlist.from_spice(text, title=path.stem)
        system = assemble_mna_restamp(ev_netlist, base_netlist, outputs=outputs)
        u = ev_netlist.input_function()
        label = path.stem
    return Event(t=t, u=u, scale=scale, system=system, label=label)


def _run_ac(args, netlist, system, outputs) -> None:
    """Execute the deck's ``.ac`` card and print/write the sweep."""
    scan = ac_scan(netlist, system=system, outputs=tuple(outputs))
    card = scan.card
    print(
        f"\nAC sweep: {card.variation} {card.n} points, "
        f"{card.f_start:g} Hz .. {card.f_stop:g} Hz "
        f"({scan.n_points} frequencies)\n"
    )
    mag_db = scan.magnitude_db()
    phase = scan.phase_deg()
    table = Table(
        ["f [Hz]"]
        + [f"|v({node})| [dB]" for node in outputs]
        + [f"arg v({node}) [deg]" for node in outputs]
    )
    for k, f in enumerate(scan.frequencies):
        table.add_row(
            [f"{f:.4g}"]
            + [f"{mag_db[k, j]:.4g}" for j in range(len(outputs))]
            + [f"{phase[k, j]:.4g}" for j in range(len(outputs))]
        )
    print(table.render())

    if args.ac_csv is not None:
        header = (
            ["f"]
            + [f"mag_db({node})" for node in outputs]
            + [f"phase_deg({node})" for node in outputs]
        )
        table = np.column_stack([scan.frequencies, mag_db, phase])
        path = write_csv(args.ac_csv, header, table.tolist())
        print(f"\nwrote {scan.n_points} AC points to {path}")


def _deck_options(args, netlist):
    """Resolve the analysis flags against the deck's cards."""
    options = resolve_deck_options(
        netlist.analysis,
        t_end=args.t_end,
        **{
            row.keyword: getattr(args, row.keyword)
            for row in OPTION_ROWS.values()
            if row.flag is not None
        },
    )
    if options.steps is None:
        # --steps' documented last resort: no flag and no card gave one
        options = dataclasses.replace(options, steps=500)
    return options


def _parse_bytes(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix."""
    units = {"k": 1024, "m": 1024**2, "g": 1024**3}
    text = text.strip().lower().removesuffix("b")
    factor = 1
    if text and text[-1] in units:
        factor = units[text[-1]]
        text = text[:-1]
    try:
        return int(float(text) * factor)
    except ValueError as exc:
        raise ReproError(
            f"bad byte count {text!r}; expected e.g. 512M or 1073741824"
        ) from exc


def build_serve_parser() -> argparse.ArgumentParser:
    from .engine.service import DEFAULT_MAX_BATCH, DEFAULT_MAX_SESSIONS

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the OPM simulation service: a long-lived daemon "
        "with warm LRU sessions and cross-request solve coalescing.  A "
        "request starts on a free solve thread at once; requests that "
        "arrive while every thread is busy wait, and same-configuration "
        "ones leave together as one batched solve when a thread frees.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7777,
        help="TCP port (0 picks a free one; it is announced on stdout)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=DEFAULT_MAX_BATCH, metavar="K",
        help="most runs one coalesced batch takes from the queue "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=DEFAULT_MAX_SESSIONS, metavar="N",
        help="resident warm sessions before LRU eviction (default %(default)s)",
    )
    parser.add_argument(
        "--bank-entries", type=int, default=None, metavar="N",
        help="per-session pencil-cache entry bound (default: unbounded)",
    )
    parser.add_argument(
        "--bank-bytes", default=None, metavar="BYTES",
        help="per-session pencil-cache byte bound, e.g. 256M "
        "(default: unbounded)",
    )
    parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="solve-thread pool size; requests queue and coalesce only "
        "while every thread is busy (default %(default)s)",
    )
    return parser


def _run_serve(argv) -> int:
    from .engine.service import serve

    args = build_serve_parser().parse_args(argv)
    bank_bytes = (
        _parse_bytes(args.bank_bytes) if args.bank_bytes is not None else None
    )
    serve(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_sessions=args.max_sessions,
        bank_entries=args.bank_entries,
        bank_bytes=bank_bytes,
        workers=args.workers,
    )
    return 0


#: The deck options the ``client`` subcommand forwards to the daemon.
_CLIENT_ROWS = [row for row in OPTION_ROWS.values() if row.client]


def build_client_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro client",
        description="One-shot client for a running `python -m repro serve` "
        "daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="service address")
    parser.add_argument("--port", type=int, default=7777, help="service port")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--netlist", type=Path, metavar="FILE",
        help="simulate this deck on the service",
    )
    action.add_argument(
        "--stats", action="store_true", help="print the daemon counters"
    )
    action.add_argument(
        "--ping", action="store_true", help="liveness probe"
    )
    action.add_argument(
        "--shutdown", action="store_true", help="stop the daemon"
    )
    parser.add_argument(
        "--scale", type=float, default=None, metavar="S",
        help="scale the deck's input waveform",
    )
    parser.add_argument(
        "--scales", type=float, nargs="+", default=None, metavar="S",
        help="sweep request: one batched solve per scale factor",
    )
    parser.add_argument(
        "--samples", type=int, default=None, metavar="N",
        help="number of output samples (default: the native grid)",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="response encoding (default json)",
    )
    parser.add_argument(
        "--csv", type=Path, metavar="FILE",
        help="write a --format csv response to this file",
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="with --netlist: graph-lint the deck on the service instead of "
        "simulating it (exit 0 when clean, 1 with findings)",
    )
    _add_option_flags(parser, _CLIENT_ROWS)
    return parser


def _run_client(argv) -> int:
    import json

    from .engine.service import ServiceClient

    args = build_client_parser().parse_args(argv)
    if args.lint and args.netlist is None:
        raise ReproError("--lint needs --netlist FILE (the deck to check)")
    with ServiceClient(args.host, args.port) as client:
        if args.ping:
            print("pong" if client.ping() else "no pong")
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.shutdown:
            client.shutdown()
            print("service shut down")
            return 0
        try:
            deck = args.netlist.read_text()
        except OSError as exc:
            raise ReproError(f"cannot read {args.netlist}: {exc}") from exc
        if args.lint:
            out = client.lint(deck)
            summary = out["summary"]
            print(
                f"{summary['nodes']} node(s), {summary['elements']} "
                f"element(s), {summary['components']} connected component(s)"
            )
            issues = out["report"]["issues"]
            if not issues:
                print("lint: clean")
                return 0
            for issue in issues:
                print(
                    f"lint: [{issue['code']}] {issue['message']} "
                    f"(fix: {issue['hint']})"
                )
            return 1
        request: dict = {"netlist": deck, "format": args.format}
        if args.scales is not None:
            request["scales"] = args.scales
        elif args.scale is not None:
            request["scale"] = args.scale
        if args.samples is not None:
            request["samples"] = args.samples
        for row in _CLIENT_ROWS:
            if getattr(args, row.keyword) is not None:
                request[row.name] = getattr(args, row.keyword)
        out = client.simulate(**request)
        if args.format == "csv":
            if args.csv is not None:
                args.csv.write_text(out["csv"])
                print(f"wrote {out['rows']} samples to {args.csv}")
            else:
                print(out["csv"], end="")
        else:
            print(json.dumps(out, indent=2))
        print(
            f"# latency {out['latency_ms']:.2f} ms, method "
            f"{out['info'].get('method')}, warm={out['info'].get('warm')}, "
            f"coalesced={out['info'].get('coalesced')}",
            file=sys.stderr,
        )
    return 0


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] in ("serve", "client"):
        mode, rest = argv[0], argv[1:]
        try:
            return _run_serve(rest) if mode == "serve" else _run_client(rest)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except BrokenPipeError:
            # stdout went away (e.g. piped into ``head``), which is not
            # a service failure: exit quietly with the conventional
            # SIGPIPE status, redirecting stdout so the interpreter's
            # exit-time flush cannot raise a second EPIPE
            try:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
            except OSError:
                pass  # stdout is not a real fd (captured stream)
            return 141
        except (ConnectionRefusedError, OSError) as exc:
            print(f"error: cannot reach the service: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            return 130
    args = build_parser().parse_args(argv)
    if args.netlist is not None and args.netlist_flag is not None:
        print(
            "error: pass the netlist either positionally or via --netlist, "
            "not both",
            file=sys.stderr,
        )
        return 2
    netlist_path = args.netlist if args.netlist is not None else args.netlist_flag
    if netlist_path is None:
        print("error: a netlist file is required (positional or --netlist)",
              file=sys.stderr)
        return 2
    try:
        text = netlist_path.read_text()
    except OSError as exc:
        print(f"error: cannot read {netlist_path}: {exc}", file=sys.stderr)
        return 2

    try:
        netlist = Netlist.from_spice(text, title=netlist_path.stem)
        if args.lint:
            # lint is purely structural: no horizon, no solve, so it
            # works on decks without a .tran card too
            return _run_lint(netlist)
        options = _deck_options(args, netlist)
        run_ac = netlist.analysis.ac is not None
        if args.ac_csv is not None and not run_ac:
            raise ReproError(
                "--ac-csv requires an .ac card in the deck (nothing to write)"
            )
        if options.t_end is None:
            if not run_ac:
                raise ReproError(
                    "no horizon: pass --t-end or give the deck a .tran card"
                )
            # AC-only deck: transient-only CLI flags would be silently
            # dead (a .options windows= card is fine -- it only applies
            # once a transient runs, matching simulate_netlist)
            for flag, present in (
                ("--sweep", bool(args.sweep)),
                ("--windows", args.windows is not None and args.windows > 1),
                ("--event", bool(args.event)),
                ("--ensemble", args.ensemble is not None),
                ("--csv", args.csv is not None),
            ):
                if present:
                    raise ReproError(
                        f"{flag} drives a transient analysis, but the deck "
                        "has no .tran card and no --t-end was given"
                    )
        outputs = args.outputs if args.outputs else netlist.nodes
        system = build_system(netlist, outputs=outputs)
        code = 0
        if args.jobs is not None and args.jobs < 1:
            raise ReproError(f"--jobs must be >= 1, got {args.jobs}")
        if args.jobs is not None and args.ensemble is None:
            raise ReproError(
                "--jobs shards --ensemble members; pass --ensemble with it"
            )
        if options.t_end is not None:
            if not options.native and (args.event or args.ensemble is not None):
                raise ReproError(
                    f"method {options.method!r} only supports a plain "
                    "transient: --event and --ensemble are native-route "
                    "engine-session features; drop the method option or the "
                    "conflicting flag"
                )
            if args.sweep and not (
                options.native or options.method in FRACTIONAL_ZOO_METHODS
            ):
                raise ReproError(
                    f"method {options.method!r} cannot batch a --sweep: "
                    "batched multi-RHS sweeps run on a cached session (opm or "
                    "a fractional zoo method)"
                )
            if args.ensemble is not None and (
                args.sweep or options.windows > 1 or args.event
            ):
                raise ReproError(
                    "--ensemble cannot be combined with --sweep/--windows/--event"
                )
            if args.sweep and (options.windows > 1 or args.event):
                raise ReproError("--sweep cannot be combined with --windows/--event")
            if args.ensemble is not None:
                code = _run_ensemble(args, options, netlist, system, outputs)
            elif args.sweep:
                code = _run_sweep(args, options, netlist, system, outputs)
            else:
                if args.event and options.windows < 2:
                    raise ReproError(
                        "--event fires at a window boundary: pass --windows K "
                        "(K >= 2) so event times can land strictly inside the "
                        "horizon"
                    )
                events = [
                    _parse_event(tokens, netlist, outputs)
                    for tokens in args.event or ()
                ]
                code = _run_transient(
                    args, options, netlist, system, outputs, events
                )
        if run_ac and code == 0:
            _run_ac(args, netlist, system, outputs)
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(run())
