"""Front-door parity: the CLI, the library and the service daemon
resolve a deck's solve settings through one merge and one route.

Every route of :data:`repro.core.dispatch.ROUTES` meets every setting
and feature at every door that offers it: each door honours it alike or
refuses it with the route row's one message.

Every door funnels its options through
:func:`repro.engine.netlist_session.resolve_deck_options`; for the
same settings they must produce equal :class:`DeckOptions` and warm
sessions with equal fingerprints, and the CLI's CSV must equal the
library's transient bit for bit.  The engine doors themselves
(:class:`Simulator`, ``simulate_opm``, ``ParallelExecutor.run``) take
one set of session options.
"""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.netlist_session as ns
from repro.__main__ import _deck_options, build_parser, run
from repro.circuits.cards import OPTION_ROWS
from repro.circuits.netlist import Netlist
from repro.core import DescriptorSystem, simulate_opm
from repro.core.dispatch import ROUTES, simulate
from repro.core.result import MarchingResult
from repro.engine import Simulator
from repro.engine.executor import Ensemble, ParallelExecutor
from repro.engine.marching import Event
from repro.engine.netlist_session import build_system, from_netlist, simulate_netlist
from repro.engine.service import _SessionSpec
from repro.errors import NetlistError, OptionError, ReproError, ServiceError, SolverError
from repro.fractional import OustaloupMethod, SoePlan

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.cir"))

#: first-order (reducible), with 32 terms (a power of two, for Walsh)
RC_DECK = """
I1 0 a 1m
R1 a 0 100
C1 a 0 1u
.tran 50u 1.6m
"""

CPE_DECK = """
I1 0 a 1m
R1 a 0 100
P1 a 0 1u 0.5
.tran 50u 2m
"""

#: Settings (as deck text) that exercise each deck-option row; a new
#: row fails ``test_every_row_has_settings`` until it gets some.
ROW_SETTINGS = {
    "m": {"m": "16"},
    "basis": {"basis": "walsh"},
    "method": {"method": "oustaloup"},
    "windows": {"windows": "2"},
    "backend": {"backend": "dense"},
    "reduce": {"reduce": "auto"},
    "mor_order": {"mor_order": "4"},
    "memory": {"memory": "soe"},
    # a bare memory_rtol card never turns compression on
    "memory_rtol": {"memory": "soe", "memory_rtol": "1e-8"},
}


@st.composite
def option_sets(draw, *, engine_only: bool):
    """A random subset of solve settings (absent = not given)."""
    chosen = {}
    if draw(st.booleans()):
        chosen["basis"] = draw(st.sampled_from(["block-pulse", "walsh", "chebyshev"]))
    if draw(st.booleans()):
        chosen["method"] = draw(st.sampled_from(["opm", "gl", "oustaloup"]))
    if draw(st.booleans()):
        chosen["memory"] = draw(st.sampled_from(["exact", "soe"]))
    if draw(st.booleans()):
        chosen["memory_rtol"] = draw(st.sampled_from([1e-6, 1e-8]))
    # a spectral bind costs an O(m^3) Schur form and up to m pencil
    # factorisations: keep m small
    if draw(st.booleans()) or chosen.get("basis") == "chebyshev":
        chosen["grid"] = (
            draw(st.sampled_from([1e-3, 2e-3])),
            draw(st.sampled_from([16, 32])),
        )
    if engine_only:
        if draw(st.booleans()):
            chosen["reduce"] = draw(st.sampled_from(["auto", "off"]))
        if draw(st.booleans()):
            chosen["mor_order"] = draw(st.sampled_from([4, 6]))
        if draw(st.booleans()):
            chosen["windows"] = draw(st.sampled_from([1, 2, 4]))
    return chosen


def cli_argv(deck: Path, chosen: dict) -> list[str]:
    argv = [str(deck)]
    for name, value in chosen.items():
        if name == "grid":
            argv += ["--t-end", repr(value[0]), OPTION_ROWS["m"].flag, str(value[1])]
        else:
            argv += [OPTION_ROWS[name].flag, str(value)]
    return argv


def outcome(call):
    """``call()``'s value, or the (type, message) of the error it raised."""
    try:
        return call()
    except ReproError as exc:
        return type(exc).__name__, str(exc)


RESOLVE = ns.resolve_deck_options


class Recorder:
    """Stand-in for the resolver that records what it returned."""

    def __init__(self):
        self.options = []

    def __call__(self, *args, **kwargs):
        options = RESOLVE(*args, **kwargs)
        self.options.append(options)
        return options


def cli_door(deck: Path, chosen: dict):
    netlist = Netlist.from_spice_file(deck)
    args = build_parser().parse_args(cli_argv(deck, chosen))
    options = _deck_options(args, netlist)
    system = build_system(netlist, outputs=list(netlist.nodes))
    return options, options.session(system).fingerprint


def library_door(deck: Path, chosen: dict, monkeypatch):
    kwargs = dict(chosen)
    grid = kwargs.pop("grid", None)
    recorder = Recorder()
    monkeypatch.setattr(ns, "resolve_deck_options", recorder)
    sim = from_netlist(deck, grid, **kwargs)
    return recorder.options[-1], sim.fingerprint


def service_door(deck: Path, chosen: dict, monkeypatch):
    request = {"netlist": deck.read_text(), **chosen}
    recorder = Recorder()
    monkeypatch.setattr(ns, "resolve_deck_options", recorder)
    sim = _SessionSpec.from_request(request).build()
    return recorder.options[-1], sim.fingerprint


@settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(deck=st.sampled_from(EXAMPLES), chosen=option_sets(engine_only=False))
def test_every_door_resolves_the_same_session(deck, chosen, monkeypatch):
    cli = outcome(lambda: cli_door(deck, chosen))
    with monkeypatch.context() as patch:
        library = outcome(lambda: library_door(deck, chosen, patch))
    with monkeypatch.context() as patch:
        service = outcome(lambda: service_door(deck, chosen, patch))
    assert cli == library == service


@settings(
    derandomize=True,
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(deck=st.sampled_from(EXAMPLES), chosen=option_sets(engine_only=True))
def test_cli_and_simulate_netlist_resolve_alike(deck, chosen, monkeypatch):
    # windows/reduce/mor_order exist on the CLI, simulate_netlist and
    # repro.simulate(netlist, ...) only
    netlist = Netlist.from_spice_file(deck)
    cli = outcome(
        lambda: _deck_options(
            build_parser().parse_args(cli_argv(deck, chosen)), netlist
        )
    )
    kwargs = dict(chosen)
    t_end, steps = kwargs.pop("grid", (None, None))
    routed = []
    with monkeypatch.context() as patch:
        patch.setattr(
            ns, "_solve_transient",
            lambda netlist, system, options, **_: routed.append(options),
        )
        library = outcome(
            lambda: simulate_netlist(deck, t_end=t_end, steps=steps, **kwargs)
        )
        dispatched = outcome(lambda: simulate(netlist, None, t_end, steps, **kwargs))
    if isinstance(cli, tuple):  # the error every door must raise
        assert library == dispatched == cli
    else:
        assert routed == [cli, cli]


def test_every_row_has_settings():
    assert ROW_SETTINGS.keys() == OPTION_ROWS.keys()


@pytest.mark.parametrize("row", OPTION_ROWS.values(), ids=lambda row: row.name)
def test_every_row_is_honoured_or_refused_at_every_door(row, tmp_path, monkeypatch):
    """Each deck option gives equal :class:`DeckOptions` and session
    fingerprints through a ``.options`` card, ``simulate_netlist``, the
    CLI and the daemon -- or the door refuses it, naming it."""
    settings = ROW_SETTINGS[row.name]
    typed = {name: OPTION_ROWS[name].parse(text) for name, text in settings.items()}
    path = tmp_path / "rc.cir"
    path.write_text(RC_DECK)
    netlist = Netlist.from_spice(RC_DECK)
    system = build_system(netlist, outputs=list(netlist.nodes))

    def resolved(options):
        return options, options.session(system).fingerprint

    cards = "".join(f".options {name}={text}\n" for name, text in settings.items())
    card = resolved(
        ns.resolve_deck_options(Netlist.from_spice(RC_DECK + cards).analysis)
    )
    # the setting changes the resolved options
    assert card != resolved(ns.resolve_deck_options(netlist.analysis))

    routed = []
    with monkeypatch.context() as patch:
        patch.setattr(
            ns, "_solve_transient",
            lambda netlist, system, options, **_: routed.append(options),
        )
        simulate_netlist(
            path, **{OPTION_ROWS[name].keyword: v for name, v in typed.items()}
        )
    assert resolved(routed[0]) == card

    if row.flag is None:
        flag = "--" + row.keyword.replace("_", "-")
        assert flag not in build_parser()._option_string_actions
    else:
        argv = [str(path)]
        for name, text in settings.items():
            argv += [OPTION_ROWS[name].flag, text]
        cli = _deck_options(build_parser().parse_args(argv), netlist)
        assert resolved(cli) == card

    request = {"netlist": RC_DECK, **typed}
    if row.refusal is not None:
        with pytest.raises(ServiceError, match=repr(row.name)):
            _SessionSpec.from_request(request)
    else:
        with monkeypatch.context() as patch:
            assert service_door(path, typed, patch) == card


@pytest.mark.parametrize("deck", EXAMPLES, ids=lambda p: p.stem)
def test_cli_csv_is_the_library_transient(deck, tmp_path, capsys):
    csv = tmp_path / "out.csv"
    assert run([str(deck), "--csv", str(csv)]) == 0
    capsys.readouterr()
    tran = simulate_netlist(deck).tran
    t = tran.sample_times()
    expected = np.column_stack([t, tran.outputs(t).T])
    got = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


class TestFixedDisagreements:
    """Front-door disagreements the single resolver removed."""

    def test_service_honours_deck_backend_card(self):
        deck = CPE_DECK + ".options backend=sparse\n"
        sim = _SessionSpec.from_request({"netlist": deck}).build()
        assert sim.bank.backend.name == "sparse"
        assert from_netlist(deck).bank.backend.name == "sparse"

    def test_service_memory_exact_overrides_deck_card(self):
        deck = CPE_DECK + ".options memory=soe\n"
        request = {"netlist": deck, "memory": "exact"}
        assert _SessionSpec.from_request(request).build().memory_plan is None
        assert _SessionSpec.from_request({"netlist": deck}).build().memory_plan

    def test_lone_memory_rtol_implies_soe_at_every_door(self, tmp_path):
        path = tmp_path / "cpe.cir"
        path.write_text(CPE_DECK)
        args = build_parser().parse_args([str(path), "--memory-rtol", "1e-8"])
        cli = _deck_options(args, Netlist.from_spice_file(path))
        assert cli.memory == SoePlan(rtol=1e-8)
        plans = [
            from_netlist(CPE_DECK, memory_rtol=1e-8).memory_plan,
            _SessionSpec.from_request(
                {"netlist": CPE_DECK, "memory_rtol": 1e-8}
            ).build().memory_plan,
            cli.session(build_system(Netlist.from_spice(CPE_DECK))).memory_plan,
        ]
        assert plans[0] is not None and plans[0].rtol == 1e-8
        assert plans[0] == plans[1] == plans[2]
        run = simulate_netlist(CPE_DECK, memory_rtol=1e-8, windows=4)
        assert run.tran.info["memory"]["rtol"] == 1e-8

    def test_bare_memory_rtol_card_stays_exact(self, tmp_path):
        deck = CPE_DECK + ".options memory_rtol=1e-6\n"
        path = tmp_path / "cpe.cir"
        path.write_text(deck)
        args = build_parser().parse_args([str(path)])
        cli = _deck_options(args, Netlist.from_spice_file(path))
        assert cli.memory is None
        assert from_netlist(deck).memory_plan is None
        assert _SessionSpec.from_request({"netlist": deck}).build().memory_plan is None
        run = simulate_netlist(deck, windows=4)
        assert (run.tran.info.get("memory") or {}).get("mode", "exact") == "exact"

    def test_memory_rtol_card_leaves_a_ready_plan_alone(self):
        deck = CPE_DECK + ".options memory_rtol=1e-9\n"
        plan = SoePlan(rtol=1e-6)
        assert from_netlist(deck, memory=plan).memory_plan.rtol == 1e-6
        # a plan named 'soe', by a card or explicitly, takes the card
        assert from_netlist(deck, memory="soe").memory_plan.rtol == 1e-9
        soe_deck = deck + ".options memory=soe\n"
        assert from_netlist(soe_deck).memory_plan.rtol == 1e-9
        assert from_netlist(soe_deck, memory=plan).memory_plan.rtol == 1e-6

    def test_bad_numeric_option_has_one_message_at_every_door(
        self, tmp_path, capsys
    ):
        path = tmp_path / "cpe.cir"
        path.write_text(CPE_DECK)
        message = "option 'memory_rtol' must lie in (0, 1), got 2.0"
        with pytest.raises(NetlistError) as card:
            Netlist.from_spice(CPE_DECK + ".options memory_rtol=2.0\n")
        with pytest.raises(NetlistError) as library:
            simulate_netlist(CPE_DECK, memory_rtol=2.0)
        with pytest.raises(ServiceError) as daemon:
            _SessionSpec.from_request({"netlist": CPE_DECK, "memory_rtol": 2.0})
        assert run([str(path), "--memory-rtol", "2.0"]) == 1
        cli = capsys.readouterr().err
        for text in (str(card.value), str(library.value), str(daemon.value), cli):
            assert message in text
        # a bool is never a number
        for door in (
            lambda: simulate_netlist(CPE_DECK, memory_rtol=True),
            lambda: simulate_netlist(CPE_DECK, windows=True),
            lambda: _SessionSpec.from_request(
                {"netlist": CPE_DECK, "memory_rtol": True}
            ),
        ):
            with pytest.raises(ReproError, match="expects"):
                door()

    def test_jobs_without_ensemble_is_rejected_at_every_door(
        self, tmp_path, capsys
    ):
        from repro.core.dispatch import simulate

        path = tmp_path / "cpe.cir"
        path.write_text(CPE_DECK)
        netlist = Netlist.from_spice(CPE_DECK)
        with pytest.raises(SolverError, match="only meaningful"):
            simulate(netlist, None, 2e-3, 40, jobs=2)
        with pytest.raises(SolverError, match="only meaningful"):
            simulate_netlist(CPE_DECK, jobs=2)
        assert run([str(path), "--jobs", "2"]) == 1
        assert "--jobs shards --ensemble members" in capsys.readouterr().err

    def test_exact_memory_with_explicit_rtol_is_rejected_once(self):
        deck = CPE_DECK + ".options memory=exact\n"
        for memory, source in ((None, deck), ("exact", CPE_DECK)):
            with pytest.raises(SolverError, match="memory_rtol"):
                ns.resolve_deck_options(
                    Netlist.from_spice(source).analysis,
                    memory=memory, memory_rtol=1e-8,
                )

    def test_dispatch_honours_deck_options_cards(self):
        deck = CPE_DECK + ".options basis=chebyshev m=24\n"
        dispatched = simulate(Netlist.from_spice(deck), None, None)
        tran = simulate_netlist(deck).tran
        assert dispatched.basis.name == tran.basis.name == "Chebyshev"
        assert np.array_equal(dispatched.coefficients, tran.coefficients)
        explicit = simulate(Netlist.from_spice(deck), None, 2e-3, 16, basis="walsh")
        assert explicit.basis.name.startswith("Walsh")
        assert explicit.coefficients.shape[1] == 16

    def test_ensemble_is_refused_off_its_route(self, tmp_path, capsys):
        """A deck's ensemble on a route that cannot solve one is refused
        (it was solved on native OPM, saying so nowhere)."""
        spec = {"mode": "monte-carlo", "n": 2, "seed": 3, "params": {"R1": 0.1}}
        for method in ("gl", "trapezoidal"):
            message = ROUTES[method].refusal("ensemble")
            with pytest.raises(OptionError) as library:
                simulate_netlist(RC_DECK, method=method, ensemble=spec, parallel="serial")
            with pytest.raises(OptionError) as card:
                simulate_netlist(
                    RC_DECK + f".options method={method}\n", ensemble=spec,
                    parallel="serial",
                )
            assert str(library.value) == str(card.value) == message
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        deck = tmp_path / "rc.cir"
        deck.write_text(RC_DECK)
        assert run([str(deck), "--method", "gl", "--ensemble", str(path)]) == 1
        assert ROUTES["gl"].refusal("ensemble") in capsys.readouterr().err

    @pytest.mark.parametrize("method, setting", [
        ("trapezoidal", {"memory": "soe"}),
        ("gear2", {"backend": "dense"}),
        ("fft", {"reduce": "auto"}),
        ("gl", {"windows": 2}),
    ])
    def test_model_door_refuses_a_setting_like_the_deck_door(self, method, setting):
        """The library door raised an untyped TypeError here."""
        netlist = Netlist.from_spice(RC_DECK)
        system = build_system(netlist)
        with pytest.raises(OptionError) as model:
            simulate(system, 1.0, 1.6e-3, 32, method=method, **setting)
        with pytest.raises(OptionError) as deck:
            simulate_netlist(RC_DECK, method=method, **setting)
        (option,) = setting
        assert str(model.value) == str(deck.value) == ROUTES[method].refusal(option)

    def test_backend_card_on_a_baseline_is_refused(self):
        """The card was silently dropped."""
        deck = RC_DECK + ".options method=trapezoidal backend=dense\n"
        with pytest.raises(OptionError, match="backend"):
            simulate_netlist(deck)

    def test_opm_marches_windows_at_the_model_door(self):
        netlist = Netlist.from_spice(RC_DECK)
        system = build_system(netlist, outputs=list(netlist.nodes))
        marched = simulate(system, netlist.input_function(), 1.6e-3, 32, windows=2)
        deck = simulate_netlist(RC_DECK, windows=2).tran
        assert isinstance(marched, MarchingResult) and marched.n_windows == 2
        assert np.array_equal(marched.coefficients, deck.coefficients)

    @pytest.mark.parametrize("method", ["trapezoidal", "opm-kron", "opm-windowed"])
    def test_daemon_refuses_a_known_route_with_its_reason(self, method):
        """The daemon answered 'unknown method'."""
        with pytest.raises(ServiceError) as daemon:
            _SessionSpec.from_request({"netlist": RC_DECK, "method": method})
        assert str(daemon.value) == ROUTES[method].refusal("sweep")

    def test_deck_door_takes_a_method_instance(self):
        """A method instance routes by its name (the transient raised
        'unknown method OustaloupMethod(8, None)')."""
        tran = simulate_netlist(CPE_DECK, method=OustaloupMethod(8)).tran
        assert tran.info["method"].startswith("oustaloup")
        from_card = simulate_netlist(CPE_DECK, method="oustaloup").tran
        assert not np.array_equal(tran.coefficients, from_card.coefficients)


def keyword_options(func) -> set:
    return {
        name
        for name, parameter in inspect.signature(func).parameters.items()
        if parameter.kind is parameter.KEYWORD_ONLY
    }


def as_session_names(names) -> set:
    return {"backend" if name == "solver_backend" else name for name in names}


def test_engine_doors_take_the_same_session_options():
    """An option threaded into one engine door but not the others fails
    here.  ``method`` is a session-only option: executor workers
    rebuild native sessions, and ``simulate_opm`` is the native route."""
    session = keyword_options(Simulator)
    assert keyword_options(simulate_opm) == session - {"method"}
    run = keyword_options(ParallelExecutor.run) - {"u"}
    assert as_session_names(run) == session - {"method"}
    sim = Simulator(DescriptorSystem([[1.0]], [[-1.0]], [[1.0]]), (1.0, 4))
    # the basis ships to workers as the session's resolved instance
    executor = as_session_names(sim._executor_options)
    assert executor == session - {"method", "basis"}


#: The settings and features every route meets at every door.
ROUTE_OPTIONS = ("basis", "backend", "reduce", "memory", "windows", "events", "sweep", "ensemble")

#: Each setting as a library keyword, a CLI flag (or, without one, a
#: ``.options`` card) and a daemon field (or card: the daemon takes
#: ``windows`` and ``reduce`` from cards only).
LIBRARY_SETTINGS = {
    "basis": {"basis": "walsh"},
    "backend": {"backend": "dense"},
    "reduce": {"reduce": "auto"},
    "memory": {"memory": "soe"},
    "windows": {"windows": 2},
}
ENSEMBLE_SPEC = {"mode": "cartesian", "params": {"R1": [90.0, 110.0]}}
EVENT_T = 0.8e-3


def outcome_of(call) -> tuple:
    """``('ok',)``, or ``('error', message)`` for a :class:`ReproError`."""
    try:
        call()
    except ReproError as exc:
        return "error", str(exc)
    return ("ok",)


def route_doors(method: str, option: str, tmp_path, capsys) -> dict:
    """The outcome of ``option`` on ``method`` at every door offering it."""
    netlist = Netlist.from_spice(RC_DECK)
    system = build_system(netlist, outputs=list(netlist.nodes))
    u = netlist.input_function()
    settings = LIBRARY_SETTINGS.get(option, {})
    card = f".options {option}={settings[option]}\n" if option in ("backend",) else ""
    deck = tmp_path / "rc.cir"
    deck.write_text(RC_DECK + card)
    argv = [str(deck), "--method", method, "--points", "2"]
    doors = {}

    def cli():
        code = run(argv)
        err = capsys.readouterr().err.strip()
        return ("ok",) if code == 0 else ("error", err.removeprefix("error: "))

    if option in LIBRARY_SETTINGS:
        doors["dispatch"] = outcome_of(
            lambda: simulate(system, u, 1.6e-3, 32, method=method, **settings)
        )
        doors["simulate_netlist"] = outcome_of(
            lambda: simulate_netlist(RC_DECK, method=method, **settings)
        )
        if not card:
            argv += [OPTION_ROWS[option].flag, str(settings[option])]
        doors["cli"] = cli()
        field = OPTION_ROWS[option].refusal is None
        request = {"netlist": RC_DECK + ("" if field else f".options {option}={settings[option]}\n"),
                   "method": method, **(settings if field else {})}
        doors["daemon"] = outcome_of(lambda: _SessionSpec.from_request(request).build())
    elif option == "events":
        event = Event(t=EVENT_T, scale=2.0)
        doors["dispatch"] = outcome_of(
            lambda: simulate(system, u, 1.6e-3, 32, method=method, events=[event])
        )
        argv += ["--event", f"t={EVENT_T}", "scale=2"]
        doors["cli"] = cli()
    elif option == "sweep":
        argv += ["--sweep", "1", "2"]
        doors["cli"] = cli()
        doors["daemon"] = outcome_of(
            lambda: _SessionSpec.from_request(
                {"netlist": RC_DECK, "method": method, "scales": [1.0, 2.0]}
            ).build()
        )
    else:  # ensemble
        members = Ensemble.from_spec(netlist, ENSEMBLE_SPEC)
        doors["dispatch"] = outcome_of(
            lambda: simulate(members, None, 1.6e-3, 32, method=method, parallel="serial")
        )
        doors["simulate_netlist"] = outcome_of(
            lambda: simulate_netlist(
                RC_DECK, method=method, ensemble=ENSEMBLE_SPEC, parallel="serial"
            )
        )
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(ENSEMBLE_SPEC))
        argv += ["--ensemble", str(spec), "--parallel", "serial"]
        doors["cli"] = cli()
    return doors


@pytest.mark.parametrize("option", ROUTE_OPTIONS)
@pytest.mark.parametrize("method", list(ROUTES))
def test_every_route_meets_every_option_alike_at_every_door(
    method, option, tmp_path, capsys
):
    """Each door honours the setting or feature alike, or refuses it
    with the row's one message; the daemon serves only routes that batch
    sweeps, and refuses the rest with that reason first."""
    route = ROUTES[method]
    doors = route_doors(method, option, tmp_path, capsys)
    if "daemon" in doors and "sweep" not in route.honours:
        assert doors.pop("daemon") == ("error", route.refusal("sweep"))
    if option not in route.honours:
        assert set(doors.values()) == {("error", route.refusal(option))}, doors
    else:
        assert len(set(doors.values())) == 1, doors


@pytest.mark.parametrize("option", ["basis", "backend", "reduce", "memory", "windows"])
def test_refused_settings_are_option_errors(option):
    netlist = Netlist.from_spice(RC_DECK)
    system = build_system(netlist)
    for route in ROUTES.values():
        if option in route.honours:
            continue
        settings = LIBRARY_SETTINGS[option]
        for door in (
            lambda: simulate(system, 1.0, 1.6e-3, 32, method=route.name, **settings),
            lambda: simulate_netlist(RC_DECK, method=route.name, **settings),
        ):
            with pytest.raises(OptionError) as refused:
                door()
            assert repr(route.name) in str(refused.value)
            assert option in str(refused.value)
