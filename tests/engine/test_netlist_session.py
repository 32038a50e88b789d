"""Tests for the netlist-native session layer (the SPICE front door)."""

import threading

import numpy as np
import pytest

from repro import Simulator
from repro.__main__ import run
from repro.circuits import Netlist, assemble_mna
from repro.core.dispatch import simulate
from repro.engine.netlist_session import (
    AcScan,
    NetlistRun,
    ac_scan,
    build_system,
    from_netlist,
    simulate_netlist,
)
from repro.engine.service import ServiceClient, serve
from repro.errors import NetlistError, ServiceError, SolverError

RC_DECK = """
* rc lowpass with full analysis cards
I1 0 n1 1m
R1 n1 0 1k
C1 n1 0 1u
.tran 50u 5m
.ac dec 5 10 10k
"""

CPE_DECK = """
I1 0 a 1.0
R1 a 0 1.0
P1 a 0 1.0 0.5
.tran 10m 2
"""


class TestBuildSystem:
    def test_ic_becomes_x0(self):
        nl = Netlist.from_spice("I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n.ic v(a)=0.25\n")
        system = build_system(nl)
        np.testing.assert_allclose(system.x0, [0.25])

    def test_ic_can_be_disabled(self):
        nl = Netlist.from_spice("I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n.ic v(a)=0.25\n")
        assert build_system(nl, use_ic=False).x0 is None

    def test_ic_only_touches_named_nodes(self):
        nl = Netlist.from_spice(
            "I1 0 a 1m\nR1 a b 1k\nC1 b 0 1u\nL1 b 0 1m\n.ic v(b)=2\n"
        )
        system = build_system(nl)
        # state layout: node voltages first, inductor current after
        assert system.x0[nl.node_index("b")] == pytest.approx(2.0)
        assert system.x0[nl.node_index("a")] == 0.0
        assert system.x0[-1] == 0.0

    def test_mixed_order_ic_rejected(self):
        nl = Netlist.from_spice(
            "I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\nP1 a 0 1u 0.5\n.ic v(a)=1\n"
        )
        with pytest.raises(NetlistError, match="mixed-order"):
            build_system(nl)

    def test_ic_transient_starts_at_initial_voltage(self):
        nl = Netlist.from_spice(
            "I1 0 a 0\nR1 a 0 1k\nC1 a 0 1u\n.tran 10u 5m\n.ic v(a)=1\n"
        )
        run = simulate_netlist(nl)
        v = run.tran.states(np.array([5e-6, 5e-3]))[0]
        assert v[0] == pytest.approx(1.0, rel=2e-2)   # starts charged
        assert abs(v[1]) < 0.05                        # decays to zero


class TestFromNetlist:
    def test_grid_and_input_from_deck(self):
        sim = from_netlist(RC_DECK)
        assert isinstance(sim, Simulator)
        assert sim.grid.m == 100
        assert sim.grid.t_end == pytest.approx(5e-3)
        result = sim.run()  # bound input: no argument needed
        assert result.states([5e-3])[0, 0] == pytest.approx(1.0, rel=1e-2)

    def test_classmethod_alias(self):
        sim = Simulator.from_netlist(RC_DECK)
        assert sim.run().info["basis"] == "BlockPulse"

    def test_options_basis_honoured(self):
        sim = from_netlist(
            "I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n.tran 1m 10m\n"
            ".options basis=chebyshev m=16\n"
        )
        assert sim.basis.size == 16
        assert sim.run().info["basis"] == "Chebyshev"

    def test_explicit_grid_overrides_deck(self):
        sim = from_netlist(RC_DECK, grid=(1e-3, 64))
        assert sim.grid.m == 64

    def test_missing_tran_card_rejected(self):
        with pytest.raises(NetlistError, match=r"\.tran"):
            from_netlist("I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n")

    def test_march_with_bound_input(self):
        sim = from_netlist(
            "I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n.tran 20u 1m\n"
        )
        result = sim.march(None, 5e-3)
        assert result.n_windows == 5
        assert result.states([5e-3])[0, 0] == pytest.approx(1.0, rel=1e-2)

    def test_unbound_session_still_requires_input(self):
        system = build_system(Netlist.from_spice("I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n"))
        sim = Simulator(system, (1e-3, 10))
        with pytest.raises(SolverError, match="bind_input"):
            sim.run()


CPE_MARCH_DECK = """
* fractional march with deck-level memory compression
I1 0 n1 SIN(0 1m 3)
R1 n1 0 1k
P1 n1 0 1u 0.7
.tran 1e-2 1.0
.options windows=20 m=600 memory=soe memory_rtol=1e-9
"""


class TestMemoryOptions:
    def test_deck_memory_card_reaches_session(self):
        sim = from_netlist(CPE_MARCH_DECK)
        assert sim.memory_plan is not None
        assert sim.memory_plan.rtol == 1e-9

    def test_caller_override_wins(self):
        sim = from_netlist(CPE_MARCH_DECK, memory="exact")
        assert sim.memory_plan is None

    def test_simulate_netlist_marches_with_soe(self):
        run = simulate_netlist(CPE_MARCH_DECK)
        mem = run.tran.info["memory"]
        assert mem["mode"] == "soe" and mem["certified"]

    def test_exact_override_matches_soe_to_tolerance(self):
        soe = simulate_netlist(CPE_MARCH_DECK)
        exact = simulate_netlist(CPE_MARCH_DECK, memory="exact")
        assert exact.tran.info["memory"] == {"mode": "exact"}
        t = np.linspace(0.05, 0.99, 9)
        scale = np.max(np.abs(exact.tran.outputs(t)))
        err = np.max(np.abs(soe.tran.outputs(t) - exact.tran.outputs(t)))
        assert err / scale < 1e-8

    def test_gl_method_accepts_memory(self):
        deck = (
            "I1 0 a 1.0\nR1 a 0 1.0\nP1 a 0 1.0 0.5\n.tran 1m 2\n"
            ".options method=grunwald-letnikov m=2000 memory=soe\n"
        )
        run = simulate_netlist(deck)
        assert run.tran.info["memory"]["mode"] == "soe"


class TestSimulateNetlist:
    def test_runs_all_deck_analyses(self):
        run = simulate_netlist(RC_DECK)
        assert isinstance(run, NetlistRun)
        assert run.tran is not None and isinstance(run.ac, AcScan)
        assert run.outputs == ("n1",)

    def test_fractional_deck(self):
        run = simulate_netlist(CPE_DECK, steps=200)
        assert "Fractional" in type(run.system).__name__
        assert run.tran.coefficients.shape[1] == 200

    def test_tran_only_when_no_ac_card(self):
        run = simulate_netlist("I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n.tran 50u 5m\n")
        assert run.tran is not None and run.ac is None

    def test_ac_only_deck_skips_transient(self):
        run = simulate_netlist(
            "I1 0 a AC 1\nR1 a 0 1k\nC1 a 0 1u\n.ac dec 2 10 1k\n"
        )
        assert run.tran is None and run.ac is not None

    def test_no_analysis_requested(self):
        run = simulate_netlist("I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n")
        assert run.tran is None and run.ac is None

    def test_t_end_override_runs_transient(self):
        run = simulate_netlist(
            "I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n", t_end=5e-3, steps=50
        )
        assert run.tran.states([5e-3])[0, 0] == pytest.approx(1.0, rel=2e-2)

    def test_steps_without_tran_card_rejected(self):
        with pytest.raises(NetlistError, match="term count"):
            simulate_netlist("I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n", t_end=1e-3)

    def test_windows_march(self):
        run = simulate_netlist(RC_DECK, windows=4)
        assert run.tran.n_windows == 4
        single = simulate_netlist(RC_DECK)
        np.testing.assert_allclose(
            run.tran.states([4.9e-3]), single.tran.states([4.9e-3]), rtol=1e-9
        )

    def test_windows_from_options_card(self):
        run = simulate_netlist(
            "I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n.tran 50u 5m\n.options windows=5\n"
        )
        assert run.tran.n_windows == 5

    def test_windows_divisibility_checked(self):
        with pytest.raises(NetlistError, match="divisible"):
            simulate_netlist(RC_DECK, windows=7)

    def test_baseline_method_routes_through_dispatch(self):
        run = simulate_netlist(RC_DECK, method="trapezoidal")
        assert run.tran.info["method"] == "trapezoidal"
        assert run.tran.outputs([5e-3])[0, 0] == pytest.approx(1.0, rel=1e-2)

    def test_baseline_method_with_windows_rejected(self):
        """A baseline method cannot silently drop (or hijack) windowing."""
        with pytest.raises(NetlistError, match="plain transient"):
            simulate_netlist(RC_DECK, method="trapezoidal", windows=4)

    def test_method_from_options_card(self):
        run = simulate_netlist(
            "I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n.tran 50u 5m\n"
            ".options method=backward-euler\n"
        )
        assert run.tran.info["method"] == "backward-euler"

    def test_path_source(self, tmp_path):
        path = tmp_path / "rc.cir"
        path.write_text(RC_DECK)
        run = simulate_netlist(path)
        assert run.netlist.title == "rc"
        assert run.tran is not None


class TestZooMethods:
    """The fractional method zoo through the SPICE front door."""

    def test_zoo_method_kwarg(self):
        run = simulate_netlist(CPE_DECK, steps=200, method="gl")
        assert run.tran.info["method"] == "gl[BlockPulse]"
        native = simulate_netlist(CPE_DECK, steps=200)
        t = np.array([0.5, 1.5])
        np.testing.assert_allclose(
            run.tran.states(t), native.tran.states(t), atol=5e-2
        )

    def test_zoo_method_from_options_card(self):
        deck = CPE_DECK + ".options method=oustaloup\n"
        run = simulate_netlist(deck, steps=200)
        assert run.tran.info["method"] == "oustaloup[BlockPulse]"

    def test_kwarg_overrides_options_card(self):
        deck = CPE_DECK + ".options method=oustaloup\n"
        run = simulate_netlist(deck, steps=200, method="gl")
        assert run.tran.info["method"] == "gl[BlockPulse]"

    def test_from_netlist_threads_deck_method(self):
        deck = CPE_DECK + ".options method=gl\n"
        sim = from_netlist(deck)
        assert sim.method is not None and sim.method.name == "gl"

    def test_warm_session_accepts_zoo_but_not_baselines(self):
        sim = from_netlist(CPE_DECK, method="gl")
        sim.run(sim.bound_input)
        with pytest.raises(NetlistError, match="one-shot baseline"):
            from_netlist(CPE_DECK, method="fft")

    def test_typo_lists_and_suggests_everywhere(self):
        with pytest.raises(NetlistError, match="did you mean 'oustaloup'"):
            simulate_netlist(CPE_DECK, steps=100, method="oustalop")
        deck = CPE_DECK + ".options method=jacobii\n"
        with pytest.raises(NetlistError, match="did you mean 'jacobi'"):
            simulate_netlist(deck, steps=100)
        with pytest.raises(NetlistError, match="choose from"):
            from_netlist(CPE_DECK, method="rk45")

    def test_zoo_method_with_windows_rejected(self):
        with pytest.raises(NetlistError, match="windows"):
            simulate_netlist(CPE_DECK, steps=200, method="gl", windows=4)


class TestAcScan:
    def test_rc_corner(self):
        scan = ac_scan(
            "I1 0 a AC 1\nR1 a 0 1k\nC1 a 0 1u\n.ac lin 3 100 1k\n"
        )
        assert scan.n_points == 3
        # |Z| = R / sqrt(1 + (wRC)^2)
        f = scan.frequencies
        expected = 1e3 / np.sqrt(1.0 + (2 * np.pi * f * 1e-3) ** 2)
        np.testing.assert_allclose(scan.magnitude()[:, 0], expected, rtol=1e-9)

    def test_phase_sign(self):
        scan = ac_scan(
            "I1 0 a AC 1\nR1 a 0 1k\nC1 a 0 1u\n.ac lin 1 159.1549 159.1549\n"
        )
        assert scan.phase_deg()[0, 0] == pytest.approx(-45.0, abs=0.1)

    def test_missing_ac_card_rejected(self):
        with pytest.raises(NetlistError, match=r"\.ac card"):
            ac_scan("I1 0 a 1m\nR1 a 0 1k\n")

    def test_ac_magnitude_scales_response(self):
        base = ac_scan("I1 0 a AC 1\nR1 a 0 1k\n.ac lin 1 100 100\n")
        doubled = ac_scan("I1 0 a AC 2\nR1 a 0 1k\n.ac lin 1 100 100\n")
        np.testing.assert_allclose(
            doubled.response, 2.0 * base.response, rtol=1e-12
        )


class TestDispatchNetlist:
    def test_simulate_accepts_netlist(self):
        nl = Netlist.from_spice("I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n")
        result = simulate(nl, None, 5e-3, 100)
        assert result.states([5e-3])[0, 0] == pytest.approx(1.0, rel=1e-2)

    def test_simulate_netlist_honours_ic(self):
        nl = Netlist.from_spice(
            "I1 0 a 0\nR1 a 0 1k\nC1 a 0 1u\n.ic v(a)=1\n"
        )
        result = simulate(nl, None, 1e-4, 50)
        assert result.states([1e-6])[0, 0] == pytest.approx(1.0, rel=5e-2)

    def test_simulate_netlist_explicit_input_wins(self):
        nl = Netlist.from_spice("I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n")
        result = simulate(nl, 2e-3, 5e-3, 100)
        assert result.states([5e-3])[0, 0] == pytest.approx(2.0, rel=1e-2)

    def test_simulate_netlist_events_need_windows(self):
        from repro.engine.marching import Event

        nl = Netlist.from_spice("I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n")
        events = [Event(t=2.5e-3, scale=2.0)]
        with pytest.raises(NetlistError, match="windows >= 2"):
            simulate(nl, None, 5e-3, 100, events=events)
        marched = simulate(nl, None, 5e-3, 100, windows=2, events=events)
        assert len(marched.info["events"]) == 1

    def test_u_none_without_netlist_rejected(self):
        nl = Netlist.from_spice("I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n")
        system = assemble_mna(nl)
        with pytest.raises(SolverError, match="u=None"):
            simulate(system, None, 1e-3, 10)

    def test_plain_simulate_does_not_import_circuits(self):
        """Core dispatch must stay usable without the circuits layer."""
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "import sys\n"
            "from repro.core import DescriptorSystem\n"
            "from repro.core.dispatch import simulate\n"
            "simulate(DescriptorSystem([[1.0]], [[-1.0]], [[1.0]]), 1.0, 1.0, 8)\n"
            "assert 'repro.circuits' not in sys.modules, 'circuits leaked in'\n"
        )
        proc = subprocess.run(
            [_sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# structural lint at every entry point
# ----------------------------------------------------------------------
PAIR_DECK = """
* two galvanically isolated stages
I1 0 a1 SIN(0 1m 500)
R1 a1 0 1k
C1 a1 0 1u
V2 b1 0 PULSE(0 1 1e-4 1e-5 1e-5 5e-4 2m)
R2 b1 b2 50
L2 b2 b3 1m
C2 b3 0 2u
.tran 10u 2m
"""

FLOATING_DECK = """
V1 in 0 SIN(0 1 1k)
R1 in stub 1k
.tran 10u 1m
"""

NO_DC_DECK = """
V1 in 0 SIN(0 1 1k)
R1 in 0 1k
C2 x1 x2 1u
R2 x2 x1 1k
.tran 10u 1m
"""


class TestLintGatesEveryEntryPoint:
    @pytest.mark.parametrize("deck", [FLOATING_DECK, NO_DC_DECK])
    def test_library_fails_before_factorisation(self, deck):
        with pytest.raises(NetlistError, match="structural defect"):
            simulate_netlist(deck)

    def test_cli_lint_flag_reports_and_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.cir"
        path.write_text(FLOATING_DECK)
        code = run([str(path), "--lint"])
        out = capsys.readouterr().out
        assert code == 1
        assert "floating-node" in out and "stub" in out

    def test_cli_lint_flag_clean_deck_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.cir"
        path.write_text("I1 0 n1 1m\nR1 n1 0 1k\nC1 n1 0 1u\n.tran 50u 5m\n")
        code = run([str(path), "--lint"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lint: clean" in out

    def test_cli_solve_of_defective_deck_fails_fast(self, tmp_path, capsys):
        path = tmp_path / "bad.cir"
        path.write_text(NO_DC_DECK)
        code = run([str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "no-dc-path" in err or "conductive" in err

    def test_service_lint_op_and_simulate_gate(self):
        started = threading.Event()
        box = {}

        def announce(svc):
            box["svc"] = svc
            started.set()

        thread = threading.Thread(
            target=serve, kwargs={"announce": announce, "port": 0},
            daemon=True,
        )
        thread.start()
        assert started.wait(15), "service failed to start"
        try:
            with ServiceClient("127.0.0.1", box["svc"].port) as client:
                out = client.lint(FLOATING_DECK)
                assert out["report"]["ok"] is False
                codes = [i["code"] for i in out["report"]["issues"]]
                assert codes == ["floating-node"]
                assert out["summary"]["components"] == 1
                clean = client.lint(PAIR_DECK)
                assert clean["report"]["ok"] is True
                assert clean["summary"]["components"] == 2
                with pytest.raises(ServiceError, match="structural defect"):
                    client.simulate(netlist=FLOATING_DECK)
        finally:
            try:
                with ServiceClient("127.0.0.1", box["svc"].port) as client:
                    client.shutdown()
            except (OSError, ServiceError):
                pass
            thread.join(timeout=15)
