"""Tests for the voltage-controlled current source (VCCS, SPICE G element)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuits import VCCS, Constant, Netlist, Ramp, assemble_mna, assemble_na
from repro.core import simulate_opm
from repro.errors import NetlistError


def dense(x):
    return x.toarray() if sp.issparse(x) else np.asarray(x)


class TestElement:
    def test_rejects_equal_control_nodes(self):
        nl = Netlist()
        with pytest.raises(NetlistError, match="control"):
            nl.add_vccs("G1", "a", "b", "c", "c", 1.0)

    def test_rejects_zero_gm(self):
        nl = Netlist()
        with pytest.raises(NetlistError, match="gm"):
            nl.add_vccs("G1", "a", "b", "c", "0", 0.0)

    def test_control_nodes_registered(self):
        nl = Netlist()
        nl.add_vccs("G1", "a", "0", "c", "0", 1e-3)
        assert "c" in nl.nodes

    def test_add_registers_control_nodes_like_add_vccs(self):
        # a record-built VCCS must register its control node, or
        # assembly fails with "unknown node 'y'"
        built, helper = Netlist(), Netlist()
        built.add(VCCS("G1", "x", "0", c="y", d="0", gm=1e-3))
        helper.add_vccs("G1", "x", "0", "y", "0", 1e-3)
        assert built.nodes == helper.nodes == ["y", "x"]
        for nl in (built, helper):
            nl.add_resistor("Rx", "x", "0", 1e3)
            nl.add_resistor("Ry", "y", "0", 1e3)
        np.testing.assert_array_equal(
            dense(assemble_mna(built).A), dense(assemble_mna(helper).A)
        )


class TestMnaStamp:
    def test_transconductance_amplifier_dc(self):
        # input divider sets v_in; G converts to current into load R:
        # gain = -gm * R_load (inverting: current pulled out of out node)
        nl = Netlist()
        nl.add_voltage_source("V1", "in", "0", Constant(1.0))
        nl.add_vccs("G1", "out", "0", "in", "0", gm=2e-3)  # i(out->0)=gm*v_in
        nl.add_resistor("RL", "out", "0", 1e3)
        system = assemble_mna(nl, outputs=["out"])
        res = simulate_opm(system, nl.input_function(), (1.0, 4))
        # current gm*v_in leaves node 'out' -> v_out = -gm*R*v_in = -2.0
        np.testing.assert_allclose(res.output_coefficients, -2.0, atol=1e-12)

    def test_stamp_pattern(self):
        nl = Netlist()
        nl.add_current_source("I1", "0", "c", Constant(1.0))
        nl.add_resistor("Rc", "c", "0", 1.0)
        nl.add_vccs("G1", "a", "0", "c", "0", gm=5.0)
        nl.add_resistor("Ra", "a", "0", 1.0)
        system = assemble_mna(nl)
        A = dense(system.A)
        ia, ic = nl.node_index("a"), nl.node_index("c")
        assert A[ia, ic] == -5.0  # current 5*v_c leaves node a

    @pytest.mark.parametrize("control", ["in", "mid"])
    def test_initial_conditions_survive_a_vccs(self, control):
        # the control node's index once overwrote the .ic mapping: index
        # 0 dropped the initial state, any other index crashed assembly
        nl = Netlist.from_spice(
            f"""
            I1 0 in 1m
            R1 in mid 1k
            R2 mid 0 1k
            C1 mid 0 1u
            G1 out 0 {control} 0 2m
            RL out 0 1k
            CL out 0 1u
            """
        )
        system = assemble_mna(nl, ic={"out": 0.5})
        assert system.x0[nl.node_index("out")] == 0.5

    def test_spice_g_card(self):
        nl = Netlist.from_spice(
            """
            V1 in 0 1.0
            G1 out 0 in 0 2m
            RL out 0 1k
            """
        )
        system = assemble_mna(nl, outputs=["out"])
        res = simulate_opm(system, nl.input_function(), (1.0, 4))
        np.testing.assert_allclose(res.output_coefficients, -2.0, atol=1e-12)

    def test_g_card_field_count(self):
        with pytest.raises(NetlistError, match="6 fields"):
            Netlist.from_spice("G1 a 0 c 0")


class TestNaStamp:
    def test_na_matches_mna_with_vccs(self):
        # RC circuit with a feedback transconductance; NA and MNA must
        # produce the same node waveform
        nl = Netlist()
        nl.add_current_source("I1", "0", "a", Ramp(1e-3, rise=1e-3))
        nl.add_resistor("R1", "a", "0", 1e3)
        nl.add_capacitor("C1", "a", "0", 1e-6)
        nl.add_vccs("G1", "b", "0", "a", "0", gm=1e-3)
        nl.add_resistor("R2", "b", "0", 1e3)
        nl.add_capacitor("C2", "b", "0", 1e-6)
        nl.add_inductor("L1", "b", "0", 1e-3)
        mna = assemble_mna(nl, outputs=["b"])
        na = assemble_na(nl, outputs=["b"])
        r_mna = simulate_opm(mna, nl.input_function(), (5e-3, 2000))
        r_na = simulate_opm(na, nl.input_function(derivative=True), (5e-3, 2000))
        t = r_mna.grid.midpoints
        ym, yn = r_mna.outputs(t)[0], r_na.outputs(t)[0]
        scale = max(np.max(np.abs(ym)), 1e-12)
        np.testing.assert_allclose(ym, yn, atol=5e-3 * scale)

    def test_active_damping(self):
        # negative transconductance feedback damps an LC tank
        def build(gm):
            nl = Netlist()
            nl.add_current_source("I1", "0", "a", Ramp(1e-3, rise=1e-6))
            nl.add_inductor("L1", "a", "0", 1e-3)
            nl.add_capacitor("C1", "a", "0", 1e-6)
            nl.add_resistor("R1", "a", "0", 1e5)
            if gm:
                nl.add_vccs("G1", "a", "0", "a", "0", gm=gm)
            return nl

        responses = {}
        for gm in (None, 5e-3):
            nl = build(gm)
            system = assemble_mna(nl, outputs=["a"])
            res = simulate_opm(system, nl.input_function(), (2e-3, 4000))
            responses[gm] = res.output_coefficients[0]
        # with feedback the ringing amplitude decays much faster
        undamped_late = np.max(np.abs(responses[None][3000:]))
        damped_late = np.max(np.abs(responses[5e-3][3000:]))
        assert damped_late < 0.2 * undamped_late
