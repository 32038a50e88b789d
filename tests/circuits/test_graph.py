"""Circuit-graph layer: connectivity and lint.

The lint must flag exactly the two structural defects that make the
MNA pencil singular -- floating nodes (all-zero KCL rows) and
connected components with no conductive path to ground -- and stay
silent on every well-formed deck, including every shipped example.
"""

from pathlib import Path

import pytest

from repro.circuits import CircuitGraph, Netlist, SpiceSin
from repro.circuits.netlist import NetlistError
from repro.engine.netlist_session import build_system, lint_netlist

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def two_component_netlist() -> Netlist:
    nl = Netlist("pair")
    nl.add_current_source("I1", "0", "a1", SpiceSin(0.0, 1e-3, 500.0))
    nl.add_resistor("R1", "a1", "0", 1e3)
    nl.add_capacitor("C1", "a1", "0", 1e-6)
    nl.add_voltage_source("V2", "b1", "0", SpiceSin(0.0, 1.0, 1e3))
    nl.add_resistor("R2", "b1", "b2", 50.0)
    nl.add_inductor("L2", "b2", "0", 1e-3)
    return nl


class TestConnectivity:
    def test_single_component_rc(self):
        nl = Netlist("rc")
        nl.add_voltage_source("V1", "in", "0", SpiceSin(0.0, 1.0, 100.0))
        nl.add_resistor("R1", "in", "out", 1e3)
        nl.add_capacitor("C1", "out", "0", 1e-6)
        graph = CircuitGraph(nl)
        assert graph.n_components == 1
        assert graph.degree("in") == 2
        assert graph.degree("out") == 2
        assert graph.summary()["grounded_components"] == 1
        assert not graph.lint()

    def test_two_components_and_membership(self):
        graph = CircuitGraph(two_component_netlist())
        assert graph.n_components == 2
        assert graph.component_of("a1") is not graph.component_of("b1")
        assert graph.component_of("b1") is graph.component_of("b2")
        assert graph.orphan_elements == ()

    def test_ground_does_not_merge_components(self):
        # both components touch node 0, yet stay distinct
        graph = CircuitGraph(two_component_netlist())
        assert graph.n_components == 2

    def test_vccs_control_refs_merge_components(self):
        nl = Netlist("bridged")
        nl.add_current_source("I1", "0", "in", SpiceSin(0.0, 1.0, 1e3))
        nl.add_resistor("R1", "in", "0", 1e3)
        nl.add_vccs("G1", "0", "out", "in", "0", 1e-3)
        nl.add_resistor("R2", "out", "0", 1e3)
        graph = CircuitGraph(nl)
        assert graph.n_components == 1

    def test_mutual_coupling_merges_components(self):
        nl = Netlist("transformer")
        nl.add_voltage_source("V1", "p", "0", SpiceSin(0.0, 1.0, 1e3))
        nl.add_inductor("L1", "p", "0", 1e-3)
        nl.add_inductor("L2", "s", "0", 1e-3)
        nl.add_resistor("R2", "s", "0", 50.0)
        graph = CircuitGraph(nl)
        assert graph.n_components == 2
        nl.add_mutual("K1", "L1", "L2", 0.9)
        assert CircuitGraph(nl).n_components == 1

    def test_ground_aliases_unify(self):
        nl = Netlist.from_spice(
            "V1 n1 gnd SIN(0 1 1k)\nR1 n1 vss 1k\nR2 n1 ground 2k\n.end\n"
        )
        graph = CircuitGraph(nl)
        assert graph.n_components == 1
        assert graph.degree("n1") == 3
        assert not graph.lint()


class TestLint:
    def test_dangling_node_flagged(self):
        nl = Netlist("dangling")
        nl.add_voltage_source("V1", "in", "0", SpiceSin(0.0, 1.0, 100.0))
        nl.add_resistor("R1", "in", "stub", 1e3)
        report = CircuitGraph(nl).lint()
        assert report.codes == ("floating-node",)
        assert "stub" in report[0].message
        assert "R1" in report[0].elements

    def test_control_only_node_flagged(self):
        nl = Netlist("ctrl")
        nl.add_current_source("I1", "0", "out", SpiceSin(0.0, 1.0, 1e3))
        nl.add_resistor("R1", "out", "0", 1e3)
        nl.add_vccs("G1", "0", "out", "phantom", "0", 1e-3)
        report = CircuitGraph(nl).lint()
        assert report.codes == ("floating-node",)
        assert "phantom" in report[0].message
        assert "control reference" in report[0].message

    def test_no_dc_path_flagged(self):
        nl = Netlist("adrift")
        nl.add_voltage_source("V1", "in", "0", SpiceSin(0.0, 1.0, 100.0))
        nl.add_resistor("R1", "in", "0", 1e3)
        nl.add_resistor("R2", "x1", "x2", 1e3)
        nl.add_capacitor("C2", "x2", "x1", 1e-6)
        report = CircuitGraph(nl).lint()
        assert report.codes == ("no-dc-path",)
        assert set(report[0].nodes) == {"x1", "x2"}

    def test_current_source_does_not_pin(self):
        # a current source to ground stamps only B: still no DC path
        nl = Netlist("pumped")
        nl.add_current_source("I1", "0", "x1", SpiceSin(0.0, 1.0, 1e3))
        nl.add_capacitor("C1", "x1", "x2", 1e-6)
        nl.add_resistor("R1", "x2", "x1", 1e3)
        report = CircuitGraph(nl).lint()
        assert "no-dc-path" in report.codes

    def test_check_raises_with_names_and_hint(self):
        nl = Netlist("dangling")
        nl.add_voltage_source("V1", "in", "0", SpiceSin(0.0, 1.0, 100.0))
        nl.add_resistor("R1", "in", "stub", 1e3)
        with pytest.raises(NetlistError, match="stub") as excinfo:
            CircuitGraph(nl).check()
        assert "fix:" in str(excinfo.value)

    def test_build_system_gates_on_lint(self):
        nl = Netlist("adrift")
        nl.add_voltage_source("V1", "in", "0", SpiceSin(0.0, 1.0, 100.0))
        nl.add_resistor("R1", "in", "0", 1e3)
        nl.add_capacitor("C2", "x1", "x2", 1e-6)
        nl.add_resistor("R2", "x2", "x1", 1e3)
        with pytest.raises(NetlistError, match="no-dc-path|conductive"):
            build_system(nl)
        # the escape hatch still assembles the (singular) pencil
        system = build_system(nl, lint=False)
        assert system.n_states >= 4

    def test_lint_netlist_accepts_deck_text(self):
        report = lint_netlist("V1 in 0 SIN(0 1 1k)\nR1 in stub 1k\n.end\n")
        assert report.codes == ("floating-node",)
        payload = report.as_dict()
        assert payload["ok"] is False
        assert payload["issues"][0]["code"] == "floating-node"

    @pytest.mark.parametrize("deck", sorted(EXAMPLES.glob("*.cir")))
    def test_every_example_deck_is_clean(self, deck):
        assert not lint_netlist(deck.read_text(), title=deck.stem)
