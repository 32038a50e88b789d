"""Tests for circuit element records."""

import math
import re

import pytest

from repro.circuits import (
    CPE,
    VCCS,
    Capacitor,
    CurrentSource,
    Inductor,
    MutualInductance,
    Netlist,
    Resistor,
    VoltageSource,
)
from repro.errors import NetlistError

INF, NAN = math.inf, math.nan


class TestResistor:
    def test_conductance(self):
        assert Resistor("R1", "a", "b", resistance=4.0).conductance == 0.25

    def test_rejects_nonpositive(self):
        with pytest.raises(NetlistError, match="positive"):
            Resistor("R1", "a", "b", resistance=0.0)

    def test_rejects_same_node(self):
        with pytest.raises(NetlistError, match="both terminals"):
            Resistor("R1", "a", "a", resistance=1.0)

    def test_rejects_non_string_nodes(self):
        with pytest.raises(NetlistError):
            Resistor("R1", 1, 2, resistance=1.0)

    def test_frozen(self):
        r = Resistor("R1", "a", "b", resistance=1.0)
        with pytest.raises(AttributeError):
            r.resistance = 2.0


class TestDynamicElements:
    def test_capacitor_validation(self):
        assert Capacitor("C1", "a", "0", capacitance=1e-12).capacitance == 1e-12
        with pytest.raises(NetlistError):
            Capacitor("C1", "a", "0", capacitance=-1e-12)

    def test_inductor_validation(self):
        assert Inductor("L1", "a", "b", inductance=1e-9).inductance == 1e-9
        with pytest.raises(NetlistError):
            Inductor("L1", "a", "b", inductance=0.0)


class TestCPE:
    def test_valid_range(self):
        cpe = CPE("P1", "a", "0", q=1e-6, alpha=0.5)
        assert cpe.alpha == 0.5 and cpe.q == 1e-6

    def test_alpha_one_allowed(self):
        assert CPE("P1", "a", "0", q=1.0, alpha=1.0).alpha == 1.0

    @pytest.mark.parametrize("bad_alpha", [0.0, -0.5, 1.5])
    def test_rejects_alpha_outside_unit(self, bad_alpha):
        with pytest.raises(NetlistError, match="alpha"):
            CPE("P1", "a", "0", q=1.0, alpha=bad_alpha)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(NetlistError):
            CPE("P1", "a", "0", q=0.0, alpha=0.5)


class TestSources:
    def test_current_source_channel(self):
        src = CurrentSource("I1", "0", "n1", channel=2, scale=1e-3)
        assert src.channel == 2 and src.scale == 1e-3

    def test_rejects_negative_channel(self):
        with pytest.raises(NetlistError):
            CurrentSource("I1", "0", "n1", channel=-1)

    def test_voltage_source(self):
        src = VoltageSource("V1", "vdd", "0", channel=0, scale=1.8)
        assert src.scale == 1.8

    def test_voltage_rejects_negative_channel(self):
        with pytest.raises(NetlistError):
            VoltageSource("V1", "a", "0", channel=-2)


class TestFiniteValues:
    """Every kind's value rule requires a finite value."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda v: Resistor("R1", "a", "0", resistance=v), "R1: resistance"),
            (lambda v: Capacitor("C1", "a", "0", capacitance=v), "C1: capacitance"),
            (lambda v: Inductor("L1", "a", "0", inductance=v), "L1: inductance"),
            (lambda v: CPE("P1", "a", "0", q=v, alpha=0.5), "P1: q"),
            (lambda v: VCCS("G1", "a", "0", c="b", d="0", gm=v), "G1: gm"),
            (lambda v: CurrentSource("I1", "0", "a", scale=v), "I1: scale"),
            (lambda v: VoltageSource("V1", "a", "0", scale=v), "V1: scale"),
        ],
    )
    def test_rejects_infinity(self, make, message):
        with pytest.raises(NetlistError, match=f"^{message} must be finite, got inf$"):
            make(INF)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: VCCS("G1", "a", "0", c="b", d="0", gm=-INF), "G1: gm must be finite, got -inf"),
            (lambda: VCCS("G1", "a", "0", c="b", d="0", gm=NAN), "G1: gm must be finite, got nan"),
            (lambda: CurrentSource("I1", "0", "a", scale=NAN), "I1: scale must be finite, got nan"),
        ],
    )
    def test_rejects_non_finite_gm_and_scale(self, make, message):
        with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
            make()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Resistor("R1", "a", "0", resistance=NAN), "R1: resistance must be positive, got nan"),
            (lambda: Capacitor("C1", "a", "0", capacitance=-INF), "C1: capacitance must be positive, got -inf"),
            (lambda: VCCS("G1", "a", "0", c="b", d="0", gm=0.0), "G1: gm must be nonzero"),
            (
                lambda: MutualInductance("K1", "L1", "L2", coupling=INF),
                "K1: coupling must satisfy 0 < |k| < 1, got inf "
                "(|k| = 1 makes the inductance matrix singular)",
            ),
        ],
    )
    def test_messages_of_the_other_rules(self, make, message):
        with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
            make()


class TestNumericValues:
    """A value that is not a number is a typed error naming the element
    and the field, from the record and from the netlist helpers alike."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Resistor("R1", "a", "0", resistance="abc"), "R1: resistance must be a number, got 'abc'"),
            (lambda: Netlist().add_resistor("R1", "a", "0", "abc"), "R1: resistance must be a number, got 'abc'"),
            (lambda: Netlist().add_capacitor("C1", "a", "0", None), "C1: capacitance must be a number, got None"),
            (lambda: CPE("P1", "a", "0", q=1e-6, alpha="half"), "P1: alpha must be a number, got 'half'"),
            (lambda: Netlist().add_vccs("G1", "a", "0", "b", "0", [1]), "G1: gm must be a number, got [1]"),
            (lambda: Netlist().add_current_source("I1", "0", "a", scale="x"), "I1: scale must be a number, got 'x'"),
            (lambda: MutualInductance("K1", "L1", "L2", coupling="k"), "K1: coupling must be a number, got 'k'"),
        ],
    )
    def test_rejects_non_numbers(self, make, message):
        with pytest.raises(NetlistError, match=f"^{re.escape(message)}$"):
            make()

    def test_values_are_stored_as_floats(self):
        resistor = Resistor("R1", "a", "0", resistance=1000)
        assert resistor.resistance == 1000.0 and type(resistor.resistance) is float
        assert type(CPE("P1", "a", "0", q="1e-6", alpha=1).alpha) is float
