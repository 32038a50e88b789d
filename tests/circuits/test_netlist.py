"""Tests for the netlist container and SPICE parser."""

import numpy as np
import pytest

from repro.circuits import (
    Constant,
    Netlist,
    PiecewiseLinear,
    Ramp,
    SpiceExp,
    SpicePulse,
    SpiceSin,
)
from repro.circuits.netlist import parse_source_spec, parse_value
from repro.errors import NetlistError


class TestNodeBookkeeping:
    def test_ground_aliases(self):
        for name in ("0", "gnd", "GND", "ground"):
            assert Netlist.is_ground(name)

    @pytest.mark.parametrize("name", ["Gnd", "GROUND", "Ground", "gND"])
    def test_ground_aliases_case_insensitive(self, name):
        """Regression: mixed-case ground must not register as a live node."""
        assert Netlist.is_ground(name)
        nl = Netlist()
        nl.add_resistor("R1", "a", name, 1.0)
        assert nl.nodes == ["a"]

    def test_mixed_case_ground_assembles_same_system(self):
        from repro.circuits import assemble_mna

        reference = Netlist.from_spice("I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u")
        cased = Netlist.from_spice("I1 Gnd a 1m\nR1 a GROUND 1k\nC1 a Ground 1u")
        ref_sys = assemble_mna(reference)
        cased_sys = assemble_mna(cased)
        np.testing.assert_array_equal(ref_sys.A, cased_sys.A)
        np.testing.assert_array_equal(ref_sys.E, cased_sys.E)
        np.testing.assert_array_equal(ref_sys.B, cased_sys.B)

    def test_node_registration_order(self):
        nl = Netlist()
        nl.add_resistor("R1", "b", "a", 1.0)
        nl.add_resistor("R2", "a", "c", 1.0)
        assert nl.nodes == ["b", "a", "c"]
        assert nl.node_index("a") == 1

    def test_ground_not_registered(self):
        nl = Netlist()
        nl.add_resistor("R1", "a", "0", 1.0)
        assert nl.nodes == ["a"] and nl.n_nodes == 1

    def test_node_index_rejects_ground(self):
        nl = Netlist()
        nl.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(NetlistError, match="ground"):
            nl.node_index("0")

    def test_node_index_rejects_unknown(self):
        nl = Netlist()
        nl.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(NetlistError, match="unknown"):
            nl.node_index("zz")


class TestElementManagement:
    def test_duplicate_names_rejected(self):
        nl = Netlist()
        nl.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(NetlistError, match="duplicate"):
            nl.add_capacitor("R1", "a", "0", 1.0)

    def test_typed_queries(self):
        nl = Netlist()
        nl.add_resistor("R1", "a", "0", 1.0)
        nl.add_capacitor("C1", "a", "0", 1.0)
        nl.add_inductor("L1", "a", "b", 1.0)
        nl.add_cpe("P1", "b", "0", 1.0, 0.5)
        assert len(nl.resistors) == 1 and len(nl.capacitors) == 1
        assert len(nl.inductors) == 1 and len(nl.cpes) == 1

    def test_summary_counts(self):
        nl = Netlist("t")
        nl.add_resistor("R1", "a", "0", 1.0)
        nl.add_current_source("I1", "0", "a", Constant(1.0))
        s = nl.summary()
        assert s["resistors"] == 1 and s["current_sources"] == 1 and s["channels"] == 1


class TestChannels:
    def test_auto_allocation(self):
        nl = Netlist()
        ch0 = nl.add_current_source("I1", "0", "a", Constant(1.0))
        ch1 = nl.add_current_source("I2", "0", "a2", Constant(2.0))
        assert (ch0, ch1) == (0, 1) and nl.n_channels == 2

    def test_shared_channel(self):
        nl = Netlist()
        ch = nl.add_current_source("I1", "0", "a", Constant(1.0))
        same = nl.add_current_source("I2", "0", "b", channel=ch, scale=2.0)
        assert same == ch and nl.n_channels == 1

    def test_conflicting_waveform_rejected(self):
        nl = Netlist()
        ch = nl.add_current_source("I1", "0", "a", Constant(1.0))
        with pytest.raises(NetlistError, match="already has waveform"):
            nl.add_current_source("I2", "0", "b", Constant(2.0), channel=ch)

    def test_input_function_stacks_channels(self):
        nl = Netlist()
        nl.add_current_source("I1", "0", "a", Constant(2.0))
        nl.add_current_source("I2", "0", "b", Ramp(level=1.0, rise=1.0))
        u = nl.input_function()
        values = u(np.array([0.5]))
        np.testing.assert_allclose(values, [[2.0], [0.5]])

    def test_input_function_derivative(self):
        nl = Netlist()
        nl.add_current_source("I1", "0", "a", Ramp(level=2.0, rise=1.0))
        du = nl.input_function(derivative=True)
        np.testing.assert_allclose(du(np.array([0.5])), [[2.0]])

    def test_input_function_missing_waveform(self):
        nl = Netlist()
        nl.add_current_source("I1", "0", "a", channel=0)
        with pytest.raises(NetlistError, match="no attached waveform"):
            nl.input_function()

    def test_set_channel_waveform(self):
        nl = Netlist()
        nl.add_current_source("I1", "0", "a", channel=0)
        nl.set_channel_waveform(0, Constant(5.0))
        np.testing.assert_allclose(nl.input_function()(np.array([0.0])), [[5.0]])

    def test_set_channel_waveform_range_check(self):
        nl = Netlist()
        nl.add_current_source("I1", "0", "a", channel=0)
        with pytest.raises(NetlistError, match="out of range"):
            nl.set_channel_waveform(3, Constant(1.0))


class TestParseValue:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("1", 1.0),
            ("1.5", 1.5),
            ("-2", -2.0),
            ("1e-9", 1e-9),
            ("1k", 1e3),
            ("3meg", 3e6),
            ("2m", 2e-3),
            ("5u", 5e-6),
            ("7n", 7e-9),
            ("4p", 4e-12),
            ("1f", 1e-15),
            ("2G", 2e9),
            ("1T", 1e12),
            # regression: trailing decimal point is valid SPICE
            ("3.", 3.0),
            (".5", 0.5),
            ("-2.e3", -2000.0),
            # regression: trailing unit letters are ignored
            ("1kOhm", 1e3),
            ("10uF", 1e-5),
            ("100nH", 1e-7),
            ("2.5V", 2.5),
            ("1megHz", 1e6),
            ("1x", 1.0),
            # the mil suffix (1/1000 inch)
            ("1mil", 25.4e-6),
            ("5MIL", 5 * 25.4e-6),
            # an underflow is zero, not an error
            ("1e-400", 0.0),
        ],
    )
    def test_values(self, token, expected):
        assert parse_value(token) == pytest.approx(expected)

    def test_mil_is_not_milli(self):
        """``mil`` must win over the ``m`` suffix with trailing 'il'."""
        assert parse_value("1mil") != pytest.approx(1e-3)

    # the overflows (float() reads them as +-inf) are rejected too
    @pytest.mark.parametrize(
        "bad", ["", "abc", "--1", "1 k", "1k5", ".", "1e400", "-1e400", "1e305t"]
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(NetlistError, match="cannot parse numeric value"):
            parse_value(bad)


class TestSpiceParser:
    def test_full_example(self):
        nl = Netlist.from_spice(
            """
            * rc with sources
            I1 0 n1 1m
            R1 n1 n2 1k
            C1 n2 0 1u
            L1 n2 n3 1n
            V1 n3 0 1.0
            P1 n1 0 1u 0.5
            .end
            """
        )
        s = nl.summary()
        assert s == {
            "nodes": 3,
            "resistors": 1,
            "capacitors": 1,
            "inductors": 1,
            "cpes": 1,
            "couplings": 0,
            "current_sources": 1,
            "voltage_sources": 1,
            "channels": 2,
        }

    def test_sources_get_constant_waveforms(self):
        nl = Netlist.from_spice("I1 0 a 2m\nR1 a 0 1k")
        u = nl.input_function()
        np.testing.assert_allclose(u(np.array([0.0])), [[2e-3]])

    def test_stops_at_end_card(self):
        nl = Netlist.from_spice("R1 a 0 1\n.end\nR2 b 0 1")
        assert len(nl.resistors) == 1

    def test_ignores_comments_and_dot_cards(self):
        nl = Netlist.from_spice("* hi\n.tran 1n 10n\nR1 a 0 1")
        assert len(nl.resistors) == 1

    @pytest.mark.parametrize(
        "card",
        ["R1 a 0 1e400", "C1 a 0 1e400", "G1 a 0 b 0 1e400", "P1 a 0 1 1e400",
         "I1 0 a SIN(0 1e400 1k)", "V1 a 0 DC 1e400"],
    )
    def test_rejects_overflowing_values(self, card):
        deck = f"I0 0 a 1m\nR0 a 0 1k\nR9 b 0 1k\n{card}\n"
        with pytest.raises(NetlistError, match="cannot parse numeric value '1e400'"):
            Netlist.from_spice(deck)

    def test_helpers_reject_non_finite_values(self):
        nl = Netlist()
        with pytest.raises(NetlistError, match="^R1: resistance must be finite, got inf$"):
            nl.add_resistor("R1", "a", "0", float("inf"))
        with pytest.raises(NetlistError, match="^I1: scale must be finite, got inf$"):
            nl.add_current_source("I1", "0", "a", Constant(1.0), scale=float("inf"))
        base = Netlist.from_spice("I1 0 a 1m\nR1 a 0 1k\n")
        with pytest.raises(NetlistError, match="^R1: resistance must be finite, got inf$"):
            base.with_values({"R1": float("inf")})

    def test_rejects_wrong_field_count(self):
        with pytest.raises(NetlistError, match="expected 4 fields"):
            Netlist.from_spice("R1 a 0")

    def test_rejects_cpe_wrong_fields(self):
        with pytest.raises(NetlistError, match="expected 5 fields"):
            Netlist.from_spice("P1 a 0 1u")

    def test_rejects_unknown_card(self):
        # D (diode) is outside the supported linear subset; X is a real
        # card now, routed to the hierarchy expander instead
        with pytest.raises(NetlistError, match="unsupported"):
            Netlist.from_spice("D1 a b dmodel")

    @pytest.mark.parametrize("card", ["Z1", ")", "Z1 a"])
    def test_rejects_unknown_short_card(self, card):
        # regression: a one- or two-token card used to reach the node
        # fields and escape as an IndexError
        with pytest.raises(NetlistError, match="unsupported card"):
            Netlist.from_spice(f"I1 0 a 1m\nR1 a 0 1k\n{card}\n")

    def test_rejects_empty(self):
        with pytest.raises(NetlistError, match="no elements"):
            Netlist.from_spice("* nothing\n")

    def test_from_spice_file(self, tmp_path):
        path = tmp_path / "deck.cir"
        path.write_text("I1 0 a 1m\nR1 a 0 1k\n")
        nl = Netlist.from_spice_file(path)
        assert nl.title == "deck" and len(nl.resistors) == 1

    def test_from_spice_file_missing(self, tmp_path):
        with pytest.raises(NetlistError, match="cannot read"):
            Netlist.from_spice_file(tmp_path / "missing.cir")


class TestLineContinuationAndComments:
    """Regression: ``+`` continuations and ``;`` / ``$`` inline comments."""

    def test_plus_continuation_joins_cards(self):
        nl = Netlist.from_spice(
            "I1 0 n1 PULSE(0 1m 0 1u\n+ 1u 2m 4m)\nR1 n1 0 1k\n"
        )
        (source,) = nl.current_sources
        wf = nl.input_function()
        np.testing.assert_allclose(wf(np.array([1e-3]))[0], [1e-3])

    def test_continuation_without_card_rejected(self):
        with pytest.raises(NetlistError, match="continuation"):
            Netlist.from_spice("+ R1 a 0 1k\n")

    def test_inline_semicolon_comment_stripped(self):
        nl = Netlist.from_spice("R1 a 0 1k ; load resistor\nI1 0 a 1m\n")
        assert nl.resistors[0].resistance == pytest.approx(1e3)
        assert nl.nodes == ["a"]

    def test_inline_dollar_comment_stripped(self):
        """A comment token must never parse as a node or value field."""
        nl = Netlist.from_spice("C1 a 0 1u $ decoupling cap\nI1 0 a 1m\n")
        assert nl.capacitors[0].capacitance == pytest.approx(1e-6)
        assert nl.nodes == ["a"]

    def test_dollar_inside_token_is_not_a_comment(self):
        """Hierarchical '$' node names survive comment stripping."""
        nl = Netlist.from_spice("R1 n$1 0 1k\nI1 0 n$1 1m\n")
        assert nl.nodes == ["n$1"]
        assert nl.resistors[0].resistance == pytest.approx(1e3)

    def test_commented_continuation(self):
        nl = Netlist.from_spice(
            "I1 0 n1 PWL(0 0 ; breakpoints follow\n+ 1m 2) ; done\nR1 n1 0 1\n"
        )
        u = nl.input_function()
        np.testing.assert_allclose(u(np.array([0.5e-3]))[0], [1.0])

    def test_comment_only_lines_between_continuations(self):
        nl = Netlist.from_spice(
            "I1 0 n1 SIN(0 1\n* interior comment\n+ 1k)\nR1 n1 0 1\n"
        )
        u = nl.input_function()
        np.testing.assert_allclose(u(np.array([0.25e-3]))[0], [1.0])


class TestSourceSpecs:
    def test_bare_dc_value(self):
        wf, ac = parse_source_spec("2m", "I1")
        assert isinstance(wf, Constant) and wf.level == pytest.approx(2e-3)
        assert ac is None

    def test_dc_keyword(self):
        wf, _ = parse_source_spec("DC 5", "V1")
        assert isinstance(wf, Constant) and wf.level == pytest.approx(5.0)

    def test_ac_magnitude_and_phase(self):
        _, ac = parse_source_spec("AC 2 90", "V1")
        assert ac == pytest.approx(2j)

    def test_sin_function(self):
        wf, _ = parse_source_spec("SIN(1 2 1k 1u 100 45)", "V1")
        assert isinstance(wf, SpiceSin)
        assert (wf.vo, wf.va, wf.freq) == (1.0, 2.0, 1e3)
        assert (wf.td, wf.theta, wf.phase) == (1e-6, 100.0, 45.0)

    def test_pulse_function_with_commas(self):
        wf, _ = parse_source_spec("PULSE(0, 1, 1u, 2u, 2u, 5u, 20u)", "V1")
        assert isinstance(wf, SpicePulse)
        assert (wf.td, wf.tr, wf.pw, wf.per) == pytest.approx(
            (1e-6, 2e-6, 5e-6, 2e-5)
        )

    def test_exp_function(self):
        wf, _ = parse_source_spec("EXP(0 1 0 1m 5m 2m)", "I1")
        assert isinstance(wf, SpiceExp)
        assert (wf.td2, wf.tau2) == (5e-3, 2e-3)

    def test_pwl_function(self):
        wf, _ = parse_source_spec("PWL(0 0 1m 1 2m 0)", "I1")
        assert isinstance(wf, PiecewiseLinear)
        np.testing.assert_allclose(wf(np.array([0.5e-3]))[0], 0.5)

    def test_dc_and_ac_and_transient_together(self):
        wf, ac = parse_source_spec("DC 1 AC 1 SIN(0 2 50)", "V1")
        assert isinstance(wf, SpiceSin) and ac == pytest.approx(1.0 + 0j)

    def test_bare_dc_value_alongside_transient_function(self):
        """The classic 'V1 in 0 0 SIN(...)' form must parse."""
        wf, ac = parse_source_spec("0 SIN(0 1 1k)", "V1")
        assert isinstance(wf, SpiceSin) and wf.freq == pytest.approx(1e3)
        nl = Netlist.from_spice("V1 in 0 0 SIN(0 1 1k)\nR1 in 0 1k\n")
        u = nl.input_function()
        np.testing.assert_allclose(u(np.array([0.25e-3]))[0], [1.0])

    def test_pwl_odd_args_rejected(self):
        with pytest.raises(NetlistError, match="pairs"):
            parse_source_spec("PWL(0 0 1m 1 2m)", "I1")

    def test_sin_arity_rejected(self):
        with pytest.raises(NetlistError, match="arguments"):
            parse_source_spec("SIN(1)", "V1")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(NetlistError, match="cannot parse source spec"):
            parse_source_spec("SIN(0 1 1k", "V1")

    def test_junk_token_rejected(self):
        with pytest.raises(NetlistError, match="unexpected token"):
            parse_source_spec("1 bogus", "I1")

    def test_sources_in_cards(self):
        nl = Netlist.from_spice(
            """
            V1 in 0 SIN(0 1 1k)
            I1 0 out PULSE(0 1m 0 1u 1u 1m 2m)
            R1 in out 1k
            """
        )
        u = nl.input_function()
        values = u(np.array([0.25e-3]))
        np.testing.assert_allclose(values[:, 0], [1.0, 1e-3])

    def test_ac_magnitudes_from_cards(self):
        nl = Netlist.from_spice(
            "V1 in 0 DC 0 AC 2\nI1 0 out 1m\nR1 in out 1k\n"
        )
        np.testing.assert_allclose(nl.ac_vector(), [2.0 + 0j, 0.0 + 0j])

    def test_ac_vector_defaults_to_unit_excitation(self):
        nl = Netlist.from_spice("I1 0 a 1m\nR1 a 0 1k\n")
        np.testing.assert_allclose(nl.ac_vector(), [1.0 + 0j])

    def test_ac_vector_multi_channel_needs_declaration(self):
        """Multi-source decks must say which sources excite the sweep."""
        nl = Netlist.from_spice("I1 0 a 1m\nV1 b 0 SIN(0 1 100)\nR1 a b 1k\n")
        with pytest.raises(NetlistError, match="AC magnitude"):
            nl.ac_vector()

    def test_sin_requires_freq(self):
        """SPICE defaults FREQ from .tran; parse time cannot, so require it."""
        with pytest.raises(NetlistError, match="arguments"):
            parse_source_spec("SIN(0 1)", "V1")

    def test_exp_requires_tau1(self):
        with pytest.raises(NetlistError, match="arguments"):
            parse_source_spec("EXP(0 1)", "V1")


class TestDotCards:
    def test_tran_card(self):
        nl = Netlist.from_spice("R1 a 0 1\nI1 0 a 1\n.tran 10u 5m\n")
        tran = nl.analysis.tran
        assert tran.tstep == pytest.approx(1e-5)
        assert tran.tstop == pytest.approx(5e-3)
        assert tran.steps == 500 and not tran.uic

    def test_tran_card_uic_and_tstart(self):
        nl = Netlist.from_spice("R1 a 0 1\nI1 0 a 1\n.tran 1u 1m 0 2u uic\n")
        assert nl.analysis.tran.uic
        assert nl.analysis.tran.tmax == pytest.approx(2e-6)

    def test_tran_bad_arity(self):
        with pytest.raises(NetlistError, match=r"\.tran expects"):
            Netlist.from_spice("R1 a 0 1\n.tran 1u\n")

    def test_ac_card(self):
        nl = Netlist.from_spice("R1 a 0 1\nI1 0 a 1\n.ac dec 10 1 1meg\n")
        ac = nl.analysis.ac
        assert (ac.variation, ac.n) == ("dec", 10)
        assert ac.f_stop == pytest.approx(1e6)
        assert ac.frequencies()[0] == pytest.approx(1.0)

    def test_ac_lin_frequencies(self):
        nl = Netlist.from_spice("R1 a 0 1\nI1 0 a 1\n.ac lin 5 10 50\n")
        np.testing.assert_allclose(
            nl.analysis.ac.frequencies(), [10, 20, 30, 40, 50]
        )

    def test_ac_bad_variation(self):
        with pytest.raises(NetlistError, match="variation"):
            Netlist.from_spice("R1 a 0 1\n.ac log 10 1 1k\n")

    def test_ic_card(self):
        nl = Netlist.from_spice("R1 a 0 1\nC1 a 0 1\n.ic v(a)=2.5\n")
        assert nl.analysis.ic == {"a": pytest.approx(2.5)}

    def test_ic_card_spaces_around_equals(self):
        nl = Netlist.from_spice("R1 a 0 1\nC1 a 0 1\n.ic v(a) = 0.5\n")
        assert nl.analysis.ic == {"a": pytest.approx(0.5)}

    def test_ic_unknown_node_rejected(self):
        with pytest.raises(NetlistError, match="unknown node"):
            Netlist.from_spice("R1 a 0 1\n.ic v(zz)=1\n")

    def test_ic_ground_rejected(self):
        with pytest.raises(NetlistError, match="ground"):
            Netlist.from_spice("R1 a 0 1\n.ic v(GND)=1\n")

    def test_ic_bad_entry_rejected(self):
        with pytest.raises(NetlistError, match=r"v\(node\)=value"):
            Netlist.from_spice("R1 a 0 1\n.ic a=1\n")

    def test_options_card(self):
        nl = Netlist.from_spice(
            "R1 a 0 1\nI1 0 a 1\n.options basis=chebyshev m=32 windows=4 "
            "method=opm backend=dense reltol=1e-6\n"
        )
        spec = nl.analysis
        assert spec.basis == "chebyshev" and spec.m == 32
        assert spec.windows == 4 and spec.method == "opm"
        assert spec.backend == "dense"
        assert spec.extra_options == {"reltol": "1e-6"}

    def test_options_bad_integer(self):
        with pytest.raises(NetlistError, match="integer"):
            Netlist.from_spice("R1 a 0 1\n.options m=many\n")

    def test_options_bad_entry(self):
        with pytest.raises(NetlistError, match="key=value"):
            Netlist.from_spice("R1 a 0 1\n.options basis\n")

    def test_unknown_dot_cards_still_ignored(self):
        nl = Netlist.from_spice("R1 a 0 1\n.print tran v(a)\n.temp 27\n")
        assert len(nl.resistors) == 1
        assert not nl.analysis.has_analyses
