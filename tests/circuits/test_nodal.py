"""Tests for nodal-analysis second-order assembly (paper section V-B)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuits import Constant, Netlist, Ramp, assemble_mna, assemble_na, rlc_ladder_netlist
from repro.core import MultiTermSystem, SecondOrderSystem, simulate_opm
from repro.errors import NetlistError


def dense(x):
    return x.toarray() if sp.issparse(x) else np.asarray(x)


class TestAssembly:
    def test_gamma_from_inductor(self):
        nl = Netlist()
        nl.add_current_source("I1", "0", "n", Ramp(1.0, rise=1.0))
        nl.add_inductor("L1", "n", "0", 2.0)
        nl.add_capacitor("C1", "n", "0", 3.0)
        nl.add_resistor("R1", "n", "0", 4.0)
        system = assemble_na(nl)
        assert isinstance(system, SecondOrderSystem)
        np.testing.assert_allclose(dense(system.M), [[3.0]])
        np.testing.assert_allclose(dense(system.Cd), [[0.25]])
        np.testing.assert_allclose(dense(system.K), [[0.5]])  # 1/L

    def test_na_size_is_node_count(self):
        nl = rlc_ladder_netlist(5, drive_waveform=Ramp(1.0, rise=0.01))
        na = assemble_na(nl)
        mna = assemble_mna(nl)
        assert na.n_states == nl.n_nodes
        assert mna.n_states == nl.n_nodes + len(nl.inductors)
        assert na.n_states < mna.n_states  # the paper's 75K < 110K

    def test_floating_inductor_gamma_pattern(self):
        nl = Netlist()
        nl.add_current_source("I1", "0", "a", Ramp(1.0, rise=1.0))
        nl.add_inductor("L1", "a", "b", 0.5)
        nl.add_resistor("Ra", "a", "0", 1.0)
        nl.add_resistor("Rb", "b", "0", 1.0)
        system = assemble_na(nl)
        np.testing.assert_allclose(dense(system.K), [[2.0, -2.0], [-2.0, 2.0]])

    def test_cpe_adds_shifted_order(self):
        nl = Netlist()
        nl.add_current_source("I1", "0", "a", Ramp(1.0, rise=1.0))
        nl.add_resistor("R1", "a", "0", 1.0)
        nl.add_capacitor("C1", "a", "0", 1.0)
        nl.add_inductor("L1", "a", "0", 1.0)
        nl.add_cpe("P1", "a", "0", 1.0, 0.5)
        system = assemble_na(nl)
        assert isinstance(system, MultiTermSystem)
        assert [o for o, _ in system.terms] == [2.0, 1.5, 1.0, 0.0]

    def test_alpha_one_cpe_is_a_capacitor(self):
        """An alpha = 1 CPE joins C, as MNA merges it into E: its NA
        terms are byte-equal to those of the capacitor it equals."""

        def csr_bytes(matrix):
            csr = sp.csr_matrix(matrix)
            return csr.shape, [a.tobytes() for a in (csr.data, csr.indices, csr.indptr)]

        deck = "I1 0 a 1m\nR1 a 0 1k\n{}\n"
        cpe = assemble_na(Netlist.from_spice(deck.format("P1 a 0 1u 1")))
        cap = assemble_na(Netlist.from_spice(deck.format("C1 a 0 1u")))
        assert type(cpe) is type(cap) is SecondOrderSystem
        assert [o for o, _ in cpe.terms] == [o for o, _ in cap.terms]
        for (_, m1), (_, m2) in zip(cpe.terms, cap.terms):
            assert csr_bytes(m1) == csr_bytes(m2)
        assert np.asarray(cpe.B).tobytes() == np.asarray(cap.B).tobytes()

    def test_alpha_one_cpe_beside_a_capacitor_and_a_fractional_cpe(self):
        nl = Netlist.from_spice(
            "I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\nP1 a 0 2u 1\nP2 a 0 3u 0.5\n"
        )
        system = assemble_na(nl)
        assert [o for o, _ in system.terms] == [2.0, 1.5, 1.0, 0.0]
        np.testing.assert_allclose(dense(system.terms[0][1]), [[3e-6]])

    def test_rejects_voltage_sources(self):
        nl = Netlist()
        nl.add_voltage_source("V1", "a", "0", Constant(1.0))
        nl.add_resistor("R1", "a", "0", 1.0)
        with pytest.raises(NetlistError, match="voltage sources"):
            assemble_na(nl)

    def test_rejects_empty(self):
        with pytest.raises(NetlistError):
            assemble_na(Netlist())


class TestEquivalenceWithMNA:
    def test_rlc_ladder_waveform_match(self):
        nl = rlc_ladder_netlist(
            4, r=1.0, l=1e-4, c=1e-3, drive_waveform=Ramp(1.0, rise=5e-3)
        )
        mna = assemble_mna(nl, outputs=["v4"])
        na = assemble_na(nl, outputs=["v4"])
        res_mna = simulate_opm(mna, nl.input_function(), (0.05, 1500))
        res_na = simulate_opm(na, nl.input_function(derivative=True), (0.05, 1500))
        t = res_mna.grid.midpoints
        np.testing.assert_allclose(
            res_mna.outputs(t)[0], res_na.outputs(t)[0], atol=2e-6
        )

    def test_na_refinement_converges_to_mna(self):
        nl = rlc_ladder_netlist(
            3, r=1.0, l=1e-4, c=1e-3, drive_waveform=Ramp(1.0, rise=5e-3)
        )
        mna = assemble_mna(nl, outputs=["v3"])
        na = assemble_na(nl, outputs=["v3"])
        ref = simulate_opm(mna, nl.input_function(), (0.05, 4000))
        t = np.linspace(0.003, 0.047, 15)
        ref_y = ref.outputs(t)[0]
        errs = []
        for m in (500, 2000):
            res = simulate_opm(na, nl.input_function(derivative=True), (0.05, m))
            errs.append(np.max(np.abs(res.outputs(t)[0] - ref_y)))
        assert errs[1] < errs[0]
