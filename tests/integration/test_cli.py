"""Tests for the ``python -m repro`` command-line interface."""

import numpy as np
import pytest

from repro.__main__ import _deck_options, build_parser, run
from repro.circuits.netlist import Netlist
from repro.fractional import SoePlan

RC_NETLIST = """
* rc lowpass
I1 0 n1 1m
R1 n1 0 1k
C1 n1 0 1u
"""

CPE_NETLIST = """
I1 0 a 1.0
R1 a 0 1.0
P1 a 0 1.0 0.5
"""


@pytest.fixture
def rc_file(tmp_path):
    path = tmp_path / "rc.sp"
    path.write_text(RC_NETLIST)
    return path


class TestCli:
    def test_basic_run(self, rc_file, capsys):
        code = run([str(rc_file), "--t-end", "5e-3", "--steps", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "v(n1)" in out
        assert "factorisation" in out

    def test_final_value_correct(self, rc_file, capsys):
        run([str(rc_file), "--t-end", "20e-3", "--steps", "400", "--points", "4"])
        out = capsys.readouterr().out
        last_value = float(out.strip().splitlines()[-1].split("|")[-1])
        assert last_value == pytest.approx(1.0, rel=1e-3)  # 1mA * 1k

    def test_output_selection(self, tmp_path, capsys):
        path = tmp_path / "two.sp"
        path.write_text("I1 0 a 1m\nR1 a b 1k\nR2 b 0 1k\nC1 b 0 1u\n")
        code = run([str(path), "--t-end", "1e-2", "--outputs", "b"])
        out = capsys.readouterr().out
        assert code == 0
        assert "v(b)" in out and "v(a)" not in out

    def test_csv_written(self, rc_file, tmp_path, capsys):
        csv_path = tmp_path / "wave.csv"
        code = run(
            [str(rc_file), "--t-end", "5e-3", "--steps", "50", "--csv", str(csv_path)]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,n1"
        assert len(lines) == 51

    def test_fractional_netlist(self, tmp_path, capsys):
        path = tmp_path / "cpe.sp"
        path.write_text(CPE_NETLIST)
        code = run([str(path), "--t-end", "2.0", "--steps", "400"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FractionalDescriptorSystem" in out

    def test_sweep_mode(self, rc_file, capsys):
        code = run(
            [str(rc_file), "--t-end", "20e-3", "--steps", "200",
             "--points", "5", "--sweep", "0.5", "1.0", "2.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "swept 3 scaled inputs" in out
        assert "1 factorisation(s) shared" in out
        assert "v(n1)@x0.5" in out and "v(n1)@x2" in out
        # --points is honoured: 5 sampled rows; linear circuit: columns
        # scale with the input factor
        rows = [line for line in out.splitlines() if line.startswith("0.0")]
        assert len(rows) == 5
        _, v_half, v_one, v_two = (float(x) for x in rows[-1].split("|"))
        assert v_one == pytest.approx(2 * v_half, rel=1e-6)
        assert v_two == pytest.approx(4 * v_half, rel=1e-6)

    def test_sweep_csv(self, rc_file, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = run(
            [str(rc_file), "--t-end", "5e-3", "--steps", "50",
             "--sweep", "1.0", "3.0", "--csv", str(csv_path)]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,n1@x1,n1@x3"
        assert len(lines) == 51
        _, v1, v3 = (float(x) for x in lines[25].split(","))
        assert v3 == pytest.approx(3 * v1, rel=1e-9)

    def test_sweep_fractional_netlist(self, tmp_path, capsys):
        path = tmp_path / "cpe.sp"
        path.write_text(CPE_NETLIST)
        code = run(
            [str(path), "--t-end", "2.0", "--steps", "100", "--sweep", "1.0", "2.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "swept 2 scaled inputs" in out

    def test_method_flag_zoo(self, tmp_path, capsys):
        path = tmp_path / "cpe.sp"
        path.write_text(CPE_NETLIST)
        code = run(
            [str(path), "--t-end", "2.0", "--steps", "200", "--method", "gl"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "method gl[BlockPulse]" in out

    def test_method_flag_jacobi_binds_spectral_basis(self, tmp_path, capsys):
        path = tmp_path / "cpe.sp"
        path.write_text(CPE_NETLIST)
        code = run(
            [str(path), "--t-end", "2.0", "--steps", "24", "--method", "jacobi"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "method jacobi[Legendre]" in out

    def test_method_flag_sweeps(self, tmp_path, capsys):
        path = tmp_path / "cpe.sp"
        path.write_text(CPE_NETLIST)
        code = run(
            [str(path), "--t-end", "2.0", "--steps", "100",
             "--method", "oustaloup", "--sweep", "1.0", "2.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "swept 2 scaled inputs" in out

    def test_method_flag_typo_suggests(self, tmp_path, capsys):
        path = tmp_path / "cpe.sp"
        path.write_text(CPE_NETLIST)
        code = run(
            [str(path), "--t-end", "2.0", "--steps", "100", "--method", "oustalop"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "did you mean 'oustaloup'" in err
        assert "choose from" in err

    def test_method_flag_overrides_deck_option(self, tmp_path, capsys):
        path = tmp_path / "cpe.sp"
        path.write_text(CPE_NETLIST + ".options method=oustaloup\n.tran 10m 2\n")
        code = run([str(path), "--method", "gl"])
        out = capsys.readouterr().out
        assert code == 0
        assert "method gl[BlockPulse]" in out

    def test_windowed_march(self, rc_file, capsys):
        code = run(
            [str(rc_file), "--t-end", "20e-3", "--steps", "400",
             "--windows", "8", "--points", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "marched" in out and "8 windows" in out
        assert "1 factorisation(s)" in out
        # same steady state as the single-window run: 1mA * 1k
        last_value = float(out.strip().splitlines()[-1].split("|")[-1])
        assert last_value == pytest.approx(1.0, rel=1e-3)

    def test_windowed_march_matches_single(self, rc_file, tmp_path, capsys):
        csv_single = tmp_path / "single.csv"
        csv_march = tmp_path / "march.csv"
        run([str(rc_file), "--t-end", "20e-3", "--steps", "200",
             "--csv", str(csv_single)])
        run([str(rc_file), "--t-end", "20e-3", "--steps", "200",
             "--windows", "4", "--csv", str(csv_march)])
        single = np.loadtxt(csv_single, delimiter=",", skiprows=1)
        march = np.loadtxt(csv_march, delimiter=",", skiprows=1)
        np.testing.assert_allclose(march, single, atol=1e-10)

    def test_event_scale(self, rc_file, capsys):
        code = run(
            [str(rc_file), "--t-end", "40e-3", "--steps", "400",
             "--windows", "8", "--points", "4",
             "--event", "t=20e-3", "scale=3.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 event(s)" in out
        rows = [line for line in out.splitlines() if line.startswith("0.0")]
        before = float(rows[0].split("|")[-1])
        after = float(rows[-1].split("|")[-1])
        assert after == pytest.approx(3 * before, rel=1e-2)

    def test_event_restamp_from_file(self, rc_file, tmp_path, capsys):
        switched = tmp_path / "switched.sp"
        switched.write_text(RC_NETLIST + "R2 n1 0 500\n")
        code = run(
            [str(rc_file), "--t-end", "40e-3", "--steps", "400",
             "--windows", "8", "--points", "4",
             "--event", "t=20e-3", f"file={switched}"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 pencil stamp(s)" in out
        # switch closes 500 || 1k -> 333 mV steady state
        last_value = float(out.strip().splitlines()[-1].split("|")[-1])
        assert last_value == pytest.approx(1.0 / 3.0, rel=1e-2)

    def test_event_netlist_must_align_states(self, rc_file, tmp_path, capsys):
        # different node set -> would silently misalign the state vector
        other = tmp_path / "other.sp"
        other.write_text("I1 0 nX 1m\nR1 nX 0 1k\nC1 nX 0 1u\n")
        code = run(
            [str(rc_file), "--t-end", "20e-3", "--steps", "400",
             "--windows", "8", "--event", "t=10e-3", f"file={other}"]
        )
        assert code == 1
        assert "same nodes" in capsys.readouterr().err

    def test_event_without_windows_guides_user(self, rc_file, capsys):
        code = run(
            [str(rc_file), "--t-end", "1e-3", "--event", "t=0.5e-3", "scale=2.0"]
        )
        assert code == 1
        assert "--windows" in capsys.readouterr().err

    def test_event_requires_time(self, rc_file, capsys):
        code = run(
            [str(rc_file), "--t-end", "1e-3", "--windows", "2",
             "--event", "scale=2.0"]
        )
        assert code == 1
        assert "t=TIME" in capsys.readouterr().err

    def test_bad_event_token(self, rc_file, capsys):
        code = run(
            [str(rc_file), "--t-end", "1e-3", "--windows", "2",
             "--event", "t=0.5e-3", "bogus"]
        )
        assert code == 1
        assert "bad --event token" in capsys.readouterr().err

    def test_windows_must_divide_steps(self, rc_file, capsys):
        code = run(
            [str(rc_file), "--t-end", "1e-3", "--steps", "100", "--windows", "7"]
        )
        assert code == 1
        assert "divisible" in capsys.readouterr().err

    def test_sweep_and_windows_conflict(self, rc_file, capsys):
        code = run(
            [str(rc_file), "--t-end", "1e-3", "--windows", "2",
             "--sweep", "1.0", "2.0"]
        )
        assert code == 1
        assert "cannot be combined" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = run([str(tmp_path / "nope.sp"), "--t-end", "1.0"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_netlist(self, tmp_path, capsys):
        path = tmp_path / "bad.sp"
        path.write_text("X1 a b 1\n")
        code = run([str(path), "--t-end", "1.0"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestCliMemory:
    """--memory soe: compressed fractional history through the CLI."""

    @pytest.fixture
    def cpe_file(self, tmp_path):
        path = tmp_path / "cpe.sp"
        path.write_text(CPE_NETLIST)
        return path

    def test_march_reports_compression(self, cpe_file, capsys):
        code = run(
            [str(cpe_file), "--t-end", "4.0", "--steps", "600",
             "--windows", "20", "--memory", "soe", "--points", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "compressed memory:" in out
        assert "exponential modes" in out and "certified bound" in out

    def test_soe_matches_exact_march(self, cpe_file, tmp_path, capsys):
        csv_exact = tmp_path / "exact.csv"
        csv_soe = tmp_path / "soe.csv"
        base = ["--t-end", "4.0", "--steps", "600", "--windows", "20"]
        run([str(cpe_file), *base, "--csv", str(csv_exact)])
        run([str(cpe_file), *base, "--memory", "soe", "--csv", str(csv_soe)])
        exact = np.loadtxt(csv_exact, delimiter=",", skiprows=1)
        soe = np.loadtxt(csv_soe, delimiter=",", skiprows=1)
        scale = np.max(np.abs(exact[:, 1]))
        assert np.max(np.abs(soe[:, 1] - exact[:, 1])) / scale < 1e-8

    def test_memory_rtol_implies_soe(self, cpe_file, capsys):
        argv = [str(cpe_file), "--t-end", "4.0", "--steps", "600",
                "--windows", "20", "--memory-rtol", "1e-6", "--points", "4"]
        options = _deck_options(
            build_parser().parse_args(argv), Netlist.from_spice_file(cpe_file)
        )
        assert options.memory == SoePlan(rtol=1e-6)
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert "rtol 1e-06" in out

    def test_deck_memory_card_drives_cli(self, tmp_path, capsys):
        path = tmp_path / "cpe_soe.sp"
        path.write_text(
            CPE_NETLIST
            + ".tran 1e-2 4.0\n.options windows=20 memory=soe\n"
        )
        code = run([str(path), "--points", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "compressed memory:" in out

    def test_cli_exact_overrides_deck_card(self, tmp_path, capsys):
        path = tmp_path / "cpe_soe.sp"
        path.write_text(
            CPE_NETLIST
            + ".tran 1e-2 4.0\n"
            + ".options windows=20 memory=soe memory_rtol=1e-9\n"
        )
        code = run([str(path), "--memory", "exact", "--points", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "compressed memory:" not in out

    def test_memory_rejected_for_foreign_method(self, tmp_path, capsys):
        path = tmp_path / "cpe_fft.sp"
        path.write_text(CPE_NETLIST + ".tran 1e-2 1.0\n.options method=fft\n")
        code = run([str(path), "--memory", "soe"])
        assert code == 1
        assert "no fractional memory tail" in capsys.readouterr().err

    def test_gl_method_supports_memory(self, tmp_path, capsys):
        path = tmp_path / "cpe_gl.sp"
        path.write_text(
            CPE_NETLIST
            + ".tran 2e-3 2.0\n.options method=grunwald-letnikov\n"
        )
        code = run([str(path), "--memory", "soe", "--points", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "compressed memory:" in out


class TestCliBasis:
    @pytest.mark.parametrize("name", ["legendre", "chebyshev"])
    def test_spectral_round_trip(self, rc_file, capsys, name):
        """`--basis legendre` with m=24 matches the 1 V final value."""
        code = run(
            [
                str(rc_file),
                "--t-end",
                "20e-3",
                "--steps",
                "24",
                "--basis",
                name,
                "--points",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert name.capitalize() in out  # basis reported in the summary
        last_value = float(out.strip().splitlines()[-1].split("|")[-1])
        assert last_value == pytest.approx(1.0, rel=1e-3)

    def test_spectral_csv(self, rc_file, tmp_path, capsys):
        csv_path = tmp_path / "spec.csv"
        code = run(
            [
                str(rc_file),
                "--t-end",
                "5e-3",
                "--steps",
                "16",
                "--basis",
                "chebyshev",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,n1"
        assert len(lines) > 2

    def test_basis_with_sweep(self, rc_file, capsys):
        code = run(
            [
                str(rc_file),
                "--t-end",
                "20e-3",
                "--steps",
                "24",
                "--basis",
                "legendre",
                "--sweep",
                "1.0",
                "2.0",
                "--points",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Legendre basis" in out
        row = out.strip().splitlines()[-1].split("|")
        assert float(row[2]) == pytest.approx(2.0 * float(row[1]), rel=1e-6)

    def test_basis_with_windows(self, rc_file, capsys):
        code = run(
            [
                str(rc_file),
                "--t-end",
                "20e-3",
                "--steps",
                "48",
                "--windows",
                "4",
                "--basis",
                "chebyshev",
                "--points",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 windows" in out
        last_value = float(out.strip().splitlines()[-1].split("|")[-1])
        assert last_value == pytest.approx(1.0, rel=1e-3)

    def test_typo_lists_valid_names(self, rc_file, capsys):
        code = run([str(rc_file), "--t-end", "1e-3", "--basis", "chebishev"])
        err = capsys.readouterr().err
        assert code == 1
        assert "did you mean 'chebyshev'" in err
        for name in ("block-pulse", "legendre", "walsh", "haar"):
            assert name in err

    def test_walsh_matches_block_pulse(self, rc_file, capsys):
        run(
            [str(rc_file), "--t-end", "20e-3", "--steps", "256", "--points", "4"]
        )
        base = capsys.readouterr().out.strip().splitlines()[-1]
        run(
            [
                str(rc_file),
                "--t-end",
                "20e-3",
                "--steps",
                "256",
                "--basis",
                "walsh",
                "--points",
                "4",
            ]
        )
        walsh = capsys.readouterr().out.strip().splitlines()[-1]
        base_v = float(base.split("|")[-1])
        walsh_v = float(walsh.split("|")[-1])
        assert walsh_v == pytest.approx(base_v, rel=1e-9)

    def test_laguerre_excluded_with_clear_error(self, rc_file, capsys):
        code = run([str(rc_file), "--t-end", "1e-3", "--basis", "laguerre"])
        err = capsys.readouterr().err
        assert code == 1
        assert "LaguerreBasis" in err and "library API" in err


CIR_DECK = """
* rc lowpass with analysis cards
V1 in 0 DC 0 AC 1 SIN(0 1 100)
R1 in out 1kOhm
C1 out 0 1uF ; tau = 1 ms
.tran 100u 10m
.ac dec 5 10 10k
.end
"""


@pytest.fixture
def cir_file(tmp_path):
    path = tmp_path / "rc.cir"
    path.write_text(CIR_DECK)
    return path


class TestCliNetlistMode:
    """`python -m repro --netlist deck.cir`: cards drive the analysis."""

    def test_netlist_flag_no_t_end_needed(self, cir_file, capsys):
        code = run(["--netlist", str(cir_file), "--points", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "simulated [0, 0.01) s with m=100" in out
        assert "AC sweep" in out and "|v(out)| [dB]" in out

    def test_unsupported_card_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cir"
        path.write_text(RC_NETLIST + "Z1\n")
        for args in (["--netlist", str(path), "--lint"], [str(path)]):
            assert run(args) == 1
            assert "error: unsupported card 'Z1'" in capsys.readouterr().err

    def test_overflowing_value_is_a_parse_error(self, tmp_path, capsys):
        # an overflow is a parse error, not an inf value that surfaces
        # as a singular pencil
        path = tmp_path / "huge.cir"
        path.write_text("I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1e400\n.tran 1u 1m\n")
        assert run([str(path)]) == 1
        assert "error: cannot parse numeric value '1e400'" in capsys.readouterr().err

    def test_flag_and_positional_conflict(self, cir_file, capsys):
        code = run(["--netlist", str(cir_file), str(cir_file)])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_no_netlist_at_all(self, capsys):
        code = run(["--t-end", "1.0"])
        assert code == 2
        assert "required" in capsys.readouterr().err

    def test_no_horizon_without_cards(self, rc_file, capsys):
        # classic deck (no .tran/.ac) still requires --t-end
        code = run([str(rc_file)])
        assert code == 1
        assert "--t-end" in capsys.readouterr().err

    def test_cli_flags_override_cards(self, cir_file, capsys):
        code = run(["--netlist", str(cir_file), "--t-end", "5e-3",
                    "--steps", "50", "--points", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "simulated [0, 0.005) s with m=50" in out

    def test_tran_bit_identical_to_programmatic(self, cir_file, tmp_path, capsys):
        """Acceptance: the CLI transient equals the programmatic session."""
        import numpy as np

        from repro import Simulator
        from repro.circuits import Netlist, SpiceSin, assemble_mna

        csv_path = tmp_path / "deck.csv"
        code = run(["--netlist", str(cir_file), "--csv", str(csv_path)])
        assert code == 0
        rows = np.array([
            [float(cell) for cell in line.split(",")]
            for line in csv_path.read_text().splitlines()[1:]
        ])

        nl = Netlist("twin")
        nl.add_voltage_source("V1", "in", "0", SpiceSin(0.0, 1.0, 100.0))
        nl.add_resistor("R1", "in", "out", 1e3)
        nl.add_capacitor("C1", "out", "0", 1e-6)
        system = assemble_mna(nl, outputs=["in", "out"])
        reference = Simulator(system, (10e-3, 100)).run(nl.input_function())
        t_all = reference.sample_times()
        v_all = reference.outputs(t_all)
        np.testing.assert_array_equal(rows[:, 0], t_all)
        np.testing.assert_array_equal(rows[:, 1:].T, v_all)

    def test_ac_csv(self, cir_file, tmp_path, capsys):
        ac_path = tmp_path / "sweep.csv"
        code = run(["--netlist", str(cir_file), "--ac-csv", str(ac_path),
                    "--points", "2"])
        assert code == 0
        lines = ac_path.read_text().splitlines()
        assert lines[0] == "f,mag_db(in),mag_db(out),phase_deg(in),phase_deg(out)"
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == pytest.approx(10.0)
        assert first[2] == pytest.approx(-0.0171, abs=1e-3)

    def test_ac_only_deck(self, tmp_path, capsys):
        path = tmp_path / "ac_only.cir"
        path.write_text("I1 0 a AC 1\nR1 a 0 1k\nC1 a 0 1u\n.ac dec 2 10 1k\n")
        code = run(["--netlist", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "AC sweep" in out and "simulated" not in out

    def test_ac_only_deck_rejects_transient_flags(self, tmp_path, capsys):
        """Transient-only flags must not be silently dropped."""
        path = tmp_path / "ac_only.cir"
        path.write_text("I1 0 a AC 1\nR1 a 0 1k\nC1 a 0 1u\n.ac dec 2 10 1k\n")
        for flags in (["--sweep", "1.0", "2.0"], ["--windows", "4"],
                      ["--csv", str(tmp_path / "w.csv")]):
            code = run(["--netlist", str(path)] + flags)
            err = capsys.readouterr().err
            assert code == 1, flags
            assert "no .tran card" in err, flags

    def test_ac_only_deck_allows_windows_card(self, tmp_path, capsys):
        """.options windows= on an AC-only deck is dormant, not an error."""
        path = tmp_path / "ac_only.cir"
        path.write_text(
            "I1 0 a AC 1\nR1 a 0 1k\nC1 a 0 1u\n.ac dec 2 10 1k\n"
            ".options windows=4\n"
        )
        code = run(["--netlist", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "AC sweep" in out

    def test_ac_csv_without_ac_card_rejected(self, rc_file, tmp_path, capsys):
        code = run([str(rc_file), "--t-end", "1e-3",
                    "--ac-csv", str(tmp_path / "bode.csv")])
        assert code == 1
        assert ".ac card" in capsys.readouterr().err

    def test_options_windows_card_marches(self, tmp_path, capsys):
        """A windows card marches on the default route, as
        simulate_netlist does (it once took method=opm-windowed)."""
        path = tmp_path / "win.cir"
        path.write_text(
            "I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n.tran 100u 20m\n"
            ".options windows=2\n"
        )
        code = run(["--netlist", str(path), "--points", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "marched" in out and "2 windows" in out

    def test_options_card_defaults(self, tmp_path, capsys):
        path = tmp_path / "opt.cir"
        path.write_text(
            "I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n.tran 100u 10m\n"
            ".options basis=chebyshev m=24\n"
        )
        code = run(["--netlist", str(path), "--points", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "m=24" in out and "Chebyshev" in out

    def test_options_windows_marches(self, tmp_path, capsys):
        path = tmp_path / "win.cir"
        path.write_text(
            "I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n.tran 100u 20m\n"
            ".options windows=4\n"
        )
        code = run(["--netlist", str(path), "--points", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "marched" in out and "4 windows" in out

    def test_options_method_baseline(self, tmp_path, capsys):
        path = tmp_path / "meth.cir"
        path.write_text(
            "I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n.tran 100u 20m\n"
            ".options method=trapezoidal\n"
        )
        code = run(["--netlist", str(path), "--points", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "method trapezoidal" in out
        last_value = float(out.strip().splitlines()[-1].split("|")[-1])
        assert last_value == pytest.approx(1.0, rel=1e-2)

    def test_options_method_conflicts_with_windows(self, tmp_path, capsys):
        """A baseline method + windowing must error, not silently pick one."""
        path = tmp_path / "conflict.cir"
        path.write_text(
            "I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n.tran 100u 20m\n"
            ".options method=trapezoidal windows=4\n"
        )
        code = run(["--netlist", str(path)])
        assert code == 1
        assert "plain transient" in capsys.readouterr().err

    def test_options_backend_honoured(self, tmp_path, capsys):
        path = tmp_path / "backend.cir"
        path.write_text(
            "I1 0 a 1m\nR1 a 0 1k\nC1 a 0 1u\n.tran 100u 10m\n"
            ".options backend=sparse\n"
        )
        code = run(["--netlist", str(path), "--sweep", "1.0", "2.0",
                    "--points", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sparse backend" in out

    def test_options_bad_method(self, tmp_path, capsys):
        path = tmp_path / "bad.cir"
        path.write_text("I1 0 a 1m\nR1 a 0 1k\n.tran 1u 10u\n.options method=rk9\n")
        code = run(["--netlist", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown method 'rk9'" in err
        assert "'oustaloup'" in err  # every registered method is listed

    def test_ic_card_honoured(self, tmp_path, capsys):
        path = tmp_path / "ic.cir"
        path.write_text(
            "I1 0 a 0\nR1 a 0 1k\nC1 a 0 1u\n.tran 10u 1m\n.ic v(a)=1\n"
        )
        code = run(["--netlist", str(path), "--points", "4"])
        out = capsys.readouterr().out
        assert code == 0
        first_value = float(
            [line for line in out.splitlines() if line.startswith("0.0")][0]
            .split("|")[-1]
        )
        assert first_value == pytest.approx(np.exp(-0.25), rel=5e-2)

    def test_sweep_flag_with_deck_cards(self, cir_file, capsys):
        code = run(["--netlist", str(cir_file), "--sweep", "1.0", "2.0",
                    "--points", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "swept 2 scaled inputs" in out

    def test_example_decks_run(self, capsys):
        """Every shipped golden deck runs end to end through the CLI."""
        from pathlib import Path

        examples = Path(__file__).resolve().parents[2] / "examples"
        for deck in sorted(examples.glob("*.cir")):
            code = run(["--netlist", str(deck), "--points", "3"])
            out = capsys.readouterr().out
            assert code == 0, deck.name
            assert "simulated" in out or "marched" in out, deck.name


ENSEMBLE_SPEC = (
    '{"mode": "monte-carlo", "n": 5, "seed": 7,'
    ' "params": {"R1": 0.2, "C1": 0.1}}'
)


class TestEnsembleCli:
    """The --ensemble / --jobs / --parallel ensemble front door."""

    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(ENSEMBLE_SPEC)
        return path

    def test_ensemble_run(self, rc_file, spec_file, capsys):
        code = run(
            [str(rc_file), "--t-end", "5e-3", "--steps", "60",
             "--ensemble", str(spec_file), "--jobs", "2",
             "--parallel", "serial"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "solved 5-member ensemble (monte-carlo)" in out
        assert "5 pencil group(s)" in out
        assert "2 serial worker(s)" in out
        assert out.count("R1=") == 5  # one table row per member

    def test_ensemble_csv(self, rc_file, spec_file, tmp_path, capsys):
        csv_path = tmp_path / "ens.csv"
        code = run(
            [str(rc_file), "--t-end", "5e-3", "--steps", "40",
             "--ensemble", str(spec_file), "--parallel", "serial",
             "--csv", str(csv_path)]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 41  # header + one row per block pulse
        assert lines[0].count("n1@R1=") == 5

    def test_ensemble_deterministic_across_backends(
        self, rc_file, spec_file, capsys
    ):
        argv = [str(rc_file), "--t-end", "5e-3", "--steps", "40",
                "--ensemble", str(spec_file)]
        assert run(argv + ["--parallel", "serial"]) == 0
        serial_out = capsys.readouterr().out
        assert run(argv + ["--parallel", "process", "--jobs", "2"]) == 0
        process_out = capsys.readouterr().out
        # identical member tables (seeded draws + bit-identical solves)
        table = lambda text: [
            line for line in text.splitlines() if line.startswith("R1=")
        ]
        assert table(serial_out) == table(process_out)

    def test_ensemble_conflicts(self, rc_file, spec_file, capsys):
        code = run(
            [str(rc_file), "--t-end", "1e-3", "--ensemble", str(spec_file),
             "--sweep", "1.0", "2.0"]
        )
        assert code == 1
        assert "--ensemble cannot be combined" in capsys.readouterr().err

    def test_jobs_requires_ensemble_or_sweep(self, rc_file, capsys):
        code = run([str(rc_file), "--t-end", "1e-3", "--jobs", "4"])
        assert code == 1
        assert "--jobs shards" in capsys.readouterr().err

    def test_bad_spec_reports_error(self, rc_file, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"params": {"R99": 0.2}, "mode": "monte-carlo", "n": 2}')
        code = run([str(rc_file), "--t-end", "1e-3",
                    "--ensemble", str(path), "--parallel", "serial"])
        assert code == 1
        assert "unknown element" in capsys.readouterr().err

    def test_mistyped_spec_seed_is_a_clean_error(self, rc_file, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"mode": "monte-carlo", "n": 3, "seed": 1.5, '
                        '"params": {"R1": 0.1}}')
        code = run([str(rc_file), "--t-end", "5e-3", "--steps", "40",
                    "--ensemble", str(spec), "--parallel", "serial"])
        assert code == 1
        err = capsys.readouterr().err
        assert "'seed' must be a non-negative integer or null" in err
        assert "Traceback" not in err

    def test_sweep_jobs_rejected(self, rc_file, capsys):
        code = run(
            [str(rc_file), "--t-end", "20e-3", "--steps", "64", "--points", "3",
             "--sweep", "0.5", "1", "2", "--jobs", "2"]
        )
        assert code != 0
        assert "--jobs shards --ensemble members" in capsys.readouterr().err


class TestServiceCli:
    """Error paths of the serve/client subcommand front door."""

    def test_client_unreachable_service_reports_error(self, capsys):
        # nothing listens on the discard port; the client must say so
        code = run(["client", "--port", "9", "--ping"])
        assert code == 1
        assert "cannot reach the service" in capsys.readouterr().err

    def test_client_broken_stdout_pipe_exits_quietly(self, monkeypatch, capsys):
        """EPIPE on stdout (output piped into ``head``) is not a service
        failure: conventional SIGPIPE status, no misleading message."""
        import repro.__main__ as cli

        def raise_epipe(rest):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "_run_client", raise_epipe)
        assert run(["client", "--ping"]) == 141
        assert "cannot reach" not in capsys.readouterr().err
