"""Basis-choice ablation (paper section I discussion).

The paper argues OPM "can readily switch to using other basis
functions, each having its own merits".  This benchmark solves one RC
interconnect problem with every basis family and reports cost and
accuracy against the analytic solution:

* block pulse -- the paper's default, triangular fast path;
* Walsh / Haar -- exact transforms of the block-pulse solution
  (identical accuracy, extra transform cost, coefficient spectra with
  different truncation behaviour);
* Legendre / Chebyshev -- spectral integral-form OPM: far higher
  accuracy per degree of freedom on smooth problems at dense-solve cost.

Every row is ``simulate_opm(system, u, basis)``: one throwaway session
per call, so each timing includes the session bind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import ChebyshevBasis, HaarBasis, LegendreBasis, WalshBasis
from repro.circuits import Constant, assemble_mna, rc_ladder_netlist
from repro.core import simulate_opm

from conftest import format_ms, register_row

TABLE = "BASIS ABLATION (RC ladder step response)"
COLUMNS = ["Basis", "Terms", "CPU time", "Max error vs analytic"]

T_END = 0.05
M_PIECEWISE = 256
M_SPECTRAL = 24


@pytest.fixture(scope="module")
def problem():
    nl = rc_ladder_netlist(6, r=1.0, c=1e-3, drive_waveform=Constant(1.0))
    system = assemble_mna(nl, outputs=["v6"])
    u = nl.input_function()
    # converged reference from a very fine OPM run
    ref = simulate_opm(system, u, (T_END, 8192))
    t = np.linspace(0.05 * T_END, 0.95 * T_END, 33)
    return {"system": system, "u": u, "t": t, "y_ref": ref.outputs_smooth(t)[0]}


def _error(result, problem) -> float:
    sampler = getattr(result, "outputs_smooth", result.outputs)
    return float(np.max(np.abs(sampler(problem["t"])[0] - problem["y_ref"])))


def test_block_pulse_row(benchmark, problem):
    def run():
        return simulate_opm(problem["system"], problem["u"], (T_END, M_PIECEWISE))

    result = benchmark(run)
    register_row(
        TABLE,
        COLUMNS,
        [
            "Block pulse",
            M_PIECEWISE,
            format_ms(benchmark.stats.stats.mean),
            f"{_error(result, problem):.2e}",
        ],
    )


@pytest.mark.parametrize("family", ["walsh", "haar"])
def test_transformed_rows(benchmark, problem, family):
    basis = (
        WalshBasis(T_END, M_PIECEWISE)
        if family == "walsh"
        else HaarBasis(T_END, M_PIECEWISE)
    )

    def run():
        return simulate_opm(problem["system"], problem["u"], basis)

    result = benchmark(run)
    err = float(
        np.max(np.abs(result.outputs(problem["t"])[0] - problem["y_ref"]))
    )
    register_row(
        TABLE,
        COLUMNS,
        [
            basis.name,
            M_PIECEWISE,
            format_ms(benchmark.stats.stats.mean),
            f"{err:.2e}",
        ],
    )


@pytest.mark.parametrize("family", ["legendre", "chebyshev"])
def test_spectral_rows(benchmark, problem, family):
    basis = (
        LegendreBasis(T_END, M_SPECTRAL)
        if family == "legendre"
        else ChebyshevBasis(T_END, M_SPECTRAL)
    )

    def run():
        return simulate_opm(problem["system"], problem["u"], basis)

    result = benchmark(run)
    err = float(np.max(np.abs(result.outputs(problem["t"])[0] - problem["y_ref"])))
    register_row(
        TABLE,
        COLUMNS,
        [
            basis.name,
            M_SPECTRAL,
            format_ms(benchmark.stats.stats.mean),
            f"{err:.2e}",
        ],
    )
    # spectral accuracy per dof: 24 terms beat 256 block pulses (the
    # measured floor is the fine-OPM reference itself, ~1e-5)
    assert err < 5e-5
