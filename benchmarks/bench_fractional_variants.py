"""Ablation of fractional-solver constructions (DESIGN.md section 4).

Same scalar half-order FDE ``d^{1/2}x = -x + 1`` (analytic solution via
Mittag-Leffler) solved four ways at equal resolution:

* OPM differential form -- the paper's ``D^alpha`` Tustin power series;
* OPM integral form, Tustin construction -- exact inverse of the above;
* OPM integral form, Riemann-Liouville construction -- the classical
  block-pulse operational matrix (paper refs [2], [4]);

(the two integral-form rows plug their block-pulse integration matrix
into a session as a :class:`~repro.fractional.FractionalMethod`);
* Grünwald-Letnikov stepping -- the classical time-domain scheme.

Reports runtime and exact error for each, quantifying the paper's
design choice of the Tustin-power construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import BlockPulseBasis, TimeGrid
from repro.core import FractionalDescriptorSystem, Simulator, simulate_opm
from repro.fractional import FractionalMethod, fde_step_response, simulate_grunwald_letnikov

from conftest import format_ms, register_row

TABLE = "FRACTIONAL VARIANTS (scalar FDE, exact reference)"
COLUMNS = ["Construction", "m", "CPU time", "Max error vs Mittag-Leffler"]

T_END = 2.0
M = 800


class BlockPulseIntegration(FractionalMethod):
    """The block-pulse integral form with the ``'tustin'`` or ``'rl'``
    fractional integration matrix."""

    name = "block-pulse-integral"

    def __init__(self, construction: str) -> None:
        self.construction = construction

    def params(self) -> tuple:
        return (self.construction,)

    def integration_operator(self, bundle, alpha: float) -> np.ndarray:
        self.check_bundle(bundle)
        return bundle.basis.fractional_integration_matrix(
            alpha, construction=self.construction
        )


@pytest.fixture(scope="module")
def problem():
    system = FractionalDescriptorSystem(0.5, [[1.0]], [[-1.0]], [[1.0]])
    t = np.linspace(0.1, 1.9, 37)
    return {"system": system, "t": t, "exact": fde_step_response(0.5, 1.0, t)}


def _err(values, problem) -> float:
    return float(np.max(np.abs(values - problem["exact"])))


def test_opm_differential_row(benchmark, problem):
    def run():
        return simulate_opm(problem["system"], 1.0, (T_END, M))

    result = benchmark(run)
    err = _err(result.states_smooth(problem["t"])[0], problem)
    register_row(
        TABLE,
        COLUMNS,
        ["OPM D^alpha (Tustin series)", M, format_ms(benchmark.stats.stats.mean), f"{err:.2e}"],
    )
    assert err < 1e-2


@pytest.mark.parametrize("construction", ["tustin", "rl"])
def test_opm_integral_rows(benchmark, problem, construction):
    basis = BlockPulseBasis(TimeGrid.uniform(T_END, M))

    method = BlockPulseIntegration(construction)

    def run():
        return Simulator(problem["system"], basis, method=method).run(1.0)

    result = benchmark(run)
    err = _err(result.states_smooth(problem["t"])[0], problem)
    register_row(
        TABLE,
        COLUMNS,
        [
            f"OPM integral form ({construction.upper()} matrix)",
            M,
            format_ms(benchmark.stats.stats.mean),
            f"{err:.2e}",
        ],
    )
    assert err < 1e-2


def test_grunwald_letnikov_row(benchmark, problem):
    def run():
        return simulate_grunwald_letnikov(problem["system"], 1.0, T_END, M)

    result = benchmark(run)
    err = _err(result.states(problem["t"])[0], problem)
    register_row(
        TABLE,
        COLUMNS,
        ["Grünwald-Letnikov stepping", M, format_ms(benchmark.stats.stats.mean), f"{err:.2e}"],
    )
    assert err < 1e-2
