"""repro -- operational-matrix (OPM) circuit simulation.

A complete reproduction of *"An Operational Matrix-Based Algorithm for
Simulating Linear and Fractional Differential Circuits"* (Wang, Liu,
Pang, Wong -- DATE 2012): the OPM time-domain simulation algorithm for
ODE / DAE / high-order / fractional circuit models, the operational
matrices it is built from, the classical baselines it is evaluated
against, and the circuit substrate (netlists, MNA/NA assembly,
power-grid and fractional-line generators) its experiments run on.

Quick start::

    import numpy as np
    from repro import DescriptorSystem, simulate_opm

    system = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])   # x' = -x + u
    result = simulate_opm(system, 1.0, (5.0, 500))           # step input
    t = result.grid.midpoints
    x = result.states(t)[0]                                  # -> 1 - e^{-t}

Package map (see DESIGN.md for the full inventory):

============ ==========================================================
subpackage   contents
============ ==========================================================
``opmat``    integral/differential/fractional operational matrices
``basis``    block-pulse, Walsh, Haar, Legendre, Chebyshev, Laguerre
``core``     system models, OPM solvers, result containers
``engine``   cached Simulator sessions, dense/sparse backends, sweeps
``fractional`` Mittag-Leffler, Grünwald-Letnikov, analytic solutions
``baselines`` backward Euler / trapezoidal / Gear, FFT method, expm
``circuits`` netlists, MNA/NA assembly, power grid, transmission line
``analysis`` eq. (30) error metric, convergence/complexity fitting
``io``       table/CSV reporting
============ ==========================================================
"""

from ._lazy import attach

__version__ = "1.0.0"

#: Public names and the subpackage owning each, imported on first access
#: (see :mod:`repro._lazy`): ``import repro`` itself loads no solver.
#: The owner's own table names the defining module.
_EXPORTS = {
    # grids and bases
    "TimeGrid": ".basis",
    "BasisSet": ".basis",
    "BlockPulseBasis": ".basis",
    "WalshBasis": ".basis",
    "HaarBasis": ".basis",
    "LegendreBasis": ".basis",
    "ChebyshevBasis": ".basis",
    "LaguerreBasis": ".basis",
    # system models
    "DescriptorSystem": ".core",
    "FractionalDescriptorSystem": ".core",
    "MultiTermSystem": ".core",
    "SecondOrderSystem": ".core",
    # engine sessions
    "Simulator": ".engine",
    "Event": ".engine",
    "MarchingResult": ".core",
    "Ensemble": ".engine",
    "EnsembleMember": ".engine",
    "ParallelExecutor": ".engine",
    # solvers
    "simulate": ".core",
    "SIMULATION_METHODS": ".core",
    "simulate_opm": ".core",
    "simulate_opm_adaptive": ".core",
    "simulate_opm_integral": ".core",
    "simulate_opm_kron": ".core",
    "simulate_opm_transformed": ".core",
    "simulate_multiterm": ".core",
    "equidistributed_steps": ".core",
    "krylov_reduce": ".core",
    # results
    "SimulationResult": ".core",
    "BatchResult": ".core",
    "SampledResult": ".core",
    # baselines
    "simulate_transient": ".baselines",
    "simulate_fft": ".baselines",
    "simulate_expm": ".baselines",
    "simulate_grunwald_letnikov": ".fractional",
    # fractional references
    "mittag_leffler": ".fractional",
    "fde_relaxation": ".fractional",
    "fde_step_response": ".fractional",
    "fde_impulse_response": ".fractional",
    # errors
    "ReproError": ".errors",
    "BasisError": ".errors",
    "OperationalMatrixError": ".errors",
    "ModelError": ".errors",
    "SolverError": ".errors",
    "SingularPencilError": ".errors",
    "ConvergenceError": ".errors",
    "NetlistError": ".errors",
    "OptionError": ".errors",
    "EnsembleError": ".errors",
    "MemoryCompressionError": ".errors",
    "ServiceError": ".errors",
    # netlist front end
    "Netlist": ".circuits",
    "simulate_netlist": ".engine",
    "NetlistRun": ".engine",
    "AcScan": ".engine",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = attach(__name__, _EXPORTS)
