"""The paper's primary contribution: the OPM simulation algorithm.

Public surface:

* system models -- :class:`DescriptorSystem` (eq. (9)),
  :class:`FractionalDescriptorSystem` (eq. (19)),
  :class:`MultiTermSystem` / :class:`SecondOrderSystem` (section V-B);
* the engine session -- :class:`Simulator` binds a system + grid once
  and caches the basis, fractional coefficients, backend choice, and
  pencil LU factorisations across calls; ``sim.sweep([...])`` solves
  many inputs in one batched multi-RHS column sweep, returning a
  :class:`BatchResult`;
* one-shot solvers -- :func:`simulate_opm` (sections III-IV, column
  sweep, on any basis: Walsh/Haar by the exact change of basis, the
  polynomial families in integral form), :func:`simulate_opm_adaptive`
  (section III-B, on-the-fly step control), :func:`simulate_multiterm`
  -- thin wrappers over throwaway sessions;
* :class:`SimulationResult` -- coefficient container with waveform
  sampling; :class:`BatchResult` stacks ``k`` runs (a sweep or an
  ensemble) along a leading axis and samples them in one pass.
"""

from .._lazy import attach

#: Public names and the module defining each, imported on first access
#: (see :mod:`repro._lazy`); names re-exported from :mod:`repro.engine`
#: resolve through that package's table.
_EXPORTS = {
    "DescriptorSystem": ".lti",
    "FractionalDescriptorSystem": ".lti",
    "MultiTermSystem": ".lti",
    "SecondOrderSystem": ".lti",
    "SimulationResult": ".result",
    "BatchResult": ".result",
    "MarchingResult": ".result",
    "SampledResult": ".result",
    "Simulator": "..engine",
    "Event": "..engine",
    "Ensemble": "..engine",
    "EnsembleMember": "..engine",
    "ParallelExecutor": "..engine",
    "simulate": ".dispatch",
    "SIMULATION_METHODS": ".dispatch",
    "ROUTES": ".dispatch",
    "simulate_opm": ".opm_solver",
    "simulate_opm_adaptive": ".opm_adaptive",
    "simulate_multiterm": ".highorder",
    "equidistributed_steps": ".opm_adaptive",
    "krylov_reduce": ".mor",
    "project_input": "..engine",
    "PencilBank": "..engine",
    "DenseBackend": "..engine",
    "SparseBackend": "..engine",
    "select_backend": "..engine",
    "simulate_netlist": "..engine",
    "NetlistRun": "..engine",
    "AcScan": "..engine",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = attach(__name__, _EXPORTS)
