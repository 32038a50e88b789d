"""Shared simulation engine: backends, cached sessions, batched sweeps.

This subsystem owns the input-independent machinery every OPM solver
shares, so that repeated-solve workloads amortise it across calls:

* :mod:`~repro.engine.backends` -- the dense/sparse linear-algebra
  backend protocol, automatic selection from system sparsity, and the
  :class:`PencilBank` factorisation cache;
* :mod:`~repro.engine.reduction` -- certified model-order reduction at
  session bind: :class:`ReductionPlan` / :class:`ReducedModel`, the
  bind-time transfer-residual bound, and the per-run residual check
  behind ``Simulator(..., reduce=...)``;
* :mod:`~repro.engine.kernels` -- the triangular column-sweep kernels,
  all accepting batched (multi-RHS) right-hand sides;
* :mod:`~repro.engine.assembly` -- operational-operator construction
  with a process-wide coefficient memo;
* :mod:`~repro.engine.inputs` -- input-dialect normalisation and basis
  projection;
* :mod:`~repro.engine.bundle` -- the :class:`OperatorBundle` layer that
  makes every session basis-generic: family registry
  (:func:`basis_names` / :func:`resolve_basis`), cached operational
  matrices, and the hybrid-marching history operators;
* :mod:`~repro.engine.session` -- the :class:`Simulator` session object
  (bind system + grid once, ``run`` / ``sweep`` / ``march`` many
  times; a sweep returns a :class:`~repro.core.result.BatchResult`);
* :mod:`~repro.engine.marching` -- windowed time-marching over long
  horizons with state carry-over, fractional memory transfer, and
  mid-run :class:`Event` handling (input swaps, load steps, pencil
  re-stamps);
* :mod:`~repro.engine.executor` -- the parallel ensemble executor:
  :class:`Ensemble` specs (cartesian / seeded Monte-Carlo netlist
  variations), the :class:`ParallelExecutor` process/serial
  sharding engine with fingerprint grouping, coefficients returned
  through shared memory, gathering members into a
  :class:`~repro.core.result.BatchResult`;
* :mod:`~repro.engine.netlist_session` -- the SPICE front door:
  netlist-native sessions (:meth:`Simulator.from_netlist`), ``.ac``
  sweeps, and the :func:`simulate_netlist` one-call driver executing a
  deck's analysis cards (loaded lazily: it sits above
  :mod:`repro.circuits`, which itself uses the engine backends).

The classic one-shot entry points in :mod:`repro.core` are thin
wrappers over this engine.
"""

from .._lazy import attach

#: Public names and the module defining each, imported on first access
#: (see :mod:`repro._lazy`): batch workloads never load the service's
#: asyncio machinery, and one-shot solves never load the executor.
_EXPORTS = {
    "Simulator": ".session",
    "Event": ".marching",
    "Ensemble": ".executor",
    "EnsembleMember": ".executor",
    "ParallelExecutor": ".executor",
    "EXECUTOR_BACKENDS": ".executor",
    "OperatorBundle": ".bundle",
    "BASIS_FAMILIES": ".bundle",
    "basis_names": ".bundle",
    "resolve_basis": ".bundle",
    "DenseBackend": ".backends",
    "SparseBackend": ".backends",
    "PencilBank": ".backends",
    "select_backend": ".backends",
    "matrix_density": ".backends",
    "pencil_fingerprint": ".backends",
    "ReductionPlan": ".reduction",
    "ReducedModel": ".reduction",
    "OffsetDescriptorSystem": ".reduction",
    "AUTO_MIN_STATES": ".reduction",
    "MOR_RESIDUAL_MARGIN": ".reduction",
    "clear_model_cache": ".reduction",
    "project_input": ".inputs",
    "normalise_input_callable": ".inputs",
    "scaled_input": ".inputs",
    "resolve_grid": ".session",
    "simulate_netlist": ".netlist_session",
    "from_netlist": ".netlist_session",
    "ac_scan": ".netlist_session",
    "build_system": ".netlist_session",
    "AcScan": ".netlist_session",
    "NetlistRun": ".netlist_session",
    "SimulationService": ".service",
    "ServiceClient": ".service",
    "serve": ".service",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = attach(__name__, _EXPORTS)
