"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError` raised by numpy.

The hierarchy mirrors the package layout:

* :class:`BasisError` -- invalid basis construction or projection
  (``repro.basis``).
* :class:`OperationalMatrixError` -- invalid operational-matrix requests
  (``repro.opmat``), e.g. a non-positive fractional order.
* :class:`ModelError` -- ill-formed system models (``repro.core.lti``,
  ``repro.circuits``), e.g. dimension mismatches or a singular pencil.
* :class:`SolverError` -- runtime failures inside a solver
  (``repro.core``/``repro.baselines``), e.g. a singular shifted matrix
  or an adaptive-step controller that cannot meet its tolerance.
* :class:`SingularPencilError` -- the MNA pencil ``sigma E - A`` is
  singular (``repro.engine.backends``), typically a structural circuit
  defect the graph lint can name (floating node, no ground reference).
* :class:`NetlistError` -- malformed circuit descriptions
  (``repro.circuits.netlist``).
* :class:`OptionError` -- a solve setting no front door can honour
  (``repro.core.dispatch.ROUTES``).
* :class:`EnsembleError` -- invalid ensemble specifications or failed
  ensemble members (``repro.engine.executor``).
* :class:`ServiceError` -- malformed simulation-service requests or
  daemon failures (``repro.engine.service``).
* :class:`MemoryCompressionError` -- a sum-of-exponentials memory fit
  missed its certified tolerance and the plan forbids falling back to
  exact memory (``repro.fractional.soe``).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "BasisError",
    "OperationalMatrixError",
    "ModelError",
    "SolverError",
    "SingularPencilError",
    "NetlistError",
    "OptionError",
    "ConvergenceError",
    "EnsembleError",
    "ServiceError",
    "MemoryCompressionError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class BasisError(ReproError):
    """Raised for invalid basis-set construction or use.

    Examples: a non-positive number of terms, a Walsh/Haar basis whose
    size is not a power of two, or projecting onto a mismatched grid.
    """


class OperationalMatrixError(ReproError):
    """Raised when an operational matrix cannot be constructed.

    Examples: fractional order ``alpha <= 0`` where a strictly positive
    order is required, or an adaptive grid with repeated steps passed to
    the eigendecomposition-based fractional power.
    """


class ModelError(ReproError):
    """Raised for structurally invalid system models.

    Examples: ``E``/``A`` shape mismatch, a non-square descriptor pair,
    input matrix with the wrong number of rows, or a high-order model
    whose coefficient list is empty.
    """


class SolverError(ReproError):
    """Raised when a simulation algorithm fails at run time.

    Examples: the shifted pencil ``d_jj E - A`` is singular, the FFT
    baseline is given a DC-singular model, or a baseline scheme receives
    an unsupported step specification.
    """


class SingularPencilError(SolverError):
    """Raised when a shifted MNA pencil ``sigma E - A`` cannot be factorised.

    A singular pencil is almost always a *structural* circuit defect --
    a floating node, a component with no conductive path to ground, or
    a deck with no ground reference at all -- rather than a numerical
    accident.  The message therefore points at the circuit-graph lint
    (:meth:`repro.circuits.graph.CircuitGraph.lint`, or the CLI's
    ``--lint`` flag), which names the offending nodes and elements
    instead of reporting a bare linear-algebra failure.
    """


class ConvergenceError(SolverError):
    """Raised when an iterative procedure fails to reach its tolerance.

    Used by the adaptive-step controller when the step size underflows
    ``min_step`` and by the Mittag-Leffler evaluator when neither the
    series nor the asymptotic regime applies at the requested precision.
    """


class NetlistError(ReproError):
    """Raised for malformed netlists.

    Examples: two-terminal element with both terminals on the same node,
    a non-positive element value, an unknown node name referenced by an
    element, or a card with the wrong number of fields.
    """


class OptionError(NetlistError, SolverError):
    """Raised for a solve setting no door can honour: a bad value, an
    unknown method, or a setting or feature the method's
    :data:`~repro.core.dispatch.ROUTES` row does not take.  Every door
    gives the same message (the daemon as a :class:`ServiceError`).
    """


class EnsembleError(ReproError):
    """Raised for invalid ensemble specifications or failed members.

    When raised by a :class:`~repro.engine.executor.ParallelExecutor`
    run, :attr:`member_indices` lists the failing ensemble members (and
    :attr:`member_index` the first of them) and ``__cause__`` chains the
    original worker exception.  The run raises only after every other
    member has finished.
    """

    def __init__(self, message: str, *, member_indices: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.member_indices = tuple(member_indices)

    @property
    def member_index(self) -> int | None:
        """Index of the first failing ensemble member (or ``None``)."""
        return self.member_indices[0] if self.member_indices else None


class ServiceError(ReproError):
    """Raised for malformed simulation-service requests or daemon failures.

    Examples: a request naming neither a netlist nor a system spec, an
    unknown operation, a malformed system matrix payload, or a client
    protocol violation (``repro.engine.service``).
    """


class MemoryCompressionError(SolverError):
    """Raised when a certified memory compression cannot be honoured.

    The sum-of-exponentials fitter (``repro.fractional.soe``) always
    computes an exact approximation bound after fitting; consumers fall
    back to exact memory when the bound exceeds the requested ``rtol``.
    A plan with ``fallback=False`` demands the compression instead, and
    a miss raises this error (carrying the achieved bound in the
    message) rather than silently paying the quadratic exact tail.
    """
