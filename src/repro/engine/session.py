"""Cached simulation sessions (the engine's public entry point).

The paper's core cost claim is that OPM is "roughly one
transient-analysis sweep": one pencil factorisation reused by every
column.  A :class:`Simulator` session extends that reuse across *calls*
-- it binds a system + grid + basis once and caches everything that
does not depend on the input:

* the basis and its operational matrices (block pulse by default; any
  family from :mod:`repro.basis` via ``basis=`` -- see
  :mod:`repro.engine.bundle`),
* the fractional differentiation coefficients (uniform grids) or the
  full upper-triangular operator (adaptive grids), or -- for spectral
  bases and zoo methods -- the integral operator ``F`` with its real
  Schur form ``F = Q T Q^T``,
* the backend choice (dense LAPACK vs ``scipy.sparse`` SuperLU, picked
  from system sparsity by
  :func:`~repro.engine.backends.select_backend`),
* the pencil LU factorisations themselves (in a shared
  :class:`~repro.engine.backends.PencilBank`).

``sim.run(u)`` on a warm session therefore performs only the input
projection and the column sweep -- for every basis: the Schur rotation
makes the spectral integral form block triangular too.
``sim.sweep(inputs)`` goes further and solves many inputs in one
batched multi-RHS sweep -- one ``lu_solve`` per column for *all*
right-hand sides -- returning a :class:`~repro.core.result.BatchResult`.

The one-shot solvers (:func:`repro.core.simulate_opm`,
:func:`repro.core.simulate_multiterm`) are thin wrappers that build a
throwaway session; repeated-solve workloads (parameter sweeps, many
input waveforms, frequency scans) should hold on to a session instead.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Union

import numpy as np
import scipy.sparse as sp

from ..basis.base import BasisSet
from ..basis.grid import TimeGrid
from ..core.lti import DescriptorSystem, MultiTermSystem
from ..core.result import BatchResult, MarchingResult, SimulationResult
from ..errors import SolverError
from ..fractional.methods import resolve_method
from ..fractional.soe import resolve_memory
from . import assembly, kernels
from .backends import PencilBank, pencil_fingerprint, select_backend
from .bundle import OperatorBundle, resolve_basis
from .inputs import project_input
from .reduction import MOR_RESIDUAL_MARGIN, bind_reduction, equation_residual

__all__ = ["Simulator", "resolve_grid", "InputLike"]

InputLike = Union[Callable, np.ndarray, list, tuple, float, int]


def resolve_grid(grid) -> TimeGrid:
    """Accept a :class:`TimeGrid` or an ``(t_end, m)`` convenience tuple."""
    if isinstance(grid, TimeGrid):
        return grid
    if isinstance(grid, tuple) and len(grid) == 2:
        return TimeGrid.uniform(float(grid[0]), int(grid[1]))
    raise TypeError(
        "grid must be a TimeGrid or a (t_end, m) tuple, "
        f"got {type(grid).__name__}"
    )


def _resolve_session_basis(grid, basis) -> BasisSet:
    """Resolve the (grid, basis) constructor arguments to one basis.

    Accepted combinations:

    * ``grid`` a :class:`TimeGrid` / ``(t_end, m)`` tuple and ``basis``
      ``None`` or a family name -- the named family is built on the
      grid (block pulse by default);
    * ``grid`` a :class:`TimeGrid` / tuple and ``basis`` a ready
      :class:`BasisSet` -- checked for compatibility;
    * ``grid`` itself a :class:`BasisSet` (e.g. a
      ``LaguerreBasis(a, m)``, whose horizon is not a grid).

    An instance keeps its own input projection rule; named families
    project with their default (``'average'`` for block pulses).
    """
    basis_obj = None
    if isinstance(grid, BasisSet):
        if basis is not None:
            raise TypeError(
                "pass the basis either positionally (in place of the grid) "
                "or via basis=, not both"
            )
        basis_obj = grid
    elif isinstance(basis, BasisSet):
        if grid is not None:
            g = resolve_grid(grid)
            mismatch = basis.size != g.m or (
                np.isfinite(basis.t_end)
                and abs(basis.t_end - g.t_end) > 1e-9 * max(g.t_end, 1.0)
            )
            # a block-pulse basis owns its grid outright: every edge must
            # agree, not just the span (an adaptive grid argument must
            # not be silently replaced by the basis' uniform one)
            if not mismatch and hasattr(basis, "grid"):
                mismatch = basis.grid != g
            elif not mismatch and not g.is_uniform:
                raise SolverError(
                    f"the {basis.name} basis cannot honour the adaptive "
                    f"spacing of {g!r} (only its span and size are used); "
                    "pass a uniform grid or omit the grid"
                )
            if mismatch:
                raise SolverError(
                    f"basis {basis!r} does not match the grid {g!r}; "
                    "omit the grid when passing a basis instance"
                )
        basis_obj = basis
    if basis_obj is not None:
        return basis_obj
    if grid is None:
        raise TypeError("a grid (or a BasisSet instance) is required")
    return resolve_basis(basis, resolve_grid(grid))


def _offset_columns(vector, ones: np.ndarray) -> np.ndarray | None:
    """Per-column coefficients of the constant vector function ``vector``."""
    if vector is None:
        return None
    return np.outer(np.asarray(vector, dtype=float).reshape(-1), ones)


def _add_columns(X: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
    """Add constant-column coefficients to ``(n, m)`` or ``(n, m, k)``."""
    if cols is None:
        return X
    if X.ndim == 2:
        return X + cols
    return X + cols[:, :, None]


def _system_rhs(system, U: np.ndarray, offset_cols: np.ndarray | None) -> np.ndarray:
    """``R = B U`` plus the constant zero-IC shift columns (if any).

    ``U`` is ``(p, m)`` for one input or ``(k, p, m)`` batched; the
    result is ``(n, m)`` or ``(n, m, k)`` accordingly.  Shared by every
    descriptor-system plan.
    """
    B = system.B
    if U.ndim == 2:
        R = B @ U
    else:
        k, p, m = U.shape
        # one GEMM on the flattened batch ((p, k*m) columns), then
        # restore the (n, m, k) layout
        flat = B @ U.transpose(1, 2, 0).reshape(p, m * k)
        R = np.asarray(flat).reshape(-1, m, k)
    return _add_columns(R, offset_cols)


class _PencilPlan:
    """Shared state of the (fractional) descriptor-system plans: the
    pencil bank over the system's backend and the constant zero-IC
    shift columns.  Subclasses set ``method`` before binding."""

    def __init__(self, system: DescriptorSystem, bundle: OperatorBundle, backend: str):
        self.system = system
        self.bundle = bundle
        self.backend_mode = backend
        self.bank = PencilBank(self._pencil(system))
        ones = bundle.ones_coefficients()
        self._offset = system.shifted_input_offset()
        self._offset_cols = _offset_columns(self._offset, ones)
        self._x0_cols = _offset_columns(system.x0, ones)

    def _pencil(self, system: DescriptorSystem):
        return select_backend(system.E, system.A, mode=self.backend_mode)

    def restamp(self, system: DescriptorSystem) -> int:
        """Switch the bank to ``system``'s pencil (marching events)."""
        return self.bank.restamp(self._pencil(system))

    def right_hand_side(self, U: np.ndarray) -> np.ndarray:
        """``R = B U`` plus the constant zero-IC shift ``A x0`` (if any)."""
        return _system_rhs(self.system, U, self._offset_cols)

    def info(self) -> dict:
        """Solver metadata for result containers."""
        return {
            "method": self.method,
            "alpha": self.system.alpha,
            "factorisations": self.bank.factorisations,
            "backend": self.bank.backend.name,
        }


class _DescriptorPlan(_PencilPlan):
    """Input-independent solve state for (fractional) descriptor systems.

    Covers the triangular solver routes: block-pulse grids (Toeplitz on
    uniform grids, general upper-triangular on adaptive grids) and
    Laguerre functions (exact Tustin Toeplitz coefficients).
    """

    kind = "descriptor"

    def __init__(
        self,
        system: DescriptorSystem,
        bundle: OperatorBundle,
        backend: str,
    ) -> None:
        alpha = system.alpha
        grid = bundle.grid
        if grid is not None and not grid.is_uniform:
            self.coeffs = None
            self.first_order = False
            self.D = assembly.adaptive_operator(grid, alpha)
            self.method = "opm-general"
        else:
            self.coeffs = bundle.toeplitz_coefficients(alpha)
            self.D = None
            # the O(n)-per-column alternating recurrence is the
            # block-pulse first-order coefficient pattern; Laguerre
            # coefficients do not alternate
            self.first_order = alpha == 1.0 and bundle.kind == "block-pulse"
            if self.first_order:
                self.method = "opm-alternating"
            elif bundle.kind == "toeplitz":
                self.method = "opm-toeplitz[laguerre]"
            else:
                self.method = "opm-toeplitz"
        super().__init__(system, bundle, backend)

    def solve(self, R: np.ndarray) -> np.ndarray:
        """Column sweep for one (``(n, m)``) or many (``(n, m, k)``) inputs."""
        if self.D is not None:
            X = kernels.sweep_general(self.bank, R, self.D)
        else:
            X = kernels.sweep_toeplitz(
                self.bank, R, self.coeffs, alternating_tail=self.first_order
            )
        return _add_columns(X, self._x0_cols)


class _MultiTermPlan:
    """Input-independent solve state for multi-term systems."""

    kind = "multiterm"

    def __init__(
        self, system: MultiTermSystem, bundle: OperatorBundle, backend: str
    ) -> None:
        grid = bundle.grid
        if grid is None or not grid.is_uniform:
            raise SolverError(
                "multi-term OPM requires a uniform grid; convert to first order "
                "for adaptive stepping"
            )
        self.system = system
        self.bundle = bundle
        m, h = grid.m, grid.h
        self.h = h
        term_coeffs = [
            (alpha_k, matrix, assembly.toeplitz_coefficients(alpha_k, m, h))
            for alpha_k, matrix in system.terms
        ]
        # Pencil sum P = sum_k c0^{(k)} M_k, factorised once (as 1*P - 0).
        pencil = None
        for _, matrix, coeffs in term_coeffs:
            contrib = coeffs[0] * matrix
            pencil = contrib if pencil is None else pencil + contrib
        zero = (
            sp.csr_matrix(pencil.shape)
            if sp.issparse(pencil)
            else np.zeros(pencil.shape)
        )
        self.bank = PencilBank(select_backend(pencil, zero, mode=backend))
        # Integer orders 1 and 2 admit O(n)-per-column tail recurrences
        # (see kernels.sweep_multiterm); other positive orders pay the
        # O(n j) dot product.
        self.first_terms = []
        self.second_terms = []
        self.slow_terms = []
        for alpha_k, matrix, coeffs in term_coeffs:
            if alpha_k == 0.0:
                continue  # algebraic: no history tail
            if alpha_k == 1.0:
                self.first_terms.append(matrix)
            elif alpha_k == 2.0:
                self.second_terms.append(matrix)
            else:
                self.slow_terms.append((matrix, coeffs))
        self.method = "opm-multiterm"

    def right_hand_side(self, U: np.ndarray) -> np.ndarray:
        """``R = B U`` (zero initial conditions by the multi-term convention)."""
        if U.ndim == 2:
            return self.system.B @ U
        return np.einsum("np,kpm->nmk", self.system.B, U)

    def solve(self, R: np.ndarray) -> np.ndarray:
        """Multi-term column sweep for one or many inputs."""
        return kernels.sweep_multiterm(
            self.bank, R, self.first_terms, self.second_terms, self.slow_terms, self.h
        )

    def info(self) -> dict:
        """Solver metadata for result containers."""
        return {
            "method": self.method,
            "orders": [alpha_k for alpha_k, _ in self.system.terms],
            "factorisations": self.bank.factorisations,
            "backend": self.bank.backend.name,
        }


class _IntegralPlan(_PencilPlan):
    """Integral-form solve state: spectral bases and zoo methods.

    Polynomial bases have no invertible differentiation matrix, and a
    :class:`~repro.fractional.methods.FractionalMethod` supplies only
    the operator ``F`` of ``I^alpha``, so these sessions solve

    .. math::  E Z = A Z F + R F, \\qquad X = Z + x_0 \\mathbf{1}^T,

    for the zero-IC shifted state ``Z``.  The real Schur form of ``F``,
    taken once here (``O(m^3)``), makes it a block column sweep
    (:func:`~repro.engine.kernels.sweep_integral`) with one cached
    ``E - lambda A`` factorisation per real eigenvalue or conjugate
    pair; an upper-triangular ``F`` (GL, Oustaloup) sweeps as is.
    """

    def __init__(
        self,
        system: DescriptorSystem,
        bundle: OperatorBundle,
        backend: str,
        method=None,
    ) -> None:
        self.zoo_method = method
        alpha = system.alpha
        m = bundle.size
        if method is None:
            self.kind = "spectral"
            self.method = f"opm-spectral[{bundle.name}]"
            F = bundle.fractional_integration_matrix(alpha)
        else:
            self.kind = "method"
            self.method = f"{method.name}[{bundle.name}]"
            F = method.integration_operator(bundle, alpha)
        self.F = np.asarray(F, dtype=float)
        if self.F.shape != (m, m):
            raise SolverError(
                f"method {method.name!r} built a {self.F.shape} operator for "
                f"a size-{m} basis"
            )
        self._T, self._Q = kernels.schur_form(self.F)
        super().__init__(system, bundle, backend)

    def _pencil(self, system: DescriptorSystem):
        # the swapped pencil (-A, -E): its shift-t factorisation is E - t A
        return select_backend(-1.0 * system.A, -1.0 * system.E, mode=self.backend_mode)

    def integral_sweep(self, S: np.ndarray) -> np.ndarray:
        """Solve ``E Z - A Z F = S`` against the active pencil stamp."""
        return kernels.sweep_integral(self.bank, S, self._T, self._Q)

    def solve(self, R: np.ndarray) -> np.ndarray:
        """Integral-form solve for one (``(n, m)``) or many inputs."""
        S = R @ self.F if R.ndim == 2 else np.einsum("nmk,mj->njk", R, self.F)
        return _add_columns(self.integral_sweep(S), self._x0_cols)

    def info(self) -> dict:
        """Solver metadata for result containers."""
        info = super().info()
        if self.zoo_method is not None:
            info["schur"] = self._Q is not None
        return info


class Simulator:
    """Reusable simulation session: system + grid + basis bound once.

    Parameters
    ----------
    system:
        :class:`~repro.core.lti.DescriptorSystem`,
        :class:`~repro.core.lti.FractionalDescriptorSystem`, or
        :class:`~repro.core.lti.MultiTermSystem` /
        :class:`~repro.core.lti.SecondOrderSystem`.
    grid:
        :class:`~repro.basis.grid.TimeGrid`, ``(t_end, m)`` tuple, or a
        ready :class:`~repro.basis.base.BasisSet` instance (e.g. a
        ``LaguerreBasis``).  Multi-term systems require a uniform grid.
    basis:
        Basis family the session solves in: ``None`` (block pulse, the
        paper's default), a name from
        :func:`repro.engine.bundle.basis_names` (``'chebyshev'``,
        ``'legendre'``, ``'haar'``, ...), or a :class:`BasisSet`
        instance.  Walsh/Haar sessions solve in block-pulse coordinates
        through the exact change of basis; polynomial bases sweep the
        integral form in the Schur coordinates of their integration
        matrix (an ``O(m^3)`` bind, so keep ``m`` small); all families
        share the same warm-cache semantics.  The instance carries the
        input projection rule: block-pulse-backed bases project by
        cell averages (paper eq. (2)) unless built with
        ``projection='midpoint'`` (e.g. ``BlockPulseBasis(grid,
        projection='midpoint')``); spectral and Laguerre families use
        their own quadrature.  On adaptive grids the grid picks
        the fractional operator's construction (paper eq. (25)'s
        eigendecomposition for few pairwise-distinct steps, else a
        Schur matrix power; see
        :func:`repro.opmat.fractional.fractional_differentiation_matrix_adaptive`).
    backend:
        ``'auto'`` (default; sparse backend for large sparse systems,
        dense otherwise), ``'dense'``, or ``'sparse'``.
    method:
        Fractional-operator discretisation: ``None`` / ``'opm'`` (the
        paper's native operational-matrix route, default), a name from
        :func:`repro.fractional.methods.method_names` (``'gl'``,
        ``'oustaloup'``, ``'jacobi'``), or a ready
        :class:`~repro.fractional.methods.FractionalMethod` instance
        for custom parameterisations.  Zoo methods solve the same
        integral formulation through the same cached-pencil machinery
        (warm sessions, batched sweeps, the service cache); ``march``,
        ``run_ensemble``, ``reduce=`` and compressed ``memory=`` stay
        native-route features.  ``'jacobi'`` binds the Legendre basis
        by default; typos fail with a did-you-mean suggestion.
    memory:
        Cross-window fractional memory on :meth:`march`: ``'exact'``
        (default; bit-identical to the full-history tail), ``'soe'``,
        or an :class:`~repro.fractional.soe.SoePlan`.  Compressed
        memory replaces the quadratic cross-window history GEMMs by a
        certified sum-of-exponentials mode recurrence (linear-time long
        marches); the fitted bound is checked against the plan's
        ``rtol`` at march bind and an uncertified fit falls back to
        exact memory, recorded in the result's ``info['memory']``.
        ``'soe'`` certifies to ``repro.fractional.soe.DEFAULT_MEMORY_RTOL``;
        pass ``SoePlan(rtol=1e-6)`` for another tolerance.

    Examples
    --------
    Amortise one factorisation over many inputs:

    >>> import numpy as np
    >>> from repro.core import DescriptorSystem
    >>> sim = Simulator(DescriptorSystem([[1.0]], [[-1.0]], [[1.0]]), (5.0, 100))
    >>> r1 = sim.run(1.0)                       # cold: factorises
    >>> r2 = sim.run(lambda t: np.sin(t))       # warm: sweep only
    >>> sim.factorisations
    1
    >>> batch = sim.sweep([0.5, 1.0, 2.0])      # one multi-RHS sweep
    >>> len(batch), batch.coefficients.shape
    (3, (3, 1, 100))

    A spectral session needs far fewer coefficients on smooth problems:

    >>> spec = Simulator(DescriptorSystem([[1.0]], [[-1.0]], [[1.0]]),
    ...                  (5.0, 24), basis="chebyshev")
    >>> res = spec.run(1.0)
    >>> bool(abs(res.states([3.0])[0, 0] - (1 - np.exp(-3.0))) < 1e-10)
    True
    """

    def __init__(
        self,
        system,
        grid=None,
        *,
        basis=None,
        backend: str = "auto",
        method=None,
        reduce=None,
        memory="exact",
    ) -> None:
        # resolve method= first: it may bind the default basis family
        # (e.g. 'jacobi' sessions default to Legendre), and a typo must
        # fail with the did-you-mean diagnostic before anything is built
        self._method = resolve_method(method)
        if (
            self._method is not None
            and basis is None
            and not isinstance(grid, BasisSet)
        ):
            basis = self._method.default_basis
        basis_obj = _resolve_session_basis(grid, basis)
        bundle = OperatorBundle(basis_obj)
        solver = bundle.solver_bundle
        self._system = system
        self._bundle = bundle
        self._basis = basis_obj
        self._solve_basis = solver.basis
        self._transform = bundle.transform
        self._backend_mode = backend
        # validated at bind: a typo'd memory mode must fail here, not
        # deep inside the first march
        self._memory_plan = resolve_memory(memory)
        if self._method is not None:
            if reduce is not None:
                raise SolverError(
                    f"reduce= is not supported with method="
                    f"{self._method.name!r}; reduced-order plans are "
                    "certified on the native OPM route only"
                )
            if self._memory_plan is not None:
                raise SolverError(
                    "memory compression applies to native marches only; "
                    f"method={self._method.name!r} sessions use exact memory"
                )
        self._default_input: InputLike | None = None
        self._runs = 0
        # one session = one solve at a time: run/sweep/march serialise
        # here, so threads (and the serve daemon's worker pool) can
        # share a warm session without interleaving plan/bank state.
        # Reentrant because march() drives run() internally.
        self._lock = threading.RLock()

        self._reduction = None
        self._mor_info: dict = {}
        self._mor_rtol: float | None = None
        self._mor_residual_scale = 0.0
        self._full_plan = None
        self._full_offset_cols = None
        self._x0_lift_cols = None
        if reduce is not None:
            model, mor_info = bind_reduction(
                system, reduce, t_end=basis_obj.t_end, m=basis_obj.size
            )
            self._mor_info = mor_info
            if model is not None:
                self._reduction = model
                self._mor_rtol = mor_info["rtol"]
                ones = solver.ones_coefficients()
                self._full_offset_cols = _offset_columns(
                    system.shifted_input_offset(), ones
                )
                self._x0_lift_cols = _offset_columns(system.x0, ones)
        self._plan = self._make_plan(
            system if self._reduction is None else self._reduction.solve_system
        )
        if self._reduction is not None:
            self._mor_residual_scale = self._calibrate_run_residual()
            self._mor_info["residual_scale"] = self._mor_residual_scale
        # what a ParallelExecutor needs to rebuild this session in a
        # worker (projection is already baked into the basis instance);
        # reduce= stays parent-side: the executor reduces per
        # fingerprint group and ships only the small reduced pencils
        self._executor_options = {
            "solver_backend": backend,
            "reduce": reduce,
            "memory": memory,
        }

    def _make_plan(self, system):
        """Build the input-independent solve plan for ``system`` on the
        session's bundle (also used for the lazy full-model fallback of
        reduced sessions)."""
        solver = self._bundle.solver_bundle
        if isinstance(system, MultiTermSystem):
            if self._method is not None:
                raise SolverError(
                    f"method={self._method.name!r} supports (fractional) "
                    "descriptor systems only; convert multi-term models with "
                    "to_first_order() first"
                )
            if solver.kind != "block-pulse":
                raise SolverError(
                    "multi-term systems require a piecewise-constant basis "
                    "(block-pulse, walsh, haar); convert to first order with "
                    "to_first_order() to use a spectral basis"
                )
            return _MultiTermPlan(system, solver, self._backend_mode)
        if not isinstance(system, DescriptorSystem):
            raise TypeError(
                "system must be a DescriptorSystem, FractionalDescriptorSystem "
                f"or MultiTermSystem, got {type(system).__name__}"
            )
        if self._method is None and solver.kind in ("block-pulse", "toeplitz"):
            return _DescriptorPlan(system, solver, self._backend_mode)
        # spectral bases and zoo methods solve the integral form
        return _IntegralPlan(system, solver, self._backend_mode, self._method)

    @classmethod
    def from_netlist(cls, netlist, grid=None, **kwargs) -> "Simulator":
        """Session straight from a netlist / SPICE deck.

        The deck's ``.tran`` card supplies the grid, ``.options`` the
        basis/backend, ``.ic`` the initial state, and the parsed source
        waveforms are bound as the default input, so ``sim.run()``
        needs no arguments.  See
        :func:`repro.engine.netlist_session.from_netlist` for the full
        parameter list.

        Examples
        --------
        >>> sim = Simulator.from_netlist('''
        ... I1 0 n1 1m
        ... R1 n1 0 1k
        ... C1 n1 0 1u
        ... .tran 50u 5m
        ... ''')
        >>> bool(abs(sim.run().states([5e-3])[0, 0] - 1.0) < 1e-2)
        True
        """
        from .netlist_session import from_netlist

        return from_netlist(netlist, grid, **kwargs)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def system(self):
        """The bound system model."""
        return self._system

    @property
    def grid(self) -> TimeGrid | None:
        """The bound time grid (``None`` for grid-free bases)."""
        return self._bundle.grid

    @property
    def basis(self) -> BasisSet:
        """The session basis (results are expressed in it)."""
        return self._basis

    @property
    def bundle(self) -> OperatorBundle:
        """The session's cached operator bundle."""
        return self._bundle

    @property
    def backend(self) -> str:
        """Name of the selected linear-algebra backend (``'dense'``/``'sparse'``)."""
        return self._plan.bank.backend.name

    @property
    def factorisations(self) -> int:
        """Distinct pencil factorisations performed so far (cached forever)."""
        return self._plan.bank.factorisations

    @property
    def is_warm(self) -> bool:
        """True once the pencil factorisation cache is populated."""
        return self._plan.bank.is_warm

    @property
    def runs(self) -> int:
        """Number of :meth:`run` / :meth:`sweep` calls served so far."""
        return self._runs

    @property
    def bank(self) -> PencilBank:
        """The session's pencil factorisation cache."""
        return self._plan.bank

    @property
    def method(self):
        """The bound :class:`~repro.fractional.methods.FractionalMethod`
        (``None``: the native operational-matrix route)."""
        return self._method

    @property
    def memory_plan(self):
        """The bound :class:`~repro.fractional.soe.SoePlan` governing
        fractional march memory (``None``: exact memory)."""
        return self._memory_plan

    @property
    def fingerprint(self) -> tuple:
        """Content key identifying this session's solve configuration.

        Two sessions fingerprint equal exactly when they perform the
        same arithmetic: equal system content (pencil, input matrix,
        initial state, fractional order / term structure), equal basis
        (via :meth:`OperatorBundle.fingerprint
        <repro.engine.bundle.OperatorBundle.fingerprint>`), and equal
        solve settings.  The ``serve`` daemon keys its cross-request
        session cache -- and therefore its request coalescing -- on
        this value.
        """
        system = self._system
        # the output map changes what a run returns, so sessions with
        # different C/D must never unify in a fingerprint-keyed cache
        C = getattr(system, "C", None)
        D = getattr(system, "D", None)
        output_key = (
            None if C is None else pencil_fingerprint(C),
            None if D is None else pencil_fingerprint(D),
        )
        if isinstance(system, MultiTermSystem):
            system_key: tuple = (
                "multiterm",
                tuple(
                    (float(alpha_k), pencil_fingerprint(matrix))
                    for alpha_k, matrix in system.terms
                ),
                pencil_fingerprint(system.B),
                output_key,
            )
        else:
            system_key = (
                type(system).__name__,
                float(getattr(system, "alpha", 1.0)),
                pencil_fingerprint(system.E, system.A),
                pencil_fingerprint(system.B),
                None if system.x0 is None else system.x0.tobytes(),
                output_key,
            )
        return (
            system_key,
            self._bundle.fingerprint(),
            self._backend_mode,
            # memory compression changes march arithmetic, so compressed
            # and exact sessions must never unify in a keyed cache
            ("exact",)
            if self._memory_plan is None
            else self._memory_plan.fingerprint(),
            # a zoo method changes the fractional operator itself --
            # differently parameterised methods must never unify either
            ("method", "native")
            if self._method is None
            else ("method", *self._method.fingerprint()),
        )

    def limit_cache(
        self, *, max_entries: int | None = None, max_bytes: int | None = None
    ) -> "Simulator":
        """Bound the session's pencil cache (see :meth:`PencilBank.limit
        <repro.engine.backends.PencilBank.limit>`).  Returns ``self``."""
        self._plan.bank.limit(max_entries=max_entries, max_bytes=max_bytes)
        if self._full_plan is not None:
            self._full_plan.bank.limit(
                max_entries=max_entries, max_bytes=max_bytes
            )
        return self

    # ------------------------------------------------------------------
    # default input
    # ------------------------------------------------------------------
    def bind_input(self, u: InputLike) -> "Simulator":
        """Attach a default input, used when :meth:`run` / :meth:`march`
        receive ``u=None`` (netlist sessions bind the deck's source
        waveforms here).  Returns ``self`` for chaining."""
        self._default_input = u
        return self

    @property
    def bound_input(self) -> InputLike | None:
        """The default input attached with :meth:`bind_input` (or ``None``)."""
        return self._default_input

    def _resolve_input(self, u: InputLike | None) -> InputLike:
        if u is not None:
            return u
        if self._default_input is None:
            raise SolverError(
                "no input given and none bound to the session; pass u or "
                "bind_input() first"
            )
        return self._default_input

    # ------------------------------------------------------------------
    # basis plumbing
    # ------------------------------------------------------------------
    def project(self, u: InputLike) -> np.ndarray:
        """Project one input specification onto the session basis: ``(p, m)``."""
        return project_input(u, self._basis, self._system.n_inputs)

    def _encode_inputs(self, U: np.ndarray) -> np.ndarray:
        """Session-basis coefficients -> solver-basis coefficients."""
        if self._transform is None:
            return U
        return U @ self._transform

    def _decode_states(self, X: np.ndarray) -> np.ndarray:
        """Solver-basis coefficients -> session-basis coefficients."""
        if self._transform is None:
            return X
        W = self._transform
        if X.ndim == 2:
            return X @ W.T / self._basis.size
        return np.einsum("nmk,jm->njk", X, W) / self._basis.size

    def _finalise_info(self, info: dict) -> dict:
        info["basis"] = self._basis.name
        if self._transform is not None:
            name = "opm-transformed" if self._method is None else self._method.name
            info["method"] = f"{name}[{self._basis.name}]"
        if self._mor_info:
            info.setdefault("mor", dict(self._mor_info))
        return info

    # ------------------------------------------------------------------
    # reduction plumbing
    # ------------------------------------------------------------------
    @property
    def reduction(self):
        """The bound :class:`~repro.engine.reduction.ReducedModel`
        (``None`` when the session solves the full model)."""
        return self._reduction

    def _full_plan_lazy(self):
        """Full-model plan, built on first fallback (reduced sessions)."""
        if self._full_plan is None:
            self._full_plan = self._make_plan(self._system)
        return self._full_plan

    def _residual_operator(self) -> dict:
        """The plan's operational-matrix data for the full-order
        residual check (shared by the reduced and full plans: it
        depends only on the basis/grid)."""
        plan = self._plan
        if getattr(plan, "D", None) is not None:
            return {"D": plan.D}
        if getattr(plan, "F", None) is not None:
            return {"F": plan.F}
        return {"coeffs": plan.coeffs}

    def _calibrate_run_residual(self) -> float:
        """Bind-time drift-guard reference: the full-order equation
        residual of the reduced model on a unit-step run.

        The bind certificate (transfer bound <= rtol) vouches for this
        reference; a later run whose residual stays within
        ``MOR_RESIDUAL_MARGIN`` of it is operating in the certified
        subspace, while a spike above the margin means the input
        drifted outside it and the run falls back to the full model.
        """
        Ue = self._encode_inputs(self.project(1.0))
        R_full = _system_rhs(self._system, Ue, self._full_offset_cols)
        Z = self._plan.solve(self._plan.right_hand_side(Ue))
        EV, AV = self._reduction.projected_pencil
        return equation_residual(EV, AV, Z, R_full, **self._residual_operator())

    def _lift_certified(self, Z: np.ndarray, R_full: np.ndarray):
        """Lift reduced coefficients, check the per-run drift guard,
        and fall back to the (lazily built) full plan on violation.

        Returns ``(X, mor_info)`` with ``X`` in solver-basis
        coordinates including the ``x0`` columns.
        """
        model = self._reduction
        EV, AV = model.projected_pencil
        residual = equation_residual(EV, AV, Z, R_full, **self._residual_operator())
        mor = dict(self._mor_info)
        mor["run_residual"] = residual
        guard = max(self._mor_rtol, MOR_RESIDUAL_MARGIN * self._mor_residual_scale)
        if residual > guard:
            mor["fallback"] = True
            return self._full_plan_lazy().solve(R_full), mor
        mor["fallback"] = False
        return _add_columns(model.lift(Z), self._x0_lift_cols), mor

    def _solve_encoded(self, Ue: np.ndarray):
        """Solver-basis solve of encoded inputs ``Ue``: the reduced
        certified path when a reduction is bound, the plan solve
        otherwise.  Returns ``(X_solver, mor_info_or_None)``."""
        if self._reduction is None:
            return self._plan.solve(self._plan.right_hand_side(Ue)), None
        R_full = _system_rhs(self._system, Ue, self._full_offset_cols)
        Z = self._plan.solve(self._plan.right_hand_side(Ue))
        return self._lift_certified(Z, R_full)

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def run(self, u: InputLike | None = None) -> SimulationResult:
        """Simulate one input; warm sessions pay only projection + sweep.

        ``u=None`` uses the session's bound input (netlist sessions
        bind the deck's source waveforms; see :meth:`bind_input`).

        Returns a :class:`~repro.core.result.SimulationResult` whose
        ``info`` records the method, factorisation count, backend, and
        whether the pencil cache was already warm.
        """
        u = self._resolve_input(u)
        U, X, wall, info = self._solve(lambda: self.project(u))
        return SimulationResult(
            self._basis, X, self._system, U, wall_time=wall, info=info
        )

    def _solve(self, project: Callable[[], np.ndarray], batch: int | None = None):
        """``(U, X, wall, info)`` of one timed, locked project-and-solve."""
        with self._lock:
            warm = self.is_warm
            start = time.perf_counter()
            U = project()
            X_solver, mor = self._solve_encoded(self._encode_inputs(U))
            X = self._decode_states(X_solver)
            wall = time.perf_counter() - start
            self._runs += 1
            info = self._finalise_info(self._plan.info())
            info["warm"] = warm
            if batch is not None:
                info["batch"] = batch
            if mor is not None:
                info["mor"] = mor
        return U, X, wall, info

    def sweep(self, inputs: Iterable[InputLike]) -> BatchResult:
        """Simulate many inputs in one batched multi-RHS column sweep.

        All inputs are projected, stacked, and solved together: every
        column step performs a single multi-RHS substitution for the
        whole batch (one ``lu_solve`` per column for *all* inputs),
        instead of ``k`` separate sweeps.

        Parameters
        ----------
        inputs:
            Iterable of input specifications (each anything
            :meth:`run` accepts).

        Returns
        -------
        BatchResult
            The ``k`` runs stacked along a leading axis
            (``coefficients`` is ``(k, n, m)``), every run on this
            session's system; ``result[i]`` is input ``i``'s
            :class:`~repro.core.result.SimulationResult` (a view, not a
            copy) and ``info['batch']`` the batch size.
        """
        inputs = list(inputs)
        if not inputs:
            raise SolverError("sweep requires at least one input")
        U, X, wall, info = self._solve(
            lambda: np.stack([self.project(u) for u in inputs]), len(inputs)
        )  # U (k, p, m), X (n, m, k)
        return BatchResult(
            self._basis,
            np.moveaxis(X, 2, 0),
            [self._system] * len(inputs),
            U,
            wall_time=wall,
            info=info,
        )

    def run_ensemble(
        self,
        ensemble,
        *,
        jobs: int | None = None,
        parallel: str = "process",
        u: InputLike | None = None,
    ):
        """Execute a circuit ensemble on this session's grid and basis.

        The session supplies the solve configuration (grid, basis,
        dense/sparse backend mode, fractional-memory settings); the
        ensemble supplies the per-member systems and inputs.  Work is
        sharded across ``jobs`` workers through a
        :class:`~repro.engine.executor.ParallelExecutor`, grouping
        members by pencil fingerprint so each distinct configuration is
        factorised exactly once.

        Parameters
        ----------
        ensemble:
            An :class:`~repro.engine.executor.Ensemble` (see
            :meth:`Ensemble.variations
            <repro.engine.executor.Ensemble.variations>`) or any
            iterable of ``(system, u)`` pairs.
        jobs:
            Worker count (default: the machine's usable CPU count).
        parallel:
            ``'process'`` (default) or ``'serial'``.
        u:
            Default input for members that carry none (``u=None``
            members of explicit ensembles).

        Returns
        -------
        BatchResult
            The members in ensemble order, each with its own system
            (``systems``), ``labels`` and ``params``; ``result[i]`` is
            member ``i``'s :class:`~repro.core.result.SimulationResult`
            (a view into the batch).

        Examples
        --------
        >>> import numpy as np
        >>> from repro.core import DescriptorSystem
        >>> from repro.engine.executor import Ensemble
        >>> fast = DescriptorSystem([[1.0]], [[-2.0]], [[1.0]])
        >>> slow = DescriptorSystem([[1.0]], [[-0.5]], [[1.0]])
        >>> sim = Simulator(fast, (5.0, 100))
        >>> res = sim.run_ensemble(Ensemble([(fast, 1.0), (slow, 1.0)]),
        ...                        parallel="serial")
        >>> len(res), res.labels
        (2, ['member-0', 'member-1'])
        """
        if self._method is not None:
            raise SolverError(
                f"run_ensemble() is not supported with method="
                f"{self._method.name!r}: executor workers rebuild native "
                "sessions; use sweep() or per-member run() calls"
            )
        from .executor import ParallelExecutor

        with ParallelExecutor(parallel, jobs=jobs) as executor:
            return executor.run(ensemble, self._basis, u=u, **self._executor_options)

    def march(self, u, t_end: float, *, events=()) -> MarchingResult:
        """Windowed time-marching over ``[0, t_end]`` on this session.

        The session's horizon *is* the window: ``[0, t_end]`` is split
        into ``t_end / window`` consecutive windows of ``m`` basis terms
        each, all solved on the session's cached operators (one
        factorisation per circuit configuration for the entire march).
        What is carried across window boundaries depends on the basis:

        * **block pulse / Walsh / Haar** -- the flux/charge vector
          ``E x`` for classical systems, the full GL/OPM memory tail
          for fractional ones; the stitched trajectory is
          bit-equivalent to a single giant solve;
        * **spectral (Chebyshev/Legendre)** -- hybrid-function
          marching in the Damarla-Kundu sense: each window is a fresh
          spectral expansion, the terminal state (classical) or the
          Riemann-Liouville memory of all previous windows via cached
          :meth:`~repro.engine.bundle.OperatorBundle.history_matrix`
          operators (fractional) enters as window forcing.

        Parameters
        ----------
        u:
            Input over the whole horizon: a callable in global time, a
            scalar, a ``(p, K * m)`` coefficient array, or an iterable
            streaming one chunk per window (each chunk anything
            :meth:`run` accepts, in window-local time).
        t_end:
            Horizon; must be a whole multiple of the session window.
        events:
            :class:`~repro.engine.marching.Event` objects applied at
            window boundaries: input swaps, load-step scalings, and
            pencil re-stamps (switch closures).  Re-stamped pencils are
            cached, so revisiting a configuration re-factorises
            nothing.  (Fractional spectral marches support input
            events only.)

        Returns
        -------
        MarchingResult
            Stitched per-window results with global-time sampling.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.core import DescriptorSystem
        >>> sim = Simulator(DescriptorSystem([[1.0]], [[-1.0]], [[1.0]]), (1.0, 50))
        >>> long = sim.march(1.0, 10.0)        # 10 windows, one factorisation
        >>> long.n_windows, sim.factorisations
        (10, 1)
        >>> bool(abs(long.states([9.9])[0, 0] - 1.0) < 1e-3)
        True
        """
        if self._method is not None:
            raise SolverError(
                f"march() is not supported with method={self._method.name!r}: "
                "cross-window fractional memory is defined for the native "
                "OPM route only; size the session horizon to t_end instead"
            )
        from . import marching  # the windowed engine loads with its first march

        with self._lock:
            result = marching.march(self, self._resolve_input(u), t_end, events=events)
            if self._reduction is not None:
                result = self._lift_marching(result)
        return result

    def _lift_marching(self, result: MarchingResult) -> MarchingResult:
        """Lift reduced-coordinate march windows back to full order.

        Windowed marches carry their history in reduced coordinates
        (that is the point: each window sweep touches only the ``r``
        reduced states), so lifting happens once per window here.
        Marching relies on the bind-time certificate -- the per-run
        residual estimate is only evaluated by ``run``/``sweep``.
        """
        model = self._reduction
        x0 = self._system.x0
        ones = project_input(1.0, self._basis, 1)[0]
        mor = dict(self._mor_info)
        windows = []
        for res in result.windows:
            X = model.V @ res.coefficients
            if x0 is not None:
                X = X + np.outer(x0, ones)
            info = dict(res.info)
            info["mor"] = mor
            windows.append(
                SimulationResult(
                    res.basis,
                    X,
                    self._system,
                    res.input_coefficients,
                    wall_time=res.wall_time,
                    info=info,
                )
            )
        info = dict(result.info)
        info["mor"] = mor
        return MarchingResult(
            windows,
            result.window_length,
            wall_time=result.wall_time,
            info=info,
        )
