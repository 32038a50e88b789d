"""Windowed time-marching: restartable long-horizon OPM simulation.

The paper's OPM solves one fixed interval with ``m`` block pulses, so a
long horizon forces a huge ``m`` (the fractional history alone is
``O(n m^2)``) and nothing can change mid-run.  This module marches a
sequence of short windows on one cached
:class:`~repro.engine.session.Simulator` session instead -- every
window shares the session's grid, basis, coefficients, and pencil bank,
so the whole march performs **one factorisation per circuit
configuration** -- and carries the state across window boundaries:

* **Classical systems** (``alpha = 1``): the carried quantity is the
  flux/charge vector ``w = E x(t)`` (well-defined even for singular
  DAE ``E``), injected into the next window as the boundary forcing
  ``(2/h) (-1)^j w`` -- the image of the initial condition under the
  block-pulse differentiation operator.  The march is then
  *algebraically identical* to one giant single-window solve: the
  stitched coefficients match to machine precision.

* **Fractional systems** (``alpha != 1``): the memory tail of all
  previous windows is evaluated by
  :class:`~repro.fractional.history.HistoryTail` -- the same GL-style
  convolution the Grünwald-Letnikov baseline pays per step, batched
  into a few GEMMs per window -- and enters the current window as an
  extra forcing term.  Again exactly equivalent to the single-window
  solve, but the per-window working set stays ``O(n m + m^2)``.

Windows also admit **events** at window boundaries: swap the input
waveform, scale it, or re-stamp the MNA pencil (switch closures, load
steps).  Re-stamped pencils are cached per configuration in the
session's :class:`~repro.engine.backends.PencilBank`, so toggling back
to a previous configuration re-factorises nothing.

Sessions bound to non-block-pulse bases march too:

* **Walsh/Haar** sessions march in block-pulse coordinates (the exact
  change of basis) and transform each window at the boundary -- same
  guarantees as above.
* **Spectral** sessions (Chebyshev/Legendre) perform *hybrid-function
  marching* in the sense of Damarla & Kundu's orthogonal hybrid
  functions: each window is a fresh spectral expansion swept on the
  session's cached Schur-shift factorisations; classical systems carry
  the terminal state (exact polynomial evaluation at the window edge),
  fractional systems the Riemann-Liouville memory of every previous
  window through the cached lag operators of
  :meth:`~repro.engine.bundle.OperatorBundle.history_matrix` -- a few
  GEMMs per window instead of a growing global solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

import numpy as np

from ..core.lti import DescriptorSystem, FractionalDescriptorSystem
from ..core.result import (
    MarchingResult,
    SimulationResult,
    terminal_state_estimate,
)
from ..errors import ModelError, SolverError
from ..fractional.history import HistoryTail
from ..fractional.soe import (
    SoeTail,
    fit_continuous_kernel,
    fit_discrete_kernel,
    require_certified,
)
from . import assembly, kernels
from .backends import pencil_fingerprint
from .inputs import normalise_input_callable, project_input

__all__ = ["Event", "march"]

#: Relative tolerance for snapping horizons / event times to window
#: boundaries.
_ALIGN_RTOL = 1e-9


@dataclass
class Event:
    """A mid-run change applied at a window boundary.

    Parameters
    ----------
    t:
        Event time; must coincide with a window boundary (multiple of
        the session's window length) up to round-off.
    u:
        New input specification (callable in *global* time, or a
        scalar) used from ``t`` onward.  ``None`` keeps the current
        input.
    scale:
        Multiplier applied to the *current* input from ``t`` onward
        (load step).  Composes with ``u`` (the new input is scaled).
    system:
        Replacement system whose ``E``/``A``/``B`` re-stamp the pencil
        from ``t`` onward (switch closure).  Must match the bound
        system's state/input/output dimensions and fractional order.
        ``E``/``A``/``B`` given individually override the corresponding
        matrix of the current system instead.
    E, A, B:
        Individual matrix overrides (used when ``system`` is ``None``).
    label:
        Optional name recorded in the result's ``info['events']``.
    """

    t: float
    u: Union[Callable, float, None] = None
    scale: float | None = None
    system: DescriptorSystem | None = None
    E: object = None
    A: object = None
    B: object = None
    label: str | None = None

    changes_pencil: bool = field(init=False, repr=False, default=False)

    def __post_init__(self) -> None:
        self.t = float(self.t)
        if self.t < 0.0:
            raise SolverError(f"event time must be >= 0, got {self.t}")
        self.changes_pencil = (
            self.system is not None
            or self.E is not None
            or self.A is not None
            or self.B is not None
        )
        if (
            self.u is None
            and self.scale is None
            and not self.changes_pencil
        ):
            raise SolverError(
                "event changes nothing: provide u, scale, system, or E/A/B"
            )

    def resolve_system(self, current: DescriptorSystem) -> DescriptorSystem:
        """The system active after this event (dimension-checked)."""
        if not self.changes_pencil:
            return current
        if self.system is not None:
            new = self.system
        else:
            E = current.E if self.E is None else self.E
            A = current.A if self.A is None else self.A
            B = current.B if self.B is None else self.B
            if isinstance(current, FractionalDescriptorSystem):
                new = FractionalDescriptorSystem(
                    current.alpha, E, A, B, C=current.C, D=current.D
                )
            else:
                new = DescriptorSystem(E, A, B, C=current.C, D=current.D)
        if not isinstance(new, DescriptorSystem):
            raise ModelError(
                f"event system must be a DescriptorSystem, got {type(new).__name__}"
            )
        if (
            new.n_states != current.n_states
            or new.n_inputs != current.n_inputs
            or new.n_outputs != current.n_outputs
        ):
            raise ModelError(
                "event system must preserve the model dimensions "
                f"(n={current.n_states}, p={current.n_inputs}, "
                f"q={current.n_outputs}), got (n={new.n_states}, "
                f"p={new.n_inputs}, q={new.n_outputs})"
            )
        if new.alpha != current.alpha:
            raise ModelError(
                f"event system must keep the fractional order alpha="
                f"{current.alpha:g}, got {new.alpha:g}"
            )
        return new


def _boundary_index(t: float, window: float, horizon: float, what: str) -> int:
    """Snap a time to its window-boundary index, or raise."""
    k = int(round(t / window))
    if abs(t - k * window) > _ALIGN_RTOL * max(horizon, window):
        raise SolverError(
            f"{what} t={t:g} does not fall on a window boundary "
            f"(window length {window:g}); align it to a multiple of the "
            "session's grid horizon or choose a different window length"
        )
    return k


class _WindowInputs:
    """Per-window input projection: global callables, streams, arrays, scalars."""

    def __init__(self, u, basis, n_inputs: int, n_windows: int) -> None:
        self._basis = basis
        self._p = n_inputs
        self._m = basis.size
        self._window = basis.t_end
        self._scale = 1.0
        self._stream: Iterator | None = None
        self._callable: Callable | None = None
        self._chunks: np.ndarray | None = None

        if callable(u):
            self._callable = normalise_input_callable(u, n_inputs)
        elif np.isscalar(u):
            self._callable = normalise_input_callable(
                lambda t, _v=float(u): np.full_like(t, _v), n_inputs
            )
        elif isinstance(u, np.ndarray):
            total = n_windows * self._m
            arr = np.asarray(u, dtype=float)
            if arr.ndim == 1:
                arr = arr.reshape(1, -1)
            if arr.shape != (n_inputs, total):
                raise ModelError(
                    f"marching input coefficients must have shape "
                    f"({n_inputs}, {total}) = (p, K * m), got {arr.shape}"
                )
            self._chunks = arr
        elif hasattr(u, "__next__") or hasattr(u, "__iter__"):
            self._stream = iter(u)
        else:
            raise ModelError(
                "march input must be a callable, scalar, (p, K*m) coefficient "
                f"array, or an iterable of per-window chunks, got {type(u).__name__}"
            )

    def set_input(self, u) -> None:
        """Replace the input source from the current window onward."""
        if callable(u):
            self._callable = normalise_input_callable(u, self._p)
        elif np.isscalar(u):
            self._callable = normalise_input_callable(
                lambda t, _v=float(u): np.full_like(t, _v), self._p
            )
        else:
            raise ModelError(
                "event input must be a callable or scalar, "
                f"got {type(u).__name__}"
            )
        # an explicit new input supersedes pre-recorded chunks / streams
        self._chunks = None
        self._stream = None

    def apply_scale(self, scale: float) -> None:
        self._scale *= float(scale)

    def window(self, k: int) -> np.ndarray:
        """Projected input coefficients ``(p, m)`` of window ``k``."""
        if self._chunks is not None:
            U = self._chunks[:, k * self._m : (k + 1) * self._m]
        elif self._stream is not None:
            try:
                chunk = next(self._stream)
            except StopIteration:
                raise SolverError(
                    f"input stream exhausted at window {k}: the stream must "
                    "yield one chunk per window"
                ) from None
            U = project_input(chunk, self._basis, self._p)
        else:
            offset = k * self._window
            U = project_input(
                lambda t, _f=self._callable, _o=offset: _f(t + _o),
                self._basis,
                self._p,
            )
        return self._scale * U if self._scale != 1.0 else U


def _bucket_events(events, window: float, t_end: float, n_windows: int) -> dict:
    """Group events by window index, validating boundary alignment."""
    by_window: dict[int, list[Event]] = {}
    for event in sorted(events, key=lambda e: e.t):
        k = _boundary_index(event.t, window, t_end, "event")
        if not 0 < k < n_windows:
            raise SolverError(
                f"event t={event.t:g} must fall strictly inside (0, {t_end:g})"
            )
        by_window.setdefault(k, []).append(event)
    return by_window


class _WindowRun:
    """The window loop both marches share: each window's events (pencil
    events restamp through ``plan.restamp``, then the optional hook
    ``on_restamp(event, old_system, new_system)`` adjusts carried state)
    and session-basis input, the per-window results, and on exit the
    bank's return to the base stamp, so later calls never solve
    against an event pencil."""

    def __init__(self, sim, u, n_windows: int, by_window: dict, basis, on_restamp=None):
        self.plan = sim._plan
        self.system = self.plan.system
        self.inputs = _WindowInputs(u, sim._basis, self.system.n_inputs, n_windows)
        self.windows: list[SimulationResult] = []
        self.events: list[dict] = []
        self.restamps = 0
        self.start = time.perf_counter()
        self._by_window = by_window
        self._basis = basis
        self._window = sim._basis.t_end
        self._on_restamp = on_restamp

    def __enter__(self) -> "_WindowRun":
        self._base_stamp = self.plan.bank.stamp
        return self

    def __exit__(self, *exc) -> None:
        self.plan.bank.use(self._base_stamp)

    def begin(self, k: int):
        """Apply window ``k``'s events; returns the active system."""
        bank = self.plan.bank
        for event in self._by_window.get(k, ()):
            record = {"t": k * self._window, "label": event.label}
            record["restamp"] = event.changes_pencil
            if event.changes_pencil:
                new_system = event.resolve_system(self.system)
                before = bank.stamps
                self.plan.restamp(new_system)
                self.restamps += 1
                if self._on_restamp is not None:
                    self._on_restamp(event, self.system, new_system)
                self.system = new_system
                record["new_stamp"] = bank.stamps > before
            if event.u is not None:
                self.inputs.set_input(event.u)
            if event.scale is not None:
                self.inputs.apply_scale(event.scale)
            self.events.append(record)
        return self.system

    def record(self, k: int, X: np.ndarray, U: np.ndarray) -> None:
        """Keep window ``k``'s solution ``X`` for input coefficients ``U``."""
        info = self.plan.info()
        info.update(window_index=k, t_offset=k * self._window)
        self.windows.append(
            SimulationResult(self._basis, X, self.system, U, wall_time=None, info=info)
        )


def march(sim, u, t_end: float, *, events=()) -> MarchingResult:
    """Drive a :class:`~repro.engine.session.Simulator` session over
    ``[0, t_end]`` as consecutive windows of the session's basis span.

    This is the implementation behind ``Simulator.march``; see there
    for the user-facing contract.  Dispatches on the session's plan:
    triangular (block-pulse / Walsh / Haar) sessions use the exact
    state-carrying march, spectral sessions the hybrid-function march.
    """
    plan = sim._plan
    if not hasattr(plan, "bank") or not isinstance(plan.system, DescriptorSystem):
        raise SolverError(
            "march supports (fractional) descriptor systems only; convert "
            "multi-term models with to_first_order() first"
        )
    if not sim._bundle.supports_march:
        raise SolverError(
            f"the {sim._basis.name} basis spans an infinite horizon and "
            "cannot be windowed; use run() or a finite-horizon basis"
        )
    if getattr(sim, "_reduction", None) is not None and any(
        e.changes_pencil for e in events
    ):
        raise SolverError(
            "pencil events invalidate the session's reduction basis "
            "(the Krylov subspace is built for one pencil); march the "
            "full model (reduce=None) for switching circuits"
        )
    if plan.kind == "descriptor" and plan.coeffs is None:
        raise SolverError(
            "march requires a uniform window grid (the adaptive operator is "
            "not Toeplitz, so windows cannot share one pencil bank)"
        )
    t_end = float(t_end)
    if t_end <= 0.0:
        raise SolverError(f"t_end must be positive, got {t_end}")
    window = sim._basis.t_end
    n_windows = _boundary_index(t_end, window, t_end, "t_end")
    if n_windows < 1:
        raise SolverError(
            f"t_end={t_end:g} is shorter than the session window {window:g}"
        )
    by_window = _bucket_events(events, window, t_end, n_windows)
    flavour = _march_spectral if plan.kind == "spectral" else _march_triangular
    return flavour(sim, u, n_windows, by_window)


def _march_result(sim, method: str, run: _WindowRun, memory) -> MarchingResult:
    """Stitch a finished march's windows with the march-level ``info``."""
    basis = sim._basis
    info = sim._plan.info()
    info.update(
        method=method,
        basis=basis.name,
        windows=len(run.windows),
        window_m=basis.size,
        window_length=basis.t_end,
        events=run.events,
        restamps=run.restamps,
        stamps=sim._plan.bank.stamps,
    )
    if memory is not None:
        info["memory"] = memory
    sim._runs += 1
    wall = time.perf_counter() - run.start
    return MarchingResult(run.windows, basis.t_end, wall_time=wall, info=info)


def _resolve_tail(sim, full_coeffs: np.ndarray, m: int, n_windows: int):
    """Cross-window memory carrier for the triangular march.

    ``memory='exact'`` sessions (the default) keep today's
    :class:`HistoryTail` bit-for-bit.  ``memory='soe'`` sessions fit a
    sum-of-exponentials over the cross-window lag range
    ``[m + 1, K m - 1]`` (the current window's own history stays inside
    :func:`kernels.sweep_toeplitz` either way); the fit is *gated* on
    its exact certificate -- a miss falls back to the exact tail and
    records why in the march's ``info['memory']``.
    """
    plan_mem = getattr(sim, "_memory_plan", None)
    if plan_mem is None:
        return HistoryTail(full_coeffs, block_columns=m), {"mode": "exact"}
    if n_windows * m - 1 < m + 1:
        # single window (or degenerate m): no cross-window memory exists
        return (
            HistoryTail(full_coeffs, block_columns=m),
            {"mode": "exact", "reason": "single-window"},
        )
    fit = fit_discrete_kernel(full_coeffs, m + 1, n_windows * m - 1, plan_mem)
    memory_info = fit.info()
    if require_certified(fit, plan_mem, "windowed-march"):
        memory_info["fallback"] = False
        return SoeTail(full_coeffs, fit), memory_info
    memory_info.update(mode="exact", fallback=True)
    return HistoryTail(full_coeffs, block_columns=m), memory_info


def _march_triangular(sim, u, n_windows: int, by_window: dict) -> MarchingResult:
    """State-carrying march on the block-pulse (or transformed) plan."""
    plan = sim._plan
    grid = sim._solve_basis.grid
    m, h = grid.m, grid.h
    system = plan.system
    bank = plan.bank
    alpha = system.alpha
    first_order = alpha == 1.0
    coeffs = plan.coeffs
    n = system.n_states

    prev_X: np.ndarray | None = None

    def on_restamp(event, old_system, new_system):
        # carried-state adjustments specific to the triangular march
        nonlocal w, x0_offset
        if first_order and pencil_fingerprint(new_system.E) != pencil_fingerprint(
            old_system.E
        ):
            # w = E x is discontinuous across an E change; rebuild it
            # from the O(h^2) terminal-state estimate of the previous
            # window (exactness is only guaranteed for events that
            # keep E)
            x_est = (
                terminal_state_estimate(prev_X)
                if prev_X is not None
                else np.zeros(n)
            )
            w = np.asarray(bank.apply_E(x_est)).reshape(-1)
        if not first_order and x0_offset is not None:
            x0_offset = np.asarray(new_system.A @ x0).reshape(-1)

    # transformed sessions encode each window into block-pulse
    # coordinates right after projection
    run = _WindowRun(sim, u, n_windows, by_window, sim._solve_basis, on_restamp)

    x0 = system.x0  # the global t=0 initial state, fixed across events
    if first_order:
        tail = None
        memory_info = None
        signs = (-1.0) ** np.arange(m)
        # carried flux/charge vector w = E x(t) -- exact for DAEs too
        w = np.zeros(n) if x0 is None else np.asarray(
            bank.apply_E(x0)
        ).reshape(-1)
        x0_offset = None
        # reduced solve systems march in shifted coordinates with a
        # constant forcing g = V^T A x0 (x0 is None there, so the two
        # mechanisms never overlap); full systems encode their IC in w
        march_offset = system.shifted_input_offset() if x0 is None else None
    else:
        # fractional: march in the zero-IC shifted variable z = x - x0
        # (Caputo convention; see DescriptorSystem.shifted_input_offset),
        # carrying the GL/OPM memory of all previous windows
        full_coeffs = assembly.toeplitz_coefficients(alpha, n_windows * m, h)
        tail, memory_info = _resolve_tail(sim, full_coeffs, m, n_windows)
        w = None
        signs = None
        x0_offset = plan._offset  # A x0, or None

    with run:
        for k in range(n_windows):
            system = run.begin(k)
            U = sim._encode_inputs(run.inputs.window(k))
            R = system.B @ U
            if first_order:
                if march_offset is not None:
                    R = R + march_offset[:, None]
                if np.any(w):
                    R = R + (2.0 / h) * w[:, None] * signs[None, :]
                X = kernels.sweep_toeplitz(bank, R, coeffs, alternating_tail=True)
                w = w + h * (system.A @ X.sum(axis=1) + system.B @ U.sum(axis=1))
                if march_offset is not None:
                    # the constant forcing integrates to (window length) * g
                    w = w + (h * m) * march_offset
            else:
                if x0_offset is not None:
                    R = R + x0_offset[:, None]
                H = tail.tail(m)
                if H is not None:
                    R = R - bank.apply_E(H)
                X = kernels.sweep_toeplitz(bank, R, coeffs)
                tail.append(X)
                if x0 is not None:
                    X = X + x0[:, None]
            prev_X = X
            run.record(k, X, U)

    if sim._transform is not None:
        run.windows = [_transformed_window(sim, res) for res in run.windows]
    return _march_result(sim, "opm-windowed", run, memory_info)


def _transformed_window(sim, res: SimulationResult) -> SimulationResult:
    """Re-express a block-pulse window in the session's Walsh/Haar basis."""
    basis = sim._basis
    info = dict(res.info)
    info["method"] = f"opm-windowed-transformed[{basis.name}]"
    return SimulationResult(
        basis,
        basis.from_block_pulse_coefficients(res.coefficients),
        res.system,
        basis.from_block_pulse_coefficients(res.input_coefficients),
        wall_time=res.wall_time,
        info=info,
    )


def _march_spectral(sim, u, n_windows: int, by_window: dict) -> MarchingResult:
    """Hybrid-function marching on a spectral session.

    Every window is a fresh spectral expansion solved by the plan's
    integral sweep: the Schur-rotated triangular sweep over the
    session's cached ``E - lambda A`` factorisations (pencil events
    restamp them through the plan, and revisited configurations
    re-factorise nothing).  Classical systems carry the terminal state
    across boundaries (exact polynomial evaluation at the window edge);
    fractional systems carry the Riemann-Liouville memory of all
    previous windows through the cached lag operators
    ``H_l = bundle.history_matrix(alpha, l)``:

    .. math::

        E Z_k - A Z_k F = R_k F + \\sum_{l \\ge 1}
            (A Z_{k-l} + R_{k-l}) H_l,

    which is the operational-matrix form of splitting ``I^alpha`` at
    the window boundaries (the Damarla-Kundu hybrid construction).
    Unlike the block-pulse march, windows are *independent truncations*
    -- accuracy is spectral in the window order ``m`` rather than
    bit-equal to a giant single solve.
    """
    plan = sim._plan
    bundle = plan.bundle
    basis = bundle.basis
    system = plan.system
    alpha = system.alpha
    first_order = alpha == 1.0
    n = system.n_states
    ones = bundle.ones_coefficients()
    F = plan.F

    memory_info = None
    if not first_order:
        for evts in by_window.values():
            if any(e.changes_pencil for e in evts):
                raise SolverError(
                    "fractional spectral marches support input events only: "
                    "the memory operators assume one pencil over the whole "
                    "history (use a block-pulse session for switching "
                    "fractional circuits)"
                )
        history_sources: list[np.ndarray] = []  # A Z_j + R_j per window
        soe_ops, memory_info = _spectral_soe_operators(
            sim, bundle, alpha, n_windows
        )
        if soe_ops is not None:
            soe_a, soe_b, soe_c, soe_mu, soe_mu2 = soe_ops
            H1 = bundle.history_matrix(alpha, 1)  # singular lag: exact
            T = np.zeros((n, soe_mu.size))  # mode states sum mu^l src a
            prev_src: np.ndarray | None = None
        x0 = system.x0
        offset = system.shifted_input_offset()  # A x0, or None
        offset_cols = None if offset is None else np.outer(offset, ones)
        x0_cols = None if x0 is None else np.outer(x0, ones)
    else:
        terminal = bundle.terminal_vector()
        w0 = np.zeros(n) if system.x0 is None else np.asarray(system.x0, float).copy()
        # reduced solve systems: constant shifted-coordinate forcing
        march_offset = (
            system.shifted_input_offset() if system.x0 is None else None
        )
        offset_cols_fo = (
            None if march_offset is None else np.outer(march_offset, ones)
        )

    with _WindowRun(sim, u, n_windows, by_window, basis) as run:
        for k in range(n_windows):
            system = run.begin(k)
            U = run.inputs.window(k)
            R = system.B @ U
            if first_order:
                # window variable v = x - w0, forced by B u + A w0
                if offset_cols_fo is not None:
                    R = R + offset_cols_fo
                if np.any(w0):
                    R = R + np.outer(np.asarray(system.A @ w0).reshape(-1), ones)
                V = plan.integral_sweep(R @ F)
                X = V + np.outer(w0, ones) if np.any(w0) else V
                w0 = X @ terminal
            else:
                if offset_cols is not None:
                    R = R + offset_cols
                S = R @ F
                if soe_ops is not None:
                    # adjacent window exact (the RL kernel is singular
                    # there); all older windows through the rank-one
                    # mode states: sum_l>=2 src_{k-l} H_l ~ (T c) b
                    if prev_src is not None:
                        S = S + prev_src @ H1
                    if k >= 2:
                        S = S + (T * soe_c[None, :]) @ soe_b
                else:
                    for lag in range(1, k + 1):
                        S = S + history_sources[k - lag] @ bundle.history_matrix(
                            alpha, lag
                        )
                Z = plan.integral_sweep(S)
                src = np.asarray(system.A @ Z) + R
                if soe_ops is not None:
                    # T(k+1) = mu T(k) + mu^2 (src_{k-1} @ a): window
                    # k-1 graduates from the exact adjacent slot into
                    # the compressed modes
                    if prev_src is not None:
                        T = T * soe_mu[None, :] + (prev_src @ soe_a) * soe_mu2[
                            None, :
                        ]
                    prev_src = src
                else:
                    history_sources.append(src)
                X = Z + x0_cols if x0_cols is not None else Z
            run.record(k, X, U)
    method = f"opm-spectral-windowed[{basis.name}]"
    return _march_result(sim, method, run, memory_info)


def _spectral_soe_operators(sim, bundle, alpha: float, n_windows: int):
    """Rank-one compressed memory operators for the spectral march.

    Fits the continuous RL kernel ``t^{alpha-1}/Gamma(alpha)`` on
    ``[W, K W]`` (certified); separability of each exponential mode
    turns every lag operator ``H_l`` (``l >= 2``) into
    ``sum_p c_p mu_p^l a_p b_p^T`` with

    * ``a_p[i] = int_0^W psi_i(sigma) e^{theta_p sigma} dsigma``
      (Gauss-Legendre, same order as the exact ``history_matrix``),
    * ``b_p`` the basis coefficients of ``e^{-theta_p tau}``,
    * ``mu_p = e^{-theta_p W}``.

    Returns ``((a, b, c, mu, mu2), info)`` or ``(None, info)`` when the
    session uses exact memory, the horizon is too short to compress, or
    the fit missed its certificate (recorded fallback).
    """
    plan_mem = getattr(sim, "_memory_plan", None)
    if plan_mem is None:
        return None, {"mode": "exact"}
    if n_windows < 3:
        # lag 1 is exact by construction, so there is nothing to compress
        return None, {"mode": "exact", "reason": "short-horizon"}
    basis = bundle.basis
    if not hasattr(basis, "quadrature_times") or not hasattr(
        basis, "project_values"
    ):
        return None, {"mode": "exact", "reason": "no-quadrature"}
    W = bundle.t_end
    fit = fit_continuous_kernel(alpha, n_windows, W, plan_mem)
    memory_info = fit.info()
    if not require_certified(fit, plan_mem, "spectral-march"):
        memory_info.update(mode="exact", fallback=True)
        return None, memory_info
    memory_info["fallback"] = False
    theta = fit.rates
    c = fit.weights
    m = bundle.size
    ng = max(64, 2 * m)
    nodes, wts = np.polynomial.legendre.leggauss(ng)
    sigma = 0.5 * W * (nodes + 1.0)
    ws = 0.5 * W * wts
    psi = np.asarray(basis.evaluate(sigma), dtype=float)  # (m, ng)
    a = psi @ (ws[:, None] * np.exp(np.outer(sigma, theta)))  # (m, P)
    tau = np.asarray(basis.quadrature_times, dtype=float)
    b = np.asarray(
        basis.project_values(np.exp(-np.outer(theta, tau))), dtype=float
    )  # (P, m)
    mu = np.exp(-theta * W)
    return (a, b, c, mu, mu * mu), memory_info
