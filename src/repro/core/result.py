"""Simulation result containers.

OPM produces the coefficient matrix ``X`` of the state expansion
``x(t) = X phi(t)`` (paper eq. (10)/(26)).  :class:`SimulationResult`
wraps ``X`` together with the basis so users can sample waveforms,
evaluate outputs ``y = C x + D u``, and compare runs on different grids
via resampling.  :class:`BatchResult` stacks ``k`` such runs on one
basis along a leading run axis -- the batched sweeps of a session and
the members of an ensemble -- and samples them all at once.
"""

from __future__ import annotations

import numpy as np

from ..basis.base import BasisSet
from ..basis.block_pulse import BlockPulseBasis
from ..basis.pwconst import PiecewiseConstantBasis
from ..errors import EnsembleError

__all__ = [
    "SimulationResult",
    "BatchResult",
    "SampledResult",
    "MarchingResult",
    "terminal_state_estimate",
]


def _interpolate_rows(values: np.ndarray, nodes: np.ndarray, times) -> np.ndarray:
    """Piecewise-linear interpolation of every row of a ``(..., K)`` array.

    ``values[..., j]`` is the value at ``nodes[j]``; the result replaces
    the trailing axis by ``len(times)`` (clamped outside the nodes).
    Rows go through ``np.interp`` one at a time, so a batch interpolates
    bit for bit like its runs do separately.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rows = np.reshape(values, (-1, values.shape[-1]))
    out = np.empty((rows.shape[0], times.size))
    for i, row in enumerate(rows):
        out[i] = np.interp(times, nodes, row)
    return out.reshape(values.shape[:-1] + (times.size,))


def _midpoint_times(t_end: float, n_points) -> np.ndarray:
    """``n_points`` equally spaced interval midpoints on ``[0, t_end)``."""
    n_points = int(n_points)
    step = t_end / n_points
    return (np.arange(n_points) + 0.5) * step


def terminal_state_estimate(coefficients: np.ndarray) -> np.ndarray:
    """Endpoint value ``x(t_end)`` from block-pulse coefficients, to ``O(h^2)``.

    Block-pulse coefficients are interval averages; linear extrapolation
    of the last two gives the right-edge value to second order.  Shared
    by :meth:`MarchingResult.terminal_state` and the marching engine's
    flux rebuild across ``E``-changing events.
    """
    if coefficients.shape[1] == 1:
        return coefficients[:, -1].copy()
    return 1.5 * coefficients[:, -1] - 0.5 * coefficients[:, -2]


class SampledResult:
    """Node-based trajectory from a time-stepping baseline.

    Classical transient schemes (backward Euler, trapezoidal, Gear) and
    the Grünwald-Letnikov fractional stepper produce state values at
    discrete time nodes rather than basis coefficients.  This container
    mirrors the sampling API of :class:`SimulationResult` (via linear
    interpolation) so error metrics can compare the two uniformly.

    Attributes
    ----------
    times:
        1-D array of ``K`` time nodes (monotonically increasing).
    state_values:
        Array ``(n_states, K)`` of states at the nodes.
    system:
        The simulated system (for the ``C``/``D`` output map).
    input_values:
        Optional ``(n_inputs, K)`` input samples at the nodes (needed
        only when the system has a feedthrough ``D``).
    """

    def __init__(
        self,
        times,
        state_values,
        system,
        input_values=None,
        *,
        wall_time: float | None = None,
        info: dict | None = None,
    ) -> None:
        self.times = np.asarray(times, dtype=float)
        self.state_values = np.asarray(state_values, dtype=float)
        if self.times.ndim != 1 or self.state_values.ndim != 2:
            raise ValueError("times must be 1-D and state_values 2-D")
        if self.state_values.shape[1] != self.times.size:
            raise ValueError(
                f"state_values must have {self.times.size} columns, "
                f"got {self.state_values.shape[1]}"
            )
        self.system = system
        self.input_values = None if input_values is None else np.asarray(input_values, float)
        self.wall_time = wall_time
        self.info = dict(info or {})

    @property
    def n_states(self) -> int:
        return self.state_values.shape[0]

    @property
    def output_values(self) -> np.ndarray:
        """Outputs at the nodes, ``y = C x + D u``."""
        y = self.state_values if self.system.C is None else self.system.C @ self.state_values
        if self.system.D is not None:
            if self.input_values is None:
                raise ValueError("system has feedthrough D but no input samples stored")
            y = y + self.system.D @ self.input_values
        return y

    def states(self, times) -> np.ndarray:
        """Linear interpolation of the states at arbitrary times."""
        return _interpolate_rows(self.state_values, self.times, times)

    def outputs(self, times) -> np.ndarray:
        """Linear interpolation of the outputs at arbitrary times."""
        return _interpolate_rows(self.output_values, self.times, times)

    def __repr__(self) -> str:
        return (
            f"SampledResult(n={self.n_states}, K={self.times.size}, "
            f"wall_time={self.wall_time})"
        )


class _Expansion:
    """Sampling accessors shared by the coefficient-form results.

    A subclass provides ``basis``, ``coefficients`` and
    ``output_coefficients`` with the basis index on the trailing axis:
    ``(n, m)`` for one run, ``(k, n, m)`` for a batch.  Every accessor
    keeps the leading axes and replaces the trailing one by the sample
    times.
    """

    basis: BasisSet

    @property
    def m(self) -> int:
        """Number of basis terms (time intervals for block pulses)."""
        return self.basis.size

    @property
    def grid(self):
        """The time grid when the basis is block-pulse, else ``None``."""
        if isinstance(self.basis, BlockPulseBasis):
            return self.basis.grid
        return None

    def _block_pulse_grid(self):
        """The block-pulse grid under the basis (Walsh/Haar included)."""
        if isinstance(self.basis, PiecewiseConstantBasis):
            return self.basis.block_pulse.grid
        return self.grid

    def states(self, times) -> np.ndarray:
        """Sample the state trajectory, shape ``(..., n_states, len(times))``."""
        return self.basis.synthesize(self.coefficients, np.atleast_1d(times))

    def outputs(self, times) -> np.ndarray:
        """Sample the output trajectory ``y = C x + D u``."""
        return self.basis.synthesize(self.output_coefficients, np.atleast_1d(times))

    def _smooth(self, coeffs: np.ndarray, times) -> np.ndarray:
        """Linear interpolation of block-pulse coefficients at midpoints.

        Block-pulse coefficients are interval averages, which agree with
        midpoint values to second order; interpolating them linearly
        gives a continuous second-order reconstruction, removing the
        O(h) half-cell offset of raw piecewise-constant sampling.  Used
        for cross-method waveform comparisons.  Walsh/Haar results are
        exact transforms of block pulses, so they convert and take the
        same second-order path; other bases fall back to synthesis.
        """
        grid = self._block_pulse_grid()
        if grid is None:
            return self.basis.synthesize(coeffs, np.atleast_1d(times))
        if grid is not self.grid:
            coeffs = self.basis.to_block_pulse_coefficients(coeffs)
        return _interpolate_rows(coeffs, grid.midpoints, times)

    def states_smooth(self, times) -> np.ndarray:
        """Second-order (midpoint-linear) state reconstruction.

        Falls back to basis synthesis for non-block-pulse results.
        """
        return self._smooth(self.coefficients, times)

    def outputs_smooth(self, times) -> np.ndarray:
        """Second-order (midpoint-linear) output reconstruction."""
        return self._smooth(self.output_coefficients, times)

    def sample_times(self, n_points: int | None = None) -> np.ndarray:
        """Natural sampling times: interval midpoints for block pulses.

        For block-pulse results (Walsh/Haar expose their underlying
        block-pulse grid) with ``n_points is None`` this returns the
        grid midpoints -- the points where the piecewise-constant
        expansion best represents the trajectory (paper's "roughly,
        f_i = f(ih)").  Otherwise returns ``n_points`` (default 256)
        equally spaced midpoints on ``[0, t_end)``.
        """
        grid = self._block_pulse_grid()
        if n_points is None and grid is not None:
            return grid.midpoints
        if not np.isfinite(self.basis.t_end):
            raise ValueError(
                "a semi-infinite basis has no natural sample times; evaluate "
                "states()/outputs() at explicit times instead"
            )
        return _midpoint_times(self.basis.t_end, 256 if n_points is None else n_points)


class SimulationResult(_Expansion):
    """State trajectory in coefficient form plus evaluation helpers.

    Attributes
    ----------
    basis:
        The basis the expansion lives in (block-pulse for the standard
        solvers; Walsh/Haar/polynomial for the basis-agnostic ones).
    coefficients:
        State coefficient matrix ``X`` of shape ``(n_states, m)``.
    input_coefficients:
        Input coefficient matrix ``U`` of shape ``(n_inputs, m)``.
    system:
        The simulated system (used for ``C``/``D`` output mapping).
    wall_time:
        Solver wall-clock seconds (populated by the solvers).
    info:
        Free-form solver metadata: method name, factorisation count,
        accepted/rejected steps for the adaptive controller, ...
    """

    def __init__(
        self,
        basis: BasisSet,
        coefficients: np.ndarray,
        system,
        input_coefficients: np.ndarray,
        *,
        wall_time: float | None = None,
        info: dict | None = None,
    ) -> None:
        coefficients = np.asarray(coefficients, dtype=float)
        input_coefficients = np.asarray(input_coefficients, dtype=float)
        if coefficients.ndim != 2 or coefficients.shape[1] != basis.size:
            raise ValueError(
                f"coefficients must be (n, {basis.size}), got {coefficients.shape}"
            )
        if input_coefficients.ndim != 2 or input_coefficients.shape[1] != basis.size:
            raise ValueError(
                f"input_coefficients must be (p, {basis.size}), got {input_coefficients.shape}"
            )
        self.basis = basis
        self.coefficients = coefficients
        self.input_coefficients = input_coefficients
        self.system = system
        self.wall_time = wall_time
        self.info = dict(info or {})

    @property
    def n_states(self) -> int:
        return self.coefficients.shape[0]

    @property
    def output_coefficients(self) -> np.ndarray:
        """Output coefficient matrix ``Y = C X + D U``."""
        return self.system.output_coefficients(self.coefficients, self.input_coefficients)

    def inputs(self, times) -> np.ndarray:
        """Sample the (projected) input trajectory."""
        return self.basis.synthesize(self.input_coefficients, np.atleast_1d(times))

    def __repr__(self) -> str:
        return (
            f"SimulationResult(n={self.n_states}, m={self.m}, "
            f"basis={self.basis.name}, wall_time={self.wall_time})"
        )


class BatchResult(_Expansion):
    """``k`` runs on one basis, stacked along a leading run axis.

    :meth:`~repro.engine.session.Simulator.sweep` (one system, many
    inputs) and :class:`~repro.engine.executor.ParallelExecutor`
    ensembles (a system per member) both return this container.
    ``result[i]`` is an ordinary :class:`SimulationResult` whose arrays
    are views into the batch, so everything in :mod:`repro.analysis`
    and :mod:`repro.io` consumes batch members unchanged;
    ``result[a:b]`` is a sub-batch.  The sampling accessors return
    ``(k, rows, len(times))`` stacks in one pass.

    An ensemble may mix state sizes (a *ragged* batch): the state
    tensor then has ``max(n)`` rows, each run sees its own leading
    rows, and the stacked accessors raise
    :class:`~repro.errors.EnsembleError` -- outputs still stack when
    every run has the same output count.

    Attributes
    ----------
    basis:
        The shared basis of every run.
    systems:
        The system of each run (a sweep repeats its session's system);
        run ``i`` maps states to outputs with ``systems[i]``.
    labels, params:
        Per-member labels and parameter overrides of an ensemble,
        ``None`` for a sweep.
    wall_time:
        Wall-clock seconds of the whole batch.
    info:
        Solver metadata (method, factorisations, batch size, ...).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import DescriptorSystem, Simulator
    >>> sim = Simulator(DescriptorSystem([[1.0]], [[-1.0]], [[1.0]]), (5.0, 100))
    >>> batch = sim.sweep([0.5, 1.0, 2.0])
    >>> len(batch), batch.outputs(batch.sample_times()).shape
    (3, (3, 1, 100))
    >>> bool(np.shares_memory(batch[1].coefficients, batch.coefficients))
    True
    >>> len(batch[1:])
    2
    """

    def __init__(
        self,
        basis: BasisSet,
        coefficients: np.ndarray,
        systems,
        input_coefficients: np.ndarray,
        *,
        labels=None,
        params=None,
        wall_time: float | None = None,
        info: dict | None = None,
    ) -> None:
        coefficients = np.asarray(coefficients, dtype=float)
        input_coefficients = np.asarray(input_coefficients, dtype=float)
        if coefficients.ndim != 3 or coefficients.shape[2] != basis.size:
            raise ValueError(
                f"coefficients must be (k, n, {basis.size}), got {coefficients.shape}"
            )
        k = coefficients.shape[0]
        if (
            input_coefficients.ndim != 3
            or input_coefficients.shape[0] != k
            or input_coefficients.shape[2] != basis.size
        ):
            raise ValueError(
                f"input_coefficients must be ({k}, p, {basis.size}), "
                f"got {input_coefficients.shape}"
            )
        systems = list(systems)
        if len(systems) != k:
            raise ValueError(f"expected {k} systems, got {len(systems)}")
        n_rows = [system.n_states for system in systems]
        p_rows = [system.n_inputs for system in systems]
        self.basis = basis
        self.systems = systems
        self.labels = None if labels is None else list(labels)
        self.params = None if params is None else list(params)
        self.wall_time = wall_time
        self.info = dict(info or {})
        # a padded (ragged) tensor keeps the rows its runs use
        self._states = coefficients[:, : max(n_rows, default=coefficients.shape[1])]
        self._inputs = input_coefficients[:, : max(p_rows, default=input_coefficients.shape[1])]
        self._n_rows = n_rows if len(set(n_rows)) > 1 else None
        self._p_rows = p_rows if len(set(p_rows)) > 1 else None
        self._output_coefficients: np.ndarray | None = None

    # ------------------------------------------------------------------
    # stacked coefficients
    # ------------------------------------------------------------------
    @property
    def coefficients(self) -> np.ndarray:
        """State coefficient tensor ``(k, n, m)``; row ``i`` is run ``i``'s ``X``."""
        return _uniform(self._states, self._n_rows, "state")

    @property
    def input_coefficients(self) -> np.ndarray:
        """Input coefficient tensor ``(k, p, m)``."""
        return _uniform(self._inputs, self._p_rows, "input")

    @property
    def output_coefficients(self) -> np.ndarray:
        """Output coefficient tensor ``(k, q, m)``, ``Y_i = C_i X_i + D_i U_i``.

        Each run applies its own system's ``C``/``D`` (the product
        ``result[i].output_coefficients`` performs); computed once and
        cached.  When no run has an output map the state tensor itself
        is returned.
        """
        if self._output_coefficients is None:
            runs = [self._run(i) for i in range(len(self))]
            Y = [
                system.output_coefficients(X, U)
                for system, (X, U) in zip(self.systems, runs)
            ]
            if self._n_rows is None and all(y is X for y, (X, _) in zip(Y, runs)):
                self._output_coefficients = self._states
            else:
                counts = sorted({y.shape[0] for y in Y})
                if len(counts) > 1:
                    raise EnsembleError(
                        f"runs have different output counts {counts}; "
                        "sample them one at a time through result[i]"
                    )
                self._output_coefficients = np.stack(Y)
        return self._output_coefficients

    def _run(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of run ``i``'s state and input coefficients."""
        n = None if self._n_rows is None else self._n_rows[i]
        p = None if self._p_rows is None else self._p_rows[i]
        return self._states[i, :n], self._inputs[i, :p]

    # ------------------------------------------------------------------
    # sequence protocol: a batch is a list of SimulationResults
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._states.shape[0]

    def __getitem__(self, index):
        """Run ``index`` as a :class:`SimulationResult`, or a sub-batch for slices.

        A run's arrays are views into the batch and its ``info`` adds
        ``batch_index`` (and the member ``label`` of an ensemble); run
        and sub-batch results carry ``wall_time=None``, as the batch's
        wall time is not attributable to part of it.
        """
        if isinstance(index, slice):
            return BatchResult(
                self.basis,
                self._states[index],
                self.systems[index],
                self._inputs[index],
                labels=None if self.labels is None else self.labels[index],
                params=None if self.params is None else self.params[index],
                info=self.info,
            )
        i = range(len(self))[index]  # normalises negatives, raises IndexError
        info = dict(self.info)
        info["batch_index"] = i
        if self.labels is not None:
            info["label"] = self.labels[i]
        X, U = self._run(i)
        return SimulationResult(self.basis, X, self.systems[i], U, info=info)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __repr__(self) -> str:
        return (
            f"BatchResult(k={len(self)}, m={self.m}, "
            f"basis={self.basis.name}, wall_time={self.wall_time})"
        )


def _uniform(stack: np.ndarray, rows, kind: str) -> np.ndarray:
    """``stack`` when every run fills it, else a typed error naming the sizes."""
    if rows is not None:
        raise EnsembleError(
            f"runs have different {kind} sizes {sorted(set(rows))}; "
            "stack them one at a time through result[i]"
        )
    return stack


class MarchingResult:
    """Stitched per-window results of a windowed time-marching run.

    :meth:`repro.engine.session.Simulator.march` solves ``[0, t_end]``
    as ``K`` consecutive windows on one shared window grid; this
    container stitches the per-window :class:`SimulationResult` objects
    back into a single global-time trajectory.  Every window result
    lives in *local* window time ``[0, W)``; the sampling methods here
    translate global times and expose the same accessor surface as
    :class:`SimulationResult` (``states`` / ``outputs`` /
    ``states_smooth`` / ``outputs_smooth`` / ``sample_times``).

    Indexing yields the per-window results (in local time, with
    ``info['window_index']`` / ``info['t_offset']`` recording their
    place in the march), so all existing per-run analysis and IO
    machinery consumes marched windows unchanged.

    Attributes
    ----------
    windows:
        The per-window :class:`SimulationResult` list, in order.  Note
        that windows may carry *different* systems when mid-run events
        re-stamped the model.
    window_length:
        Duration ``W`` of each window (all windows share one grid).
    wall_time:
        Wall-clock seconds of the whole march.
    info:
        March metadata: method, window count, events applied, pencil
        stamps/factorisations, backend, ...
    """

    def __init__(
        self,
        windows,
        window_length: float,
        *,
        wall_time: float | None = None,
        info: dict | None = None,
    ) -> None:
        windows = list(windows)
        if not windows:
            raise ValueError("MarchingResult needs at least one window")
        first = windows[0]
        for res in windows:
            if res.coefficients.shape != first.coefficients.shape:
                raise ValueError("all windows must share one grid and state size")
        self.windows = windows
        self.window_length = float(window_length)
        self.wall_time = wall_time
        self.info = dict(info or {})
        self._coefficients: np.ndarray | None = None
        self._output_coefficients: np.ndarray | None = None

    # ------------------------------------------------------------------
    # shape properties
    # ------------------------------------------------------------------
    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def n_states(self) -> int:
        return self.windows[0].n_states

    @property
    def window_m(self) -> int:
        """Block pulses per window."""
        return self.windows[0].m

    @property
    def m(self) -> int:
        """Total block pulses over the whole horizon."""
        return self.n_windows * self.window_m

    @property
    def t_end(self) -> float:
        return self.n_windows * self.window_length

    @property
    def system(self):
        """The system of the *first* window (events may re-stamp later ones)."""
        return self.windows[0].system

    @property
    def offsets(self) -> np.ndarray:
        """Global start time of each window."""
        return self.window_length * np.arange(self.n_windows)

    @property
    def _window_grid(self):
        """The shared per-window :class:`TimeGrid`, if the windows have one.

        Block-pulse windows carry it directly; Walsh/Haar windows are
        exact transforms of block pulses and expose the underlying
        grid.  ``None`` for spectral windows.
        """
        return self.windows[0]._block_pulse_grid()

    @property
    def midpoints(self) -> np.ndarray:
        """Global sample times of the stitched trajectory.

        Interval midpoints of the stitched grid for (possibly
        transformed) block-pulse windows; the windows' natural sample
        times (equispaced midpoints) for spectral bases.
        """
        grid = self._window_grid
        local = grid.midpoints if grid is not None else self.windows[0].sample_times()
        return (self.offsets[:, None] + local[None, :]).reshape(-1)

    def _stitched_block_pulse(self, coeffs: np.ndarray) -> np.ndarray:
        """Stitched coefficients converted to block-pulse coordinates."""
        basis = self.windows[0].basis
        if not isinstance(basis, PiecewiseConstantBasis):
            return coeffs
        m = self.window_m
        return np.concatenate(
            [
                basis.to_block_pulse_coefficients(coeffs[:, k * m : (k + 1) * m])
                for k in range(self.n_windows)
            ],
            axis=1,
        )

    # ------------------------------------------------------------------
    # stitched coefficients
    # ------------------------------------------------------------------
    @property
    def coefficients(self) -> np.ndarray:
        """Stitched state coefficients, shape ``(n_states, K * window_m)``."""
        if self._coefficients is None:
            self._coefficients = np.concatenate(
                [res.coefficients for res in self.windows], axis=1
            )
        return self._coefficients

    @property
    def output_coefficients(self) -> np.ndarray:
        """Stitched output coefficients (per-window ``C``/``D`` respected)."""
        if self._output_coefficients is None:
            self._output_coefficients = np.concatenate(
                [res.output_coefficients for res in self.windows], axis=1
            )
        return self._output_coefficients

    # ------------------------------------------------------------------
    # sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_windows

    def __getitem__(self, index) -> SimulationResult:
        return self.windows[index]

    def __iter__(self):
        return iter(self.windows)

    # ------------------------------------------------------------------
    # sampling (global time)
    # ------------------------------------------------------------------
    def _locate(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Split global times into (window index, local time) pairs."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(t < 0.0) or np.any(t > self.t_end * (1 + 1e-12)):
            raise ValueError(f"times must lie in [0, {self.t_end}]")
        idx = np.clip(
            (t / self.window_length).astype(int), 0, self.n_windows - 1
        )
        # clamp round-off overshoot (an accepted global t slightly past
        # t_end must not exceed the last window's own bound check)
        local = np.minimum(t - idx * self.window_length, self.window_length)
        return idx, local

    def _sample(self, method: str, times) -> np.ndarray:
        idx, local = self._locate(times)
        if idx.size == 0:
            return getattr(self.windows[0], method)(local)
        out = None
        for k in np.unique(idx):
            mask = idx == k
            values = getattr(self.windows[k], method)(local[mask])
            if out is None:
                out = np.empty((values.shape[0], idx.size))
            out[:, mask] = values
        return out

    def states(self, times) -> np.ndarray:
        """Sample the stitched state trajectory at global times."""
        return self._sample("states", times)

    def outputs(self, times) -> np.ndarray:
        """Sample the stitched output trajectory at global times."""
        return self._sample("outputs", times)

    def states_smooth(self, times) -> np.ndarray:
        """Smooth state reconstruction at global times.

        Midpoint-linear (second-order) interpolation over the stitched
        grid for block-pulse windows (Walsh/Haar windows convert to
        block-pulse coordinates and take the same path); exact
        per-window basis synthesis for spectral window bases.
        """
        if self._window_grid is None:
            return self._sample("states", times)
        # interpolating across the global midpoint sequence (rather than
        # window by window) keeps the reconstruction continuous across
        # window boundaries, like a single-window solve of the horizon
        return _interpolate_rows(
            self._stitched_block_pulse(self.coefficients), self.midpoints, times
        )

    def outputs_smooth(self, times) -> np.ndarray:
        """Smooth output reconstruction at global times (see :meth:`states_smooth`)."""
        if self._window_grid is None:
            return self._sample("outputs", times)
        return _interpolate_rows(
            self._stitched_block_pulse(self.output_coefficients), self.midpoints, times
        )

    def sample_times(self, n_points: int | None = None) -> np.ndarray:
        """Global midpoints (default) or ``n_points`` equispaced times."""
        if n_points is None:
            return self.midpoints
        return _midpoint_times(self.t_end, n_points)

    def terminal_state(self) -> np.ndarray:
        """Estimate of ``x(t_end)`` from the last window.

        Second-order extrapolation of the block-pulse averages (see
        :func:`terminal_state_estimate`); exact basis synthesis at the
        window edge for smooth window bases.  Useful for chaining
        marches or seeding a follow-on simulation.
        """
        last = self.windows[-1]
        if isinstance(last.basis, PiecewiseConstantBasis):
            return terminal_state_estimate(
                last.basis.to_block_pulse_coefficients(last.coefficients)
            )
        if last.grid is None:
            return last.states([last.basis.t_end])[:, 0]
        return terminal_state_estimate(last.coefficients)

    def __repr__(self) -> str:
        return (
            f"MarchingResult(K={self.n_windows}, n={self.n_states}, "
            f"m={self.window_m}/window, t_end={self.t_end:g}, "
            f"wall_time={self.wall_time})"
        )
