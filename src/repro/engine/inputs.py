"""Input normalisation and basis projection (paper eq. (11)).

Users hand solvers an input ``u`` in one of three forms -- a callable,
a coefficient array, or a scalar -- and callables themselves come in
several return-shape dialects (scalar broadcast, ``(nt,)``, ``(1, nt)``,
``(p, nt)``).  This module is the single place those dialects are
reconciled:

* :func:`normalise_input_callable` wraps any accepted callable into the
  canonical ``u(times) -> (n_inputs, len(times))`` form by inspecting
  the shape of what it *returns* -- the callable is never probed at
  ``t = 0`` (or anywhere else outside the projection quadrature), so
  waveforms undefined at isolated points work as long as the quadrature
  nodes avoid them;
* :func:`project_input` maps any accepted input form to the coefficient
  matrix ``U`` of shape ``(n_inputs, m)``;
* :func:`scaled_input` scales any accepted input form by a factor (the
  members of a ``--sweep`` or a service sweep).

Every solver and the :class:`~repro.engine.session.Simulator` session
route through these two helpers, so all entry points accept exactly the
same input dialects.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..basis.base import BasisSet
from ..basis.block_pulse import BlockPulseBasis
from ..errors import ModelError

__all__ = ["normalise_input_callable", "project_input", "scaled_input"]


def normalise_input_callable(u: Callable, n_inputs: int) -> Callable:
    """Wrap ``u`` so it always returns a ``(n_inputs, len(times))`` array.

    Accepted return shapes of the original callable, for ``times`` of
    length ``nt``:

    * a scalar (``0-d``) -- broadcast to every channel and time;
    * ``(nt,)`` -- one waveform, broadcast to every channel;
    * ``(1, nt)`` -- likewise;
    * ``(n_inputs, nt)`` -- taken as-is.

    Anything else raises :class:`~repro.errors.ModelError` *at
    evaluation time* (with the offending shape in the message), so the
    callable is never probed speculatively.
    """
    if not callable(u):
        raise TypeError(f"u must be callable, got {type(u).__name__}")

    def wrapped(times, _u=u, _p=n_inputs):
        t = np.atleast_1d(np.asarray(times, dtype=float))
        values = np.asarray(_u(t), dtype=float)
        if values.ndim == 0:
            return np.full((_p, t.size), float(values))
        if values.ndim == 1:
            if values.size != t.size:
                raise ModelError(
                    f"input callable returned {values.size} values for "
                    f"{t.size} times"
                )
            return np.broadcast_to(values, (_p, t.size))
        if values.ndim == 2:
            if values.shape == (_p, t.size):
                return values
            if values.shape == (1, t.size):
                return np.broadcast_to(values, (_p, t.size))
            raise ModelError(
                f"input callable must return ({_p}, {t.size}) values, "
                f"got shape {values.shape}"
            )
        raise ModelError(
            f"input callable returned a {values.ndim}-D array; expected "
            f"scalar, 1-D, or 2-D"
        )

    return wrapped


def project_input(u, basis: BasisSet, n_inputs: int) -> np.ndarray:
    """Project an input specification onto the basis (paper eq. (11)).

    Accepted forms:

    * a callable ``u(times)`` in any dialect understood by
      :func:`normalise_input_callable`, projected with the basis'
      quadrature rule;
    * an array of coefficients with shape ``(p, m)`` (or ``(m,)`` for
      ``p = 1``), taken as-is;
    * a scalar, meaning a constant (step) input on every channel.

    Returns the coefficient matrix ``U`` of shape ``(p, m)``.
    """
    m = basis.size
    if callable(u):
        return basis.project_vector(normalise_input_callable(u, n_inputs), n_inputs)
    if np.isscalar(u):
        # constants project exactly in every basis here; block pulses and
        # Walsh/Haar in particular represent them without quadrature noise
        value = float(u)
        if isinstance(basis, BlockPulseBasis):
            return np.full((n_inputs, m), value)
        const = basis.project(lambda t: np.full_like(t, value, dtype=float))
        return np.tile(const, (n_inputs, 1))
    u_arr = np.asarray(u, dtype=float)
    if u_arr.ndim == 1:
        if n_inputs != 1:
            raise ModelError(
                f"1-D input coefficients require a single-input system, got p={n_inputs}"
            )
        u_arr = u_arr.reshape(1, -1)
    if u_arr.shape != (n_inputs, m):
        raise ModelError(
            f"input coefficients must have shape ({n_inputs}, {m}), got {u_arr.shape}"
        )
    return u_arr


def scaled_input(u, scale: float):
    """The input ``u`` (callable, scalar or coefficients) scaled by a factor.

    A unit factor returns ``u`` itself; callables are wrapped lazily,
    so the waveform is still evaluated only at projection time.
    """
    if scale == 1.0:
        return u
    if callable(u):
        def scaled(times, _u=u, _s=scale):
            return _s * np.asarray(_u(times))

        return scaled
    if np.isscalar(u):
        return float(u) * scale
    return np.asarray(u, dtype=float) * scale
