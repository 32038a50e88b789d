"""Column-sweep kernels for the OPM matrix equation.

The paper's key computational observation (end of sections III-A and
IV) is that the operational matrix is upper triangular, so the matrix
equation

.. math::  E X D = A X + R    \\qquad (R = B U)

never needs the ``nm x nm`` Kronecker solve of eq. (15)/(27).  Writing
``d_{ij}`` for the entries of ``D``, column ``j`` of the equation reads

.. math::

    (d_{jj} E - A)\\, x_j = r_j - E \\sum_{i<j} d_{ij}\\, x_i ,

a sequence of ``m`` shifted-pencil solves over a
:class:`~repro.engine.backends.PencilBank`, which caches one
factorisation per shift ``sigma = d_{jj}``.  With a constant step there
is exactly one factorisation, matching the paper's claim that OPM costs
roughly one transient-analysis sweep.  Three accumulation strategies:

* ``toeplitz`` (:func:`sweep_toeplitz`) -- uniform grids:
  ``d_{ij} = c_{j-i}`` with ``c`` the first-row coefficients; tail
  accumulated by an O(n j) dot product per column, total
  ``O(n^beta m + n m^2)`` -- the paper's fractional cost;
* ``alternating`` (``sweep_toeplitz(..., alternating_tail=True)``) --
  first order (``alpha = 1``): the tail
  ``sum_{i<j} (-1)^{j-i} 2 x_i`` obeys the O(n) recurrence
  ``t_j = x_{j-1} - t_{j-1}``, total ``O(n^beta m)`` -- the paper's
  linear-system cost, on par with trapezoidal/Gear;
* ``general`` (:func:`sweep_general`) -- adaptive grids (paper eqs.
  (18), (25)-(27)): arbitrary upper-triangular ``D`` with per-column
  diagonal, one cached factorisation per distinct diagonal value.

The integral form ``E Z - A Z F = S`` (spectral bases, the method zoo)
has a full ``F``; in its real Schur coordinates ``F = Q T Q^T``
(:func:`schur_form`) it is the block-triangular ``E W - A W T = S Q``,
swept by :func:`sweep_integral` with one shift per real eigenvalue or
conjugate pair.  The rotated Kronecker operator is block triangular
with diagonal blocks ``E - lambda A`` (per eigenvalue), so the sweep is
singular exactly when the Kronecker solve is.

The engine's extension is **batched right-hand sides**: every kernel
accepts ``R`` of shape ``(n, m)`` (one input) or ``(n, m, k)`` (``k``
stacked inputs) and returns ``X`` of the same shape.  In the batched
form each column step performs a single multi-RHS substitution for
all ``k`` inputs -- one ``lu_solve`` per column for the whole sweep,
which is what makes :meth:`repro.engine.session.Simulator.sweep`
dramatically cheaper than a loop of single-input runs.

The first-order (alternating-tail) sweep -- every integer-order
block-pulse run -- works *time-major*: it copies ``R`` into an
``(m, n, k)`` block so that column ``j`` is one contiguous ``(n, k)``
row, runs the recurrence over contiguous rows of an ``(m, n, k)``
solution block, and transposes once at the end into a C-contiguous
``(n, m, k)`` result.  The arithmetic and its order are those of the
column-strided loop, so results are bit-identical; only the memory
layout changed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..errors import SolverError
from .backends import PencilBank

__all__ = [
    "sweep_toeplitz",
    "sweep_general",
    "sweep_integral",
    "sweep_multiterm",
    "schur_form",
    "is_upper_triangular",
]


def _as_batched(R) -> tuple:
    """Return ``R`` as ``(n, m, k)`` plus a flag to squeeze the result."""
    R = np.asarray(R, dtype=float)
    if R.ndim == 2:
        return R[:, :, None], True
    if R.ndim == 3:
        return R, False
    raise SolverError(f"R must be 2-D or 3-D, got ndim={R.ndim}")


def _tail_dot(X, j: int, weights):
    """Weighted history sum ``sum_{i<j} w_i x_i`` for all batch members.

    ``X`` is ``(n, m, k)``; ``weights`` has length ``j`` and is applied
    to the solved columns ``x_0 .. x_{j-1}`` in order (Toeplitz callers
    pass the reversed coefficient slice ``(c_j, ..., c_1)``, the general
    sweep passes ``D[:j, j]`` directly).  Returns ``(n, k)``.
    """
    if X.shape[2] == 1:
        # single-input fast path: plain GEMV on a 2-D view
        return (X[:, :j, 0] @ weights)[:, None]
    return np.einsum("njk,j->nk", X[:, :j, :], weights)


def sweep_toeplitz(
    bank: PencilBank,
    R: np.ndarray,
    coeffs: np.ndarray,
    *,
    alternating_tail: bool = False,
) -> np.ndarray:
    """Solve ``E X T = A X + R`` for upper-triangular Toeplitz ``T``.

    Parameters
    ----------
    bank:
        Pencil factorisation cache over the system's backend.
    R:
        Right-hand side, ``(n, m)`` or batched ``(n, m, k)``.
    coeffs:
        First-row coefficients ``(c_0, ..., c_{m-1})`` of ``T``.
    alternating_tail:
        Activate the O(n)-per-column recurrence valid when the tail
        coefficients satisfy ``c_k = -c_{k-1}`` for ``k >= 2`` (the
        first-order pattern); verified defensively.

    Returns
    -------
    numpy.ndarray
        Solution coefficients with the same shape as ``R``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    m = coeffs.size
    R3, squeeze = _as_batched(R)
    n, k = R3.shape[0], R3.shape[2]
    if R3.shape[1] != m:
        shape = tuple(R3.shape[:2]) if squeeze else tuple(R3.shape)
        raise SolverError(f"R must be (n, {m}), got {shape}")
    if alternating_tail and m > 2:
        tail = coeffs[1:]
        if not np.allclose(tail[1:], -tail[:-1], rtol=1e-12, atol=0.0):
            raise SolverError(
                "alternating_tail requested but coefficients do not alternate"
            )
    sigma = float(coeffs[0])

    # one bank lookup for the whole sweep: the bound solver skips the
    # lock, the handle lookup and the per-column finite check (done
    # once over the full block below) without changing the arithmetic
    solve = bank.solver(sigma)
    apply_E = bank.backend.apply_E
    if alternating_tail:
        X = _sweep_alternating(solve, apply_E, R3, coeffs[1] if m > 1 else 0.0)
    else:
        X = np.empty((n, m, k), dtype=R3.dtype)
        # reversed-coefficient copy so the per-column tail weights
        # (c_j, ..., c_1) are positive-step *contiguous* slices: a
        # negative-stride GEMV operand forces numpy off the fast BLAS
        # path (~3x slower per column)
        rev = np.ascontiguousarray(coeffs[::-1])
        for j in range(m):
            if j == 0:
                rhs = R3[:, 0, :]
            else:
                # s_j = sum_{i=1..j} c_i x_{j-i}
                s = _tail_dot(X, j, rev[m - 1 - j : m - 1])
                rhs = R3[:, j, :] - apply_E(s)
            X[:, j, :] = solve(rhs)
    if not np.isfinite(X).all():
        raise SolverError(
            f"pencil solve at sigma={sigma:g} produced non-finite values "
            "(singular or extremely ill-conditioned pencil)"
        )
    return X[:, :, 0] if squeeze else X


def _sweep_alternating(solve, apply_E, R3, c1: float):
    """First-order (alternating-tail) sweep over time-major blocks.

    ``tail_j = sum_{i<j} c_{j-i} x_i = c_1 * t_j`` with
    ``t_j = x_{j-1} - t_{j-1}`` (the paper's first-order pattern), so
    each column costs one ``E`` product and one substitution.  The
    recurrence reads and writes contiguous ``(n, k)`` rows of
    ``(m, n, k)`` copies of ``R`` and ``X``; the result is a
    C-contiguous ``(n, m, k)`` block.
    """
    n, m, k = R3.shape
    Rt = np.empty((m, n, k), dtype=R3.dtype)
    Rt[...] = np.moveaxis(R3, 1, 0)
    Xt = np.empty((m, n, k), dtype=R3.dtype)
    t = np.zeros((n, k), dtype=R3.dtype)
    for j in range(m):
        if j == 0:
            rhs = Rt[0]
        else:
            t = Xt[j - 1] - t
            rhs = Rt[j] - c1 * apply_E(t)
        Xt[j] = solve(rhs)
    X = np.empty((n, m, k), dtype=R3.dtype)
    X[...] = np.moveaxis(Xt, 0, 1)
    return X


def is_upper_triangular(matrix) -> bool:
    """True when ``matrix`` has no entry below the diagonal above
    ``1e-10`` of its largest magnitude (or of 1, if smaller)."""
    matrix = np.asarray(matrix)
    lower = matrix[np.tril_indices(matrix.shape[0], -1)]
    if not lower.size:
        return True
    scale = max(float(np.max(np.abs(matrix))), 1.0)
    return float(np.max(np.abs(lower))) <= 1e-10 * scale


def sweep_general(bank: PencilBank, R: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Solve ``E X D = A X + R`` for a general upper-triangular ``D``.

    Used for adaptive grids where ``D`` is triangular but not Toeplitz
    (paper eqs. (18), (25)-(27)), and for the integral form of an
    upper-triangular operator (:func:`sweep_integral`).  Factorisations
    are cached per distinct diagonal entry in the bank.

    Raises
    ------
    SolverError
        If ``D`` has nonzero entries below the diagonal (the column
        sweep would be invalid) or the shapes disagree.
    """
    D = np.asarray(D, dtype=float)
    m = D.shape[0]
    if D.shape != (m, m):
        raise SolverError(f"D must be square, got {D.shape}")
    R3, squeeze = _as_batched(R)
    n = R3.shape[0]
    if R3.shape[1] != m:
        raise SolverError(f"R must be (n, {m}), got {np.asarray(R).shape}")
    if not is_upper_triangular(D):
        raise SolverError("D must be upper triangular for the column sweep")

    X = np.empty((n, m, R3.shape[2]))
    for j in range(m):
        if j == 0:
            rhs = R3[:, 0, :]
        else:
            # D's column j weights the solved columns 0..j-1 directly
            # (by index, not by lag), so no coefficient reversal here
            s = _tail_dot(X, j, D[:j, j])
            rhs = R3[:, j, :] - bank.apply_E(s)
        X[:, j, :] = bank.solve(float(D[j, j]), rhs)
    return X[:, :, 0] if squeeze else X


def schur_form(F) -> tuple:
    """``(T, Q)`` with ``F = Q T Q^T``: the real Schur form, or
    ``(F, None)`` (``Q = I``) when ``F`` is upper triangular."""
    F = np.asarray(F, dtype=float)
    if is_upper_triangular(F):
        return F, None
    return scipy.linalg.schur(F)


def sweep_integral(
    bank: PencilBank, S: np.ndarray, T: np.ndarray, Q: np.ndarray | None
) -> np.ndarray:
    """Solve ``E Z - A Z F = S`` for ``F = Q T Q^T`` (:func:`schur_form`).

    ``bank`` is built over the swapped pencil ``(-A, -E)``, whose
    shift-``t`` factorisation is ``E - t A``.  With ``W = Z Q``, diagonal
    block ``J`` of ``T`` reads ``E W_J - A W_J T_JJ = (S Q)_J + A sum_{I<J}
    W_I T_IJ``: a 1x1 block is one real solve, a 2x2 block (a conjugate
    pair) one complex solve for ``z = w_1 + mu w_2``.
    """
    if Q is None:
        return sweep_general(bank, S, T)
    S3, squeeze = _as_batched(S)
    n, m, k = S3.shape
    Rt = Q.T @ S3.transpose(1, 0, 2).reshape(m, n * k)  # row j: (S Q)[:, j]
    Wt = np.empty((m, n * k))
    j = 0
    while j < m:
        s = 2 if j + 1 < m and T[j + 1, j] != 0.0 else 1
        B = Rt[j : j + s]
        if j:
            H = (T[:j, j : j + s].T @ Wt[:j]).reshape(s, n, k)
            EH = bank.apply_E(H.transpose(1, 0, 2).reshape(n, s * k))  # -A H
            B = B - EH.reshape(n, s, k).transpose(1, 0, 2).reshape(s, n * k)
        if s == 1:
            Wt[j] = bank.solver(float(T[j, j]))(B[0].reshape(n, k)).ravel()
        else:
            # lambda = a + mu b, with b mu^2 + (a - d) mu - c = 0
            (a, b), (c, d) = T[j : j + 2, j : j + 2]
            root = complex(np.sqrt(complex((a - d) ** 2 + 4.0 * b * c)))
            mu = (d - a + root) / (2.0 * b)
            z = bank.solver(a + mu * b)((B[0] + mu * B[1]).reshape(n, k)).ravel()
            Wt[j + 1] = z.imag / mu.imag
            Wt[j] = z.real - mu.real * Wt[j + 1]
        j += s
    if not np.isfinite(Wt).all():
        raise SolverError(
            "integral sweep produced non-finite values (singular or "
            "extremely ill-conditioned pencil E - t A at a Schur shift)"
        )
    Z = (Q @ Wt).reshape(m, n, k).transpose(1, 0, 2).copy()  # Z = W Q^T
    return Z[:, :, 0] if squeeze else Z


def sweep_multiterm(
    bank: PencilBank,
    R: np.ndarray,
    first_terms: list,
    second_terms: list,
    slow_terms: list,
    h: float,
) -> np.ndarray:
    """Column sweep for multi-term systems ``sum_k M_k X D^{alpha_k} = R``.

    ``bank`` must be built over the pencil sum ``P = sum_k c^(k)_0 M_k``
    (with ``A = 0``), so ``bank.solve(1.0, rhs)`` applies ``P^{-1}``.
    Integer orders 1 and 2 use O(n)-per-column alternating recurrences
    (``first_terms`` / ``second_terms`` are their matrices); every other
    positive order pays the paper's O(n j) dot product per column
    (``slow_terms`` is a list of ``(matrix, coeffs)`` pairs).

    With the alternating history sums (over the solved columns
    ``x_0 .. x_{j-1}``)

    .. math::

        A_{j-1} = \\sum_{i>=1} (-1)^{i-1} x_{j-i}, \\qquad
        B_j = \\sum_{i>=1} (-1)^i i\\, x_{j-i}

    the order-1 tail is ``-(4/h) A_{j-1}`` and the order-2 tail is
    ``4 (2/h)^2 B_j`` (see :mod:`repro.core.highorder`).

    Accepts batched ``R`` like the other kernels.
    """
    R3, squeeze = _as_batched(R)
    n, m, k = R3.shape
    uses_alt = bool(first_terms or second_terms)
    scale1 = 4.0 / h
    scale2 = 4.0 * (2.0 / h) ** 2

    X = np.empty((n, m, k))
    solve = bank.solver(1.0)
    alt_a = np.zeros((n, k))  # A_{j-1}
    alt_b = np.zeros((n, k))  # B_{j-1}
    for j in range(m):
        rhs = R3[:, j, :].copy()
        if uses_alt:
            b_j = -(alt_b + alt_a)  # B_j, from history only
        if j > 0:
            for matrix in first_terms:
                # rhs -= M s^(1) with s^(1) = -(4/h) A_{j-1}
                rhs += scale1 * (matrix @ alt_a)
            for matrix in second_terms:
                rhs -= scale2 * (matrix @ b_j)
            for matrix, coeffs in slow_terms:
                # negative-step slice kept on purpose: integer orders
                # >= 3 have huge alternating weights whose history sum
                # lives on cancellation -- preserve the summation order
                s = _tail_dot(X, j, coeffs[j:0:-1])
                rhs -= matrix @ s
        X[:, j, :] = solve(rhs)
        if uses_alt:
            alt_b = b_j
            alt_a = X[:, j, :] - alt_a
    if not np.isfinite(X).all():
        raise SolverError(
            "pencil solve at sigma=1 produced non-finite values "
            "(singular or extremely ill-conditioned pencil)"
        )
    return X[:, :, 0] if squeeze else X
