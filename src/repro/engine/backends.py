"""Linear-algebra backends for the simulation engine.

The OPM column sweep reduces every solver in this package to the same
two primitives: factorise a shifted pencil ``sigma E - A`` and apply
the factorisation to right-hand sides.  This module isolates those
primitives behind a small backend protocol so the rest of the engine is
storage-agnostic:

* :class:`DenseBackend` -- LAPACK LU (:func:`scipy.linalg.lu_factor`),
  best for small or genuinely dense systems;
* :class:`SparseBackend` -- SuperLU (:func:`scipy.sparse.linalg.splu`),
  keeps large ladder / power-grid MNA models ``scipy.sparse``
  end-to-end, never densifying the pencil;
* :func:`select_backend` -- automatic choice from the system's size and
  fill ratio (the paper's complexity analysis assumes ``O(n)`` nonzeros
  for circuit matrices, which is exactly when the sparse backend wins);
* :class:`PencilBank` -- the factorisation cache shared by every sweep:
  one LU per distinct shift ``sigma``, reused across columns, calls,
  and batched multi-RHS sweeps.

Shifts are real for the differential-form sweeps and complex for the
Schur-rotated integral form (the eigenvalues of a spectral integration
matrix); a complex shift factorises a complex pencil, a real one keeps
real arithmetic.

Both backends solve blocks of right-hand sides in one call
(``rhs`` of shape ``(n, k)``), which is what makes the engine's batched
multi-input sweep one ``lu_solve`` per column for *all* inputs.
"""

from __future__ import annotations

import abc
import threading
import warnings
from collections import OrderedDict

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from ..errors import SingularPencilError, SolverError

__all__ = [
    "DenseBackend",
    "SparseBackend",
    "PencilBank",
    "select_backend",
    "matrix_density",
    "pencil_fingerprint",
    "handle_nbytes",
]

#: Systems with at least this many states are eligible for the sparse
#: backend under ``mode='auto'`` (below it, dense LAPACK wins on
#: factorisation *and* per-column solve overhead).
SPARSE_SIZE_THRESHOLD = 128

#: Maximum fill ratio (nonzeros / n^2, over E and A together) at which
#: ``mode='auto'`` picks the sparse backend.
SPARSE_DENSITY_THRESHOLD = 0.25


def matrix_density(matrix) -> float:
    """Fill ratio ``nnz / n^2`` of a dense or scipy-sparse square matrix.

    Counts *actual* nonzero values: the matrix is canonicalised first,
    so explicitly stored zeros and duplicate entries that sum to zero
    (both routine in incrementally stamped COO circuit matrices) do not
    inflate the ratio.  Without the canonicalisation an ``E`` stamped
    with explicit zeros and an ``A`` stamped clean would be probed
    inconsistently and could flip the ``auto`` dense/sparse decision.
    """
    n = matrix.shape[0]
    if n == 0:
        return 0.0
    if sp.issparse(matrix):
        # CSR conversion sums duplicates; count_nonzero then skips any
        # stored zeros (cancelled duplicates included)
        nnz = int(matrix.tocsr().count_nonzero())
    else:
        nnz = int(np.count_nonzero(matrix))
    return nnz / float(n * n)


class PencilBackend(abc.ABC):
    """Storage-specific pencil operations ``sigma E - A``.

    Subclasses fix the storage format of ``E`` and ``A`` and implement
    factorisation and (multi-RHS) substitution.  Instances are cheap
    value objects; the expensive state (LU factors) lives in
    :class:`PencilBank`.
    """

    #: Short human-readable backend name (``'dense'`` / ``'sparse'``).
    name: str = "abstract"

    @property
    @abc.abstractmethod
    def n(self) -> int:
        """State dimension (number of pencil rows)."""

    @abc.abstractmethod
    def factorize(self, sigma: complex):
        """Factorise the shifted pencil ``sigma E - A`` (real or complex
        ``sigma``).

        Returns an opaque handle for :meth:`solve`.

        Raises
        ------
        SingularPencilError
            If the pencil is exactly singular.
        """

    @abc.abstractmethod
    def solve(self, handle, rhs: np.ndarray) -> np.ndarray:
        """Apply a factorisation to one (``(n,)``) or many (``(n, k)``)
        right-hand sides in a single substitution call."""

    def column_solver(self, handle):
        """Bound substitution callable for tight per-column sweeps.

        Returns a function ``rhs -> x`` over a captured factorisation
        handle.  Backends may shed per-call validation (the caller owns
        the finite check for the whole sweep), but the arithmetic must
        stay bit-identical to :meth:`solve`.
        """
        return lambda rhs: self.solve(handle, rhs)

    @abc.abstractmethod
    def apply_E(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector/matrix product ``E @ x`` (used by history tails)."""


def _raise_singular(sigma: complex, exc: Exception):
    raise SingularPencilError(
        f"shifted pencil sigma*E - A is singular at sigma={sigma:g}; "
        "for circuit models this usually means a structural defect -- "
        "a floating node, no conductive path to ground, or a missing "
        "ground reference -- run the graph lint "
        "(CircuitGraph(netlist).lint(), or `python -m repro --lint deck.cir`) "
        "to see the offending nodes and elements"
    ) from exc


class DenseBackend(PencilBackend):
    """LAPACK-LU backend over dense ``numpy`` storage.

    Sparse inputs are densified on construction; use
    :func:`select_backend` to avoid that for large sparse models.
    """

    name = "dense"

    def __init__(self, E, A) -> None:
        self.E = E.toarray() if sp.issparse(E) else np.asarray(E, dtype=float)
        self.A = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)

    @property
    def n(self) -> int:
        """State dimension (number of pencil rows)."""
        return self.E.shape[0]

    def factorize(self, sigma: complex):
        """LU-factorise ``sigma E - A`` via :func:`scipy.linalg.lu_factor`."""
        pencil = sigma * self.E - self.A
        try:
            with warnings.catch_warnings():
                # scipy only *warns* on an exactly singular LU; promote
                # that to the typed error the finite-check would raise
                # anyway
                warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                return scipy.linalg.lu_factor(pencil)
        except (
            RuntimeError,
            ValueError,
            scipy.linalg.LinAlgError,
            scipy.linalg.LinAlgWarning,
        ) as exc:
            _raise_singular(sigma, exc)

    def solve(self, handle, rhs: np.ndarray) -> np.ndarray:
        """Back/forward substitution for ``(n,)`` or ``(n, k)`` right-hand sides."""
        return scipy.linalg.lu_solve(handle, rhs)

    def column_solver(self, handle):
        """Direct ``getrs`` substitution with the LAPACK routine bound
        once -- ``lu_solve`` minus its per-call wrapper and finite
        check, bit-identical output (same routine, same arguments)."""
        lu, piv = handle
        (getrs,) = scipy.linalg.get_lapack_funcs(("getrs",), (lu,))

        def solve(rhs: np.ndarray) -> np.ndarray:
            x, info = getrs(lu, piv, rhs)
            if info != 0:
                raise SolverError(
                    f"LU substitution failed with LAPACK info={info}"
                )
            return x

        return solve

    def apply_E(self, x: np.ndarray) -> np.ndarray:
        """Dense product ``E @ x``."""
        return self.E @ x


class SparseBackend(PencilBackend):
    """SuperLU backend over ``scipy.sparse`` CSC storage.

    The pencil is assembled and factorised without ever densifying, so
    banded / mesh MNA models keep their ``O(n)`` storage end-to-end.
    """

    name = "sparse"

    def __init__(self, E, A) -> None:
        self.E = sp.csc_matrix(E)
        self.A = sp.csc_matrix(A)

    @property
    def n(self) -> int:
        """State dimension (number of pencil rows)."""
        return self.E.shape[0]

    def factorize(self, sigma: complex):
        """Sparse-LU-factorise ``sigma E - A`` via :func:`scipy.sparse.linalg.splu`."""
        import scipy.sparse.linalg as spla  # dense-only runs never load it

        pencil = (sigma * self.E - self.A).tocsc()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", spla.MatrixRankWarning)
                return spla.splu(pencil)
        except (RuntimeError, ValueError, spla.MatrixRankWarning) as exc:
            _raise_singular(sigma, exc)

    def solve(self, handle, rhs: np.ndarray) -> np.ndarray:
        """SuperLU substitution for ``(n,)`` or ``(n, k)`` right-hand sides."""
        return handle.solve(rhs)

    def column_solver(self, handle):
        """SuperLU substitution bound to the handle, no wrapper layer."""
        return handle.solve

    def apply_E(self, x: np.ndarray) -> np.ndarray:
        """Sparse product ``E @ x`` (dense result)."""
        return self.E @ x


def select_backend(E, A, *, mode: str = "auto") -> PencilBackend:
    """Choose a pencil backend for the system matrices ``E``, ``A``.

    Parameters
    ----------
    E, A:
        Square system matrices, dense ndarray or scipy sparse.
    mode:
        ``'auto'`` -- sparse backend for systems with at least
        :data:`SPARSE_SIZE_THRESHOLD` states whose combined fill ratio
        is at most :data:`SPARSE_DENSITY_THRESHOLD` (regardless of the
        *storage* the caller happened to use); dense otherwise.
        ``'dense'`` / ``'sparse'`` force that backend.

    Returns
    -------
    PencilBackend
        A :class:`DenseBackend` or :class:`SparseBackend`.

    Raises
    ------
    SolverError
        For any other ``mode``.

    Examples
    --------
    >>> select_backend(np.eye(3), -np.eye(3)).name
    'dense'
    >>> type(select_backend(np.eye(3), -np.eye(3), mode="sparse")).__name__
    'SparseBackend'
    """
    if mode == "dense":
        return DenseBackend(E, A)
    if mode == "sparse":
        return SparseBackend(E, A)
    if mode != "auto":
        raise SolverError(
            f"backend mode must be 'auto', 'dense' or 'sparse', got {mode!r}"
        )
    n = E.shape[0]
    density = 0.5 * (matrix_density(E) + matrix_density(A))
    if n >= SPARSE_SIZE_THRESHOLD and density <= SPARSE_DENSITY_THRESHOLD:
        return SparseBackend(E, A)
    return DenseBackend(E, A)


def pencil_fingerprint(E, A=None) -> tuple:
    """Content-based key identifying the pencil pair ``(E, A)``.

    Two pencils with equal entries (in the same storage format) map to
    the same fingerprint, so re-stamping a previously seen circuit
    configuration (a switch toggled back open, say) reuses its cached
    factorisations instead of adding a new stamp.  Pass a single matrix
    to fingerprint it alone.
    """

    def one(matrix) -> tuple:
        if matrix is None:
            return ("none",)
        if sp.issparse(matrix):
            csr = matrix.tocsr()
            return (
                "sparse",
                csr.shape,
                csr.data.tobytes(),
                csr.indices.tobytes(),
                csr.indptr.tobytes(),
            )
        arr = np.ascontiguousarray(matrix, dtype=float)
        return ("dense", arr.shape, arr.tobytes())

    return (one(E), one(A))


def handle_nbytes(handle, n: int) -> int:
    """Estimated resident bytes of one factorisation handle.

    Covers the two handle species the backends produce -- a dense
    ``(lu, piv)`` pair and a SuperLU object (``L``/``U`` CSC factors
    plus the two permutation vectors) -- with a dense ``n^2`` float64
    fallback for anything unrecognised, so the byte accounting errs on
    the safe (large) side.
    """
    if isinstance(handle, tuple):  # scipy.linalg.lu_factor: (lu, piv)
        return int(sum(getattr(part, "nbytes", 0) for part in handle))
    L, U = getattr(handle, "L", None), getattr(handle, "U", None)
    if L is not None and U is not None:  # SuperLU
        total = 0
        for factor in (L, U):
            for name in ("data", "indices", "indptr"):
                total += int(getattr(getattr(factor, name, None), "nbytes", 0))
        return total + 2 * n * np.dtype(np.intc).itemsize  # perm_r, perm_c
    return n * n * np.dtype(float).itemsize


class PencilBank:
    """Bounded LRU factorisation cache for shifted pencils ``sigma E - A``.

    Wraps a :class:`PencilBackend` and memoises one factorisation per
    distinct ``(pencil stamp, shift)`` pair.  The shift key is the exact
    (real or complex) value of ``sigma``; adaptive controllers that reuse a ladder
    of step sizes (h, h/2, 2h, ...) hit the cache on every revisited
    step size, and a warm :class:`~repro.engine.session.Simulator`
    session hits it on every call.

    A bank starts with one *stamp* -- the backend it was built over.
    Mid-run events that change the system matrices (switch closures,
    load steps) register a new backend via :meth:`restamp`; every stamp
    keeps its factorisations, so toggling between circuit
    configurations re-factorises nothing after the first visit.

    By default the cache is unbounded (the classic single-session
    behaviour: a handful of shifts, each expensive to recompute).
    Long-lived processes -- the ``serve`` daemon above all -- bound it
    with ``max_entries`` / ``max_bytes`` (see :meth:`limit`): least
    recently *used* factorisations are evicted first, byte usage is
    tracked per handle (:func:`handle_nbytes`), and :attr:`hits` /
    :attr:`misses` / :attr:`evictions` counters make the hit-rate
    observable.  The bank is thread-safe: one internal lock serialises
    cache mutation, stamp switching, and the solve itself, so
    concurrent sessions sharing a bank cannot corrupt it or factorise
    against a stale stamp.
    """

    def __init__(
        self,
        backend: PencilBackend,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        self.backend = backend
        self._cache: OrderedDict[tuple[int, complex], object] = OrderedDict()
        self._handle_bytes: dict[tuple[int, complex], int] = {}
        self._backends: list[PencilBackend] = [backend]
        self._stamp_keys: dict[tuple, int] = {
            pencil_fingerprint(backend.E, backend.A): 0
        }
        self._stamp = 0
        self._lock = threading.RLock()
        self._factorisations = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._nbytes = 0
        self.limit(max_entries=max_entries, max_bytes=max_bytes)

    # ------------------------------------------------------------------
    # bounds and accounting
    # ------------------------------------------------------------------
    def limit(
        self, *, max_entries: int | None = None, max_bytes: int | None = None
    ) -> "PencilBank":
        """(Re)bound the cache; evicts immediately if already over.

        ``None`` leaves the corresponding bound unlimited.  Returns
        ``self`` for chaining.
        """
        if max_entries is not None and int(max_entries) < 1:
            raise SolverError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and int(max_bytes) < 0:
            raise SolverError(f"max_bytes must be >= 0, got {max_bytes}")
        with self._lock:
            self.max_entries = None if max_entries is None else int(max_entries)
            self.max_bytes = None if max_bytes is None else int(max_bytes)
            self._evict(keep=None)
        return self

    def _over_budget(self) -> bool:
        if self.max_entries is not None and len(self._cache) > self.max_entries:
            return True
        return self.max_bytes is not None and self._nbytes > self.max_bytes

    def _evict(self, keep: tuple[int, complex] | None) -> None:
        """Drop least-recently-used handles until within budget.

        The handle named by ``keep`` (the one about to be returned to a
        caller) is never evicted, even when it alone exceeds
        ``max_bytes`` -- a bound can shrink the cache, not refuse the
        solve in flight.
        """
        while self._over_budget():
            oldest = next(iter(self._cache))
            if oldest == keep:
                if len(self._cache) == 1:
                    break
                self._cache.move_to_end(oldest)
                oldest = next(iter(self._cache))
                if oldest == keep:  # pragma: no cover - single survivor
                    break
            self._cache.pop(oldest)
            self._nbytes -= self._handle_bytes.pop(oldest, 0)
            self._evictions += 1

    @property
    def factorisations(self) -> int:
        """Number of pencil factorisations performed so far (monotone:
        an evicted-then-revisited shift counts again)."""
        return self._factorisations

    @property
    def entries(self) -> int:
        """Number of factorisations currently resident in the cache."""
        return len(self._cache)

    @property
    def nbytes(self) -> int:
        """Estimated resident bytes of all cached factorisations."""
        return self._nbytes

    @property
    def hits(self) -> int:
        """Solves served from a cached factorisation."""
        return self._hits

    @property
    def misses(self) -> int:
        """Solves that had to factorise first."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Factorisations dropped by the LRU bound so far."""
        return self._evictions

    def stats(self) -> dict:
        """Cache counters as one dict (the ``serve`` stats endpoint)."""
        with self._lock:
            return {
                "entries": len(self._cache),
                "nbytes": self._nbytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "factorisations": self._factorisations,
                "stamps": len(self._backends),
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
            }

    @property
    def is_warm(self) -> bool:
        """True once at least one factorisation has been cached."""
        return bool(self._cache)

    @property
    def stamps(self) -> int:
        """Number of distinct pencils registered (1 + re-stamps to new matrices)."""
        return len(self._backends)

    @property
    def stamp(self) -> int:
        """Index of the currently active pencil stamp."""
        return self._stamp

    @property
    def cached_shifts(self) -> list[tuple[int, complex]]:
        """Resident ``(stamp, sigma)`` keys, least recently used first."""
        with self._lock:
            return list(self._cache)

    def restamp(self, backend: PencilBackend) -> int:
        """Switch the bank to a (possibly new) pencil; returns its stamp index.

        A pencil whose matrices fingerprint-match a previously
        registered stamp reactivates that stamp -- and its cached
        factorisations -- instead of registering a new one.
        """
        key = pencil_fingerprint(backend.E, backend.A)
        with self._lock:
            stamp = self._stamp_keys.get(key)
            if stamp is None:
                stamp = len(self._backends)
                self._backends.append(backend)
                self._stamp_keys[key] = stamp
            self._stamp = stamp
            self.backend = self._backends[stamp]
            return stamp

    def use(self, stamp: int) -> None:
        """Reactivate a previously registered stamp by index.

        Used to restore the bank's base configuration after a scoped
        excursion (an eventful march must not leave the session solving
        against the event pencil).
        """
        with self._lock:
            if not 0 <= stamp < len(self._backends):
                raise SolverError(
                    f"unknown pencil stamp {stamp}; bank has {len(self._backends)}"
                )
            self._stamp = stamp
            self.backend = self._backends[stamp]

    def apply_E(self, x: np.ndarray) -> np.ndarray:
        """Product ``E @ x`` through the active backend (history-tail helper)."""
        return self.backend.apply_E(x)

    def _handle(self, sigma: complex):
        """The active stamp's factorisation at ``sigma`` (caller holds
        the lock): a hit refreshes its LRU slot, a miss factorises,
        records its bytes and evicts down to the bounds."""
        key = (self._stamp, sigma)
        handle = self._cache.get(key)
        if handle is not None:
            self._hits += 1
            self._cache.move_to_end(key)
            return handle
        self._misses += 1
        handle = self.backend.factorize(sigma)
        self._factorisations += 1
        self._cache[key] = handle
        self._handle_bytes[key] = handle_nbytes(handle, self.backend.n)
        self._nbytes += self._handle_bytes[key]
        self._evict(keep=key)
        return handle

    def solve(self, sigma: complex, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(sigma E - A) x = rhs``, factorising at most once per
        ``(stamp, sigma)`` while it stays resident.

        ``rhs`` may be a single vector ``(n,)`` or a block ``(n, k)``;
        blocks are substituted in one backend call.  The whole solve
        runs under the bank lock, so a concurrent :meth:`restamp`
        cannot swap the active pencil out from under the substitution.
        """
        with self._lock:
            out = self.backend.solve(self._handle(sigma), rhs)
        if not np.isfinite(out).all():
            raise SingularPencilError(
                f"pencil solve at sigma={sigma:g} produced non-finite values "
                "(singular or extremely ill-conditioned pencil); for circuit "
                "models, run the graph lint (CircuitGraph(netlist).lint()) "
                "to check for floating nodes or a missing ground reference"
            )
        return out

    def solver(self, sigma: complex):
        """Bound fast-path solver for one shift: ``rhs -> x``.

        Resolves the ``(stamp, sigma)`` factorisation once (counting a
        single bank hit or miss) and returns the backend's
        :meth:`~PencilBackend.column_solver` over it, so tight column
        sweeps pay neither the bank lock nor the handle lookup per
        column.  The caller owns the finite check for the whole sweep
        (one reduction over the result block instead of one per
        column); the closure keeps the handle alive even if the LRU
        evicts it mid-sweep, and a concurrent restamp cannot swap the
        pencil under a sweep that already bound its solver.
        """
        with self._lock:
            return self.backend.column_solver(self._handle(sigma))
