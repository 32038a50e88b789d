"""Walsh-function basis.

The Walsh functions are the +-1-valued orthogonal family the paper
singles out in section I: "a set of low- to high-frequency basis
functions", useful when only the overall trend of the response matters.
With ``m = 2^k`` terms they are exactly the rows of an ``m x m``
Hadamard matrix applied to the block-pulse vector.

Two orderings are provided:

* ``'hadamard'`` (natural ordering) -- rows of the Sylvester-recursive
  Hadamard matrix;
* ``'sequency'`` (Walsh ordering, default) -- rows sorted by the number
  of sign changes, so index ``i`` behaves like "frequency ``i``"; this
  is the ordering that makes truncation act as a low-pass filter, the
  property the paper alludes to.
"""

from __future__ import annotations

import numpy as np

from ..errors import BasisError
from .pwconst import PiecewiseConstantBasis

__all__ = ["WalshBasis", "hadamard_matrix", "sequency_order"]


def hadamard_matrix(m: int) -> np.ndarray:
    """Sylvester-construction Hadamard matrix of order ``m`` (power of two).

    ``H_1 = [1]``, ``H_{2n} = [[H_n, H_n], [H_n, -H_n]]``; symmetric with
    ``H H^T = m I``.
    """
    if m < 1 or (m & (m - 1)) != 0:
        raise BasisError(f"Hadamard order must be a power of two, got {m}")
    h = np.array([[1.0]])
    while h.shape[0] < m:
        h = np.block([[h, h], [h, -h]])
    return h


def sequency_order(matrix: np.ndarray) -> np.ndarray:
    """Reorder Hadamard rows by sequency (number of sign changes).

    Returns the row-permuted matrix whose row ``i`` has exactly ``i``
    sign changes -- the classical Walsh ordering.
    """
    changes = np.count_nonzero(np.diff(matrix, axis=1), axis=1)
    order = np.argsort(changes, kind="stable")
    return matrix[order]


class WalshBasis(PiecewiseConstantBasis):
    """Walsh functions on ``[0, t_end)`` with ``m = 2^k`` terms.

    Parameters
    ----------
    t_end:
        Span of the basis.
    m:
        Number of terms; must be a power of two.
    ordering:
        ``'sequency'`` (default) or ``'hadamard'``.

    Examples
    --------
    >>> import numpy as np
    >>> basis = WalshBasis(1.0, 4)
    >>> np.asarray(basis.transform, dtype=int)
    array([[ 1,  1,  1,  1],
           [ 1,  1, -1, -1],
           [ 1, -1, -1,  1],
           [ 1, -1,  1, -1]])
    """

    def __init__(
        self, t_end: float, m: int, *, ordering: str = "sequency", projection: str = "average"
    ) -> None:
        if ordering not in ("sequency", "hadamard"):
            raise BasisError(f"ordering must be 'sequency' or 'hadamard', got {ordering!r}")
        self._ordering = ordering
        super().__init__(t_end, m, projection=projection)

    def _build_transform(self, m: int) -> np.ndarray:
        h = hadamard_matrix(m)
        if self._ordering == "sequency":
            return sequency_order(h)
        return h

    @property
    def ordering(self) -> str:
        return self._ordering

    @property
    def name(self) -> str:
        return f"Walsh[{self._ordering}]"
