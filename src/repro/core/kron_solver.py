"""Dense Kronecker-product reference solver (paper eqs. (15), (18), (27)).

The paper writes the OPM equation in vectorised form

.. math::

    \\left( (D^{\\alpha})^T \\otimes E - I_m \\otimes A \\right)
    \\mathrm{vec}(X) = (I_m \\otimes B)\\, \\mathrm{vec}(U)

and then immediately notes it never needs to be solved directly.  This
module solves it directly anyway: an ``nm x nm`` dense solve that is
exponentially more expensive but algebraically transparent.  It exists
to cross-validate the production column sweep (the test suite asserts
bitwise-close agreement on random systems) and to make the cost gap
measurable in the benchmarks.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from ..basis.block_pulse import BlockPulseBasis
from ..engine.assembly import dense_operator
from ..errors import SolverError
from .lti import DescriptorSystem, MultiTermSystem
from .result import SimulationResult

__all__ = ["simulate_opm_kron"]

#: Refuse dense Kronecker systems larger than this (rows).
MAX_KRON_SIZE = 6000


def _dense(matrix) -> np.ndarray:
    return matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)


def simulate_opm_kron(system, u, grid) -> SimulationResult:
    """Solve the OPM equation via the explicit Kronecker system.

    Accepts the same system types and inputs as
    :func:`repro.core.opm_solver.simulate_opm`; refuses problems with
    ``n * m > MAX_KRON_SIZE`` (this is a reference implementation).
    ``grid`` is a :class:`~repro.basis.grid.TimeGrid`, an ``(t_end,
    m)`` tuple, or a :class:`BlockPulseBasis` carrying its input
    projection rule.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.lti import DescriptorSystem
    >>> from repro.core.opm_solver import simulate_opm
    >>> sys1 = DescriptorSystem([[1.0]], [[-2.0]], [[1.0]])
    >>> fast = simulate_opm(sys1, 1.0, (1.0, 16))
    >>> ref = simulate_opm_kron(sys1, 1.0, (1.0, 16))
    >>> bool(np.allclose(fast.coefficients, ref.coefficients))
    True
    """
    from .opm_solver import _right_hand_side, project_input, resolve_grid

    if isinstance(grid, BlockPulseBasis):
        basis, grid = grid, grid.grid
    else:
        grid = resolve_grid(grid)
        basis = BlockPulseBasis(grid)
    m = grid.m

    if isinstance(system, MultiTermSystem):
        n = system.n_states
        if n * m > MAX_KRON_SIZE:
            raise SolverError(
                f"Kronecker system of size {n * m} exceeds MAX_KRON_SIZE={MAX_KRON_SIZE}"
            )
        U = project_input(u, basis, system.n_inputs)
        R = system.B @ U
        start = time.perf_counter()
        big = np.zeros((n * m, n * m))
        for alpha_k, matrix in system.terms:
            d_alpha = dense_operator(grid, alpha_k)
            big += np.kron(d_alpha.T, _dense(matrix))
        vec_x = np.linalg.solve(big, R.T.reshape(-1))
        X = vec_x.reshape(m, n).T
        wall = time.perf_counter() - start
        return SimulationResult(
            basis, X, system, U, wall_time=wall,
            info={"method": "opm-kron", "size": n * m},
        )

    if not isinstance(system, DescriptorSystem):
        raise TypeError(
            f"system must be a DescriptorSystem or MultiTermSystem, "
            f"got {type(system).__name__}"
        )
    n = system.n_states
    if n * m > MAX_KRON_SIZE:
        raise SolverError(
            f"Kronecker system of size {n * m} exceeds MAX_KRON_SIZE={MAX_KRON_SIZE}"
        )
    U = project_input(u, basis, system.n_inputs)
    R = _right_hand_side(system, U)
    alpha = system.alpha

    start = time.perf_counter()
    d_alpha = dense_operator(grid, alpha)
    big = np.kron(d_alpha.T, _dense(system.E)) - np.kron(np.eye(m), _dense(system.A))
    # vec(X) stacks columns of X: vec_x[j*n:(j+1)*n] = x_j = X[:, j]
    vec_x = np.linalg.solve(big, R.T.reshape(-1))
    X = vec_x.reshape(m, n).T
    if system.x0 is not None:
        X = X + system.x0[:, None]
    wall = time.perf_counter() - start

    return SimulationResult(
        basis, X, system, U, wall_time=wall,
        info={"method": "opm-kron", "size": n * m},
    )
