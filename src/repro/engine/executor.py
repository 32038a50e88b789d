"""Parallel ensemble execution: many pencils across cores.

The paper's cost model makes one fact central: the expensive,
input-independent work is *per circuit configuration* (one pencil
factorisation, amortised over every column and call).  Monte-Carlo
tolerance analysis and corner sweeps invert the workload shape the rest
of the engine optimises for -- instead of one pencil and many
right-hand sides, they present *many pencils*, each with a handful of
inputs.  That unit (factorise one configuration, sweep its inputs) is
embarrassingly parallel, and this module shards it across cores:

* :class:`Ensemble` -- an ordered list of :class:`EnsembleMember`
  ``(system, u)`` work items, with a :meth:`Ensemble.variations`
  constructor that builds cartesian / Monte-Carlo parameter variations
  of a netlist from one MNA stamping pass
  (:class:`~repro.circuits.mna.MnaPattern`): every member is a fill of
  the base circuit's pattern with its own element values.  Monte-Carlo
  draws are made eagerly in the parent from
  ``numpy.random.default_rng(seed)`` -- the member list is therefore
  bit-identical regardless of ``jobs`` or executor backend.
* :class:`ParallelExecutor` -- ``backend='process' | 'serial'`` with
  ``jobs=N`` workers, in a pool created on the first run and reused by
  later ones until :meth:`ParallelExecutor.close` (or the end of a
  ``with`` block).  Members are grouped by pencil
  fingerprint (:func:`~repro.engine.backends.pencil_fingerprint`), so
  each worker factorises every distinct pencil exactly once and sweeps
  all of that pencil's inputs in one batched multi-RHS call through its
  local :class:`~repro.engine.backends.PencilBank`.  Oversized groups
  (one pencil shared by many members) are split into column shards.
* one way in, one way back -- a process task pickles its units as
  ``(system, U)`` pairs (a member system and its members' projected
  input rows), and the worker solves them in order.  The coefficients
  come back through one parent-owned ``multiprocessing.shared_memory``
  output segment per task, which the parent copies straight into the
  batch and unlinks as the task completes, on success and on failure
  alike.  Only where ``/dev/shm`` is unusable are they pickled back.
* :meth:`ParallelExecutor.run` is the one entry point: it gathers every
  member into one member-ordered
  :class:`~repro.core.result.BatchResult`.  A failing member does not
  stop its siblings; once every task has finished it is raised as
  :class:`~repro.errors.EnsembleError` (member indices + original
  exception).

Inputs are projected onto the session basis *in the parent*, so worker
tasks never pickle user callables, and the serial and process backends
consume byte-identical coefficient arrays -- the foundation of the
bit-identical-across-backends guarantee asserted by the benchmark
suite.

Guidance: set ``OMP_NUM_THREADS=1`` when launching many workers, as
oversubscribed BLAS thread pools otherwise thrash the cores the workers
need.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..basis.base import BasisSet
from ..core.lti import DescriptorSystem
from ..core.result import BatchResult
from ..errors import EnsembleError
from .backends import pencil_fingerprint
from .reduction import OffsetDescriptorSystem, bind_reduction
# eager, so forked pool workers inherit the whole solve stack instead of
# importing it again on their first task
from .session import Simulator

__all__ = [
    "Ensemble",
    "EnsembleMember",
    "ParallelExecutor",
    "EXECUTOR_BACKENDS",
    "default_jobs",
]

#: Executor backends accepted by :class:`ParallelExecutor`.
EXECUTOR_BACKENDS = ("process", "serial")


def default_jobs() -> int:
    """Default worker count: the machine's usable CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _is_int(value) -> bool:
    """A JSON integer: ``int`` (numpy included) but never ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _limit_worker_blas() -> None:
    """Best-effort single-threaded BLAS inside a worker process.

    Environment variables only help libraries loaded after the fork;
    ``threadpoolctl`` (when installed) also caps pools that are already
    live.  Either way this is advisory -- the README documents setting
    ``OMP_NUM_THREADS=1`` before launching many-worker runs.
    """
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, "1")
    try:  # pragma: no cover - optional dependency
        import threadpoolctl

        threadpoolctl.threadpool_limits(1)
    except Exception:
        pass


# ----------------------------------------------------------------------
# ensemble specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EnsembleMember:
    """One unit of ensemble work: a system plus the input driving it.

    Attributes
    ----------
    system:
        A :class:`~repro.core.lti.DescriptorSystem` /
        :class:`~repro.core.lti.FractionalDescriptorSystem` /
        :class:`~repro.core.lti.MultiTermSystem` model.
    u:
        Input specification (anything :meth:`repro.Simulator.run`
        accepts), or ``None`` to use the executor-level default input.
    label:
        Human-readable member name (``"R1=952.3,C2=1.04e-06"`` for
        netlist variations).
    params:
        The parameter overrides that produced this member (empty for
        explicit ``(system, u)`` members).
    """

    system: Any
    u: Any = None
    label: str | None = None
    params: Mapping[str, float] = field(default_factory=dict)


def _spread_bounds(nominal: float, spec) -> tuple[float, float]:
    """The ``(low, high)`` range of one Monte-Carlo spread specification.

    ``spec`` is either a relative half-width ``s`` in ``(0, 1)``
    (uniform in ``[nominal (1 - s), nominal (1 + s)]``) or an absolute
    ``(low, high)`` pair.
    """
    if np.isscalar(spec):
        s = float(spec)
        if not 0.0 < s < 1.0:
            raise EnsembleError(
                f"relative Monte-Carlo spread must lie in (0, 1), got {s!r}"
            )
        return nominal * (1.0 - s), nominal * (1.0 + s)
    low, high = (float(spec[0]), float(spec[1]))
    if not low < high:
        raise EnsembleError(f"Monte-Carlo range must satisfy low < high, got {spec!r}")
    return low, high


def _member_label(params: Mapping[str, float]) -> str:
    return ",".join(f"{name}={value:.6g}" for name, value in params.items())


class Ensemble:
    """Ordered collection of :class:`EnsembleMember` work items.

    Build one explicitly from ``(system, u)`` pairs /
    :class:`EnsembleMember` objects, or from a base netlist with
    :meth:`variations` (cartesian corner sweeps and seeded Monte-Carlo
    tolerance analysis over MNA element values).

    Examples
    --------
    >>> from repro.circuits import Netlist
    >>> base = Netlist.from_spice('''
    ... I1 0 n1 1m
    ... R1 n1 0 1k
    ... C1 n1 0 1u
    ... ''')
    >>> corners = Ensemble.variations(base, {"R1": [900.0, 1100.0],
    ...                                      "C1": [0.9e-6, 1.1e-6]})
    >>> len(corners), corners[0].label
    (4, 'R1=900,C1=9e-07')
    >>> mc = Ensemble.variations(base, {"R1": 0.1}, mode="monte-carlo",
    ...                          n=8, seed=42)
    >>> len(mc), len(set(m.params["R1"] for m in mc))
    (8, 8)
    """

    def __init__(self, members: Iterable) -> None:
        resolved: list[EnsembleMember] = []
        for item in members:
            if isinstance(item, EnsembleMember):
                resolved.append(item)
            elif isinstance(item, tuple) and len(item) == 2:
                resolved.append(EnsembleMember(system=item[0], u=item[1]))
            else:
                raise EnsembleError(
                    "ensemble members must be EnsembleMember objects or "
                    f"(system, u) pairs, got {type(item).__name__}"
                )
        if not resolved:
            raise EnsembleError("an ensemble requires at least one member")
        self.members = resolved

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[EnsembleMember]:
        return iter(self.members)

    def __getitem__(self, index: int) -> EnsembleMember:
        return self.members[index]

    def __repr__(self) -> str:
        return f"Ensemble(k={len(self.members)})"

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def variations(
        cls,
        base,
        params: Mapping[str, Any],
        *,
        mode: str = "cartesian",
        n: int | None = None,
        seed: int | None = None,
        u=None,
        outputs=None,
        sparse: str = "auto",
        ic=None,
    ) -> "Ensemble":
        """Parameter variations of a base netlist.

        The base netlist is stamped once
        (:class:`~repro.circuits.mna.MnaPattern`) and every member is one
        fill of that pattern with its own element values, so all
        members share the base's node, branch and state layout by
        construction, and each member's system is bit-identical to
        assembling ``base.with_values(member.params)``.  Member values
        pass the element records' own checks (a non-positive
        resistance raises the same :class:`~repro.errors.NetlistError`
        as :meth:`~repro.circuits.netlist.Netlist.with_values`).

        Parameters
        ----------
        base:
            The nominal :class:`~repro.circuits.netlist.Netlist`.
        params:
            ``mode='cartesian'``: element name -> explicit sequence of
            absolute values; members are the cartesian product in
            dict-insertion order.  ``mode='monte-carlo'``: element name
            -> relative half-width ``s`` in ``(0, 1)`` (uniform in
            ``nominal * [1 - s, 1 + s]``) or absolute ``(low, high)``
            pair.
        n:
            Number of Monte-Carlo members (required for
            ``mode='monte-carlo'``).
        seed:
            Seed of the parent-side ``numpy.random.default_rng``.  The
            member list depends only on ``(params, n, seed)`` -- never
            on ``jobs`` or the executor backend -- so a seeded ensemble
            is exactly reproducible, serial or parallel.  All values
            are drawn in one member-major ``uniform`` call.
        u:
            Optional shared input override; by default every member is
            driven by the deck's source waveforms
            (``base.input_function()``, one function shared by all).
        outputs:
            Optional node names forwarded to the MNA assembler (member
            outputs become those node voltages).
        sparse:
            Storage mode forwarded to
            :func:`~repro.circuits.mna.assemble_mna`.
        ic:
            Optional initial node voltages forwarded to the assembler
            (pass ``base.analysis.ic`` to honour the deck's ``.ic``
            card); every member starts from them.
        """
        from ..circuits.components import kind_of
        from ..circuits.mna import MnaPattern

        if not params:
            raise EnsembleError("variations requires at least one parameter")
        if mode not in ("cartesian", "monte-carlo"):
            raise EnsembleError(
                f"mode must be 'cartesian' or 'monte-carlo', got {mode!r}"
            )
        names = list(params)
        nominal = base.element_values()
        if mode == "cartesian":
            if n is not None:
                raise EnsembleError("n= is only meaningful for mode='monte-carlo'")
            grids = []
            for name in names:
                values = params[name]
                if np.isscalar(values):
                    raise EnsembleError(
                        f"cartesian values for {name!r} must be a sequence; "
                        "use mode='monte-carlo' for spread specifications"
                    )
                grids.append([float(v) for v in values])
            combos = list(itertools.product(*grids))
            if not combos:
                return cls([])  # raises: an ensemble needs a member
            if any(name not in nominal for name in names):
                base.with_values(dict(zip(names, combos[0])))  # raises, naming them
            drawn = np.array(combos, dtype=float)
        else:
            if n is None or int(n) < 1:
                raise EnsembleError("mode='monte-carlo' requires n >= 1 members")
            for name in names:
                if name not in nominal:
                    raise EnsembleError(
                        f"unknown element {name!r}; base netlist has "
                        f"{sorted(nominal)}"
                    )
            bounds = [_spread_bounds(nominal[name], params[name]) for name in names]
            low, high = np.array(bounds, dtype=float).T
            # member-major: the stream per-member scalar draws would use
            drawn = np.random.default_rng(seed).uniform(
                low, high, size=(int(n), len(names))
            )
        rule_of = {
            el.name: kind_of(el).rule for el in (*base.elements, *base.couplings)
        }
        valid = np.ones(len(drawn), dtype=bool)
        for column, name in enumerate(names):
            valid &= rule_of[name].valid(drawn[:, column])
        if not valid.all():
            # the element records raise the precise error for the first
            # offending member
            base.with_values(dict(zip(names, drawn[np.argmin(valid)].tolist())))

        pattern = MnaPattern(base, outputs, sparse=sparse, ic=ic)
        slot = {name: i for i, name in enumerate(pattern.names)}
        values = np.repeat(pattern.nominal[None, :], len(drawn), axis=0)
        values[:, [slot[name] for name in names]] = drawn
        systems = pattern.fill(values)
        member_u = u if u is not None else base.input_function()
        overrides = [dict(zip(names, row)) for row in drawn.tolist()]
        return cls(
            EnsembleMember(
                system=system,
                u=member_u,
                label=_member_label(member_params),
                params=member_params,
            )
            for system, member_params in zip(systems, overrides)
        )

    @classmethod
    def from_spec(
        cls, base, spec: Mapping[str, Any], *, outputs=None, ic=None
    ) -> "Ensemble":
        """Build variations from a JSON-style specification mapping.

        The CLI's ``--ensemble spec.json`` accepts::

            {"mode": "monte-carlo", "n": 64, "seed": 7,
             "params": {"R1": 0.2, "C1": [0.9e-6, 1.1e-6]}}

        ``mode`` defaults to ``'cartesian'``; unknown keys raise, and so
        do JSON values of the wrong type: ``n`` must be a positive
        integer, ``seed`` a non-negative integer or ``null``, ``outputs``
        a list of node names.  An explicit ``outputs=`` argument (the CLI's
        ``--outputs``) wins over the spec's ``"outputs"`` entry; ``ic``
        is forwarded to :meth:`variations`.
        """
        allowed = {"mode", "n", "seed", "params", "outputs"}
        unknown = set(spec) - allowed
        if unknown:
            raise EnsembleError(
                f"unknown ensemble spec keys {sorted(unknown)}; "
                f"allowed keys are {sorted(allowed)}"
            )
        if "params" not in spec or not isinstance(spec["params"], Mapping):
            raise EnsembleError(
                "ensemble spec requires a 'params' mapping of element "
                "name -> values/spread"
            )
        n, seed = spec.get("n"), spec.get("seed")
        if n is not None and (not _is_int(n) or n < 1):
            raise EnsembleError(
                f"ensemble spec 'n' must be a positive integer, got {n!r}"
            )
        if seed is not None and (not _is_int(seed) or seed < 0):
            raise EnsembleError(
                "ensemble spec 'seed' must be a non-negative integer or null, "
                f"got {seed!r}"
            )
        spec_outputs = spec.get("outputs")
        if spec_outputs is not None and not (
            isinstance(spec_outputs, list)
            and all(isinstance(name, str) for name in spec_outputs)
        ):
            raise EnsembleError(
                "ensemble spec 'outputs' must be a list of node names, "
                f"got {spec_outputs!r}"
            )
        return cls.variations(
            base,
            spec["params"],
            mode=spec.get("mode", "cartesian"),
            n=n,
            seed=seed,
            outputs=outputs if outputs is not None else spec_outputs,
            ic=ic,
        )


# ----------------------------------------------------------------------
# task planning
# ----------------------------------------------------------------------
#: Load-balance granularity: the planner packs pencil groups into about
#: ``jobs * TASKS_PER_WORKER`` tasks, so per-task overheads (pickling the
#: task, one output segment, a pool round-trip) amortise over several
#: groups while stragglers can still be balanced across workers.
TASKS_PER_WORKER = 2


@dataclass
class _Task:
    """One worker work item: a bundle of pencil-group *units*.

    Each unit is a ``(system, U)`` pair -- one fingerprint group, or a
    column shard of one, with its members' projected input rows -- that
    the worker factorises once and sweeps in a single batched multi-RHS
    call.  The process backend pickles the whole task.  ``out_name``
    names the parent-owned segment the worker writes each unit's
    coefficients into, at the ``(shape, offset)`` of ``out_manifest``;
    without one (serial backend, no usable ``/dev/shm``) the
    coefficients come back as arrays.
    """

    units: list[tuple[Any, np.ndarray]]
    basis: BasisSet
    session_kwargs: dict
    out_name: str | None = None
    out_manifest: list[tuple[tuple[int, ...], int]] = field(default_factory=list)


def _plan_units(
    members: Sequence[EnsembleMember], jobs: int
) -> tuple[list[tuple[tuple[int, ...], Any]], int]:
    """Group members by pencil fingerprint, then shard oversized groups.

    Returns ``(units, n_groups)`` where each unit is a
    ``(member_indices, system)`` tuple.  The plan is deterministic
    (first appearance of each fingerprint; shards in member order) and
    depends only on ``jobs`` -- never on the executor backend -- so
    serial and parallel executions batch the very same multi-RHS
    solves.
    """
    groups: dict[tuple, list[int]] = {}
    systems: dict[tuple, Any] = {}
    for index, member in enumerate(members):
        system = member.system
        if isinstance(system, DescriptorSystem):
            # the full solve configuration must match, not just the
            # pencil: members differing only in B (a varied source
            # scale) or x0 must NOT share a group, or they would all be
            # solved against the first member's system
            offset = (
                system.offset
                if isinstance(system, OffsetDescriptorSystem)
                else None
            )
            key = (
                type(system).__name__,
                float(getattr(system, "alpha", 1.0)),
                pencil_fingerprint(system.E, system.A),
                pencil_fingerprint(system.B),
                None if system.x0 is None else system.x0.tobytes(),
                None if offset is None else offset.tobytes(),
            )
        else:  # multi-term and friends: conservative identity grouping
            key = ("id", id(system))
        groups.setdefault(key, []).append(index)
        systems.setdefault(key, system)
    target = max(1, math.ceil(len(members) / max(1, jobs)))
    units: list[tuple[tuple[int, ...], Any]] = []
    for key, indices in groups.items():
        for start in range(0, len(indices), target):
            shard = tuple(indices[start : start + target])
            units.append((shard, systems[key]))
    return units, len(groups)


def _pack_units(units: list, jobs: int) -> list[list]:
    """Distribute units contiguously over about ``jobs * 2`` tasks.

    Deterministic and backend-independent: only the *grouping into
    tasks* changes with ``jobs``, never the per-unit batched solves, so
    results stay bit-identical across backends and worker counts.
    """
    n_tasks = min(len(units), max(1, jobs) * TASKS_PER_WORKER)
    base, extra = divmod(len(units), n_tasks)
    packed: list[list] = []
    start = 0
    for t in range(n_tasks):
        size = base + (1 if t < extra else 0)
        packed.append(units[start : start + size])
        start += size
    return packed


def _alloc_shm(shapes: Sequence[tuple[int, ...]]):
    """One new shared-memory segment of float64 arrays, returned as
    ``(shm, manifest)`` with one ``(shape, offset)`` entry per shape
    (64-byte aligned).  It reads as zeros unwritten, so its pages stay
    out of this process's memory until touched.  The parent owns and
    unlinks it.
    """
    from multiprocessing import shared_memory

    align = 64
    manifest: list[tuple[tuple[int, ...], int]] = []
    total = 0
    for shape in shapes:
        manifest.append((shape, total))
        total += -(-8 * math.prod(shape) // align) * align
    return shared_memory.SharedMemory(create=True, size=max(total, 1)), manifest


def _attach_shm(name: str):
    """Attach to a parent-owned segment, resource-tracker-safely.

    Python >= 3.13 supports ``track=False``: the worker attaches
    without registering the segment at all (the parent owns and unlinks
    it).  On older versions the worker's attach re-registers the name
    with the resource tracker it shares with the parent -- a set
    insert, deduplicated against the parent's own registration -- so
    the parent's single ``unlink()`` still balances the books.  Never
    ``unregister`` manually here: that would strip the *parent's*
    entry from the shared tracker and make its later unlink double-free
    the registration.
    """
    from multiprocessing import shared_memory

    try:  # Python >= 3.13
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _execute_task(task: _Task) -> list[tuple[str, Any]]:
    """Worker body: per unit, factorise the system once and sweep ``U``.

    Runs inline (serial) or in a worker process.  Returns one
    ``(status, value)`` entry per unit: ``("ok", (X, factorisations))``
    -- ``X`` is ``None`` when the coefficients went into the output
    segment -- or ``("error", exception)`` for a unit whose solve
    failed (its siblings still complete).
    """
    out = _attach_shm(task.out_name) if task.out_name is not None else None
    try:
        results: list[tuple[str, Any]] = []
        for ui, (system, U) in enumerate(task.units):
            try:
                sim = Simulator(system, task.basis, **task.session_kwargs)
                X = sim.sweep(list(U)).coefficients
            except Exception as exc:  # noqa: BLE001 - reported per unit
                results.append(("error", exc))
                continue
            if out is not None:
                shape, offset = task.out_manifest[ui]
                view = np.ndarray(
                    shape, dtype=np.float64, buffer=out.buf, offset=offset
                )
                view[...] = X
                X = view = None  # no view may outlive the mapping
            else:
                # detach from worker-local buffers before pickling
                X = np.ascontiguousarray(X)
            results.append(("ok", (X, sim.factorisations)))
        return results
    finally:
        if out is not None:
            out.close()


def _pool_usable(pool) -> bool:
    """False once a pool broke, shut down, or lost a worker process."""
    if getattr(pool, "_broken", False) or getattr(pool, "_shutdown_thread", False):
        return False
    workers = getattr(pool, "_processes", None) or {}
    return all(worker.is_alive() for worker in list(workers.values()))


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
class ParallelExecutor:
    """Sharded multi-core execution of circuit ensembles.

    Parameters
    ----------
    backend:
        ``'process'`` (default) -- a ``ProcessPoolExecutor`` that
        scales the Python-loop-heavy column sweep across cores.
        ``'serial'`` -- run the very same task plan inline in
        submission order (the baseline the benchmarks compare against).
    jobs:
        Worker count (default: the usable CPU count).  The task plan
        depends on ``jobs`` but not on ``backend``, so
        ``ParallelExecutor('serial', jobs=8)`` performs bit-identical
        arithmetic to ``ParallelExecutor('process', jobs=8)``.

    The process pool starts on the first :meth:`run` and serves
    every later run; a pool that lost a worker is replaced on the next
    run.  :meth:`close` (or leaving a ``with`` block) shuts it down and
    waits for the workers to exit.

    Examples
    --------
    >>> from repro.core import DescriptorSystem
    >>> rc = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])
    >>> ens = Ensemble([(rc, 1.0), (rc, 2.0)])
    >>> with ParallelExecutor("serial") as executor:
    ...     result = executor.run(ens, (5.0, 64))
    >>> len(result), result.info["n_groups"]
    (2, 1)
    """

    def __init__(self, backend: str = "process", jobs: int | None = None) -> None:
        if backend not in EXECUTOR_BACKENDS:
            raise EnsembleError(
                f"executor backend must be one of {EXECUTOR_BACKENDS}, "
                f"got {backend!r}"
            )
        if jobs is not None and int(jobs) < 1:
            raise EnsembleError(f"jobs must be >= 1, got {jobs}")
        self.backend = backend
        self.jobs = int(jobs) if jobs is not None else default_jobs()
        #: Names of every shared-memory segment this executor created
        #: (tests assert they are all unlinked after a run).
        self.shm_names_created: list[str] = []
        self._pool: Any = None

    # ------------------------------------------------------------------
    def run(
        self,
        ensemble,
        grid,
        *,
        basis=None,
        u=None,
        solver_backend: str = "auto",
        reduce=None,
        memory="exact",
    ) -> BatchResult:
        """Execute every member and gather one member-ordered batch.

        Each task's rows are copied into the batch's ``(k, n, m)``
        state and ``(k, p, m)`` input tensors as the task completes --
        straight from its shared-memory output segment, which is then
        unlinked.  Members with different state sizes share a tensor
        padded to the largest.

        Parameters
        ----------
        ensemble:
            An :class:`Ensemble`, or any iterable of ``(system, u)``
            pairs / :class:`EnsembleMember` objects.
        grid:
            Shared time grid: a :class:`~repro.basis.grid.TimeGrid`,
            ``(t_end, m)`` tuple, or a ready
            :class:`~repro.basis.base.BasisSet` instance.
        basis:
            Basis family name / instance shared by every member (see
            :class:`~repro.engine.session.Simulator`); an instance
            carries its input projection rule.
        u:
            Default input for members whose ``u`` is ``None``.
        memory:
            ``'exact'``, ``'soe'`` or an
            :class:`~repro.fractional.soe.SoePlan` (which carries the
            tolerance), forwarded to each worker's session.
        solver_backend:
            Dense/sparse pencil-backend mode (``'auto'`` default) --
            distinct from the executor's own process/serial backend.
        reduce:
            Reduction specification (``'auto'`` / moment count /
            :class:`~repro.engine.reduction.ReductionPlan`).  The
            parent reduces each pencil-fingerprint group once, ships
            the small reduced pencils to the workers, and lifts the
            returned coefficients back to full order -- workers never
            see ``reduce``.

        Returns
        -------
        BatchResult
            The members in ensemble order with their own systems,
            ``labels`` (``'member-<i>'`` when unnamed) and ``params``;
            ``result[i]`` is member ``i``'s
            :class:`~repro.core.result.SimulationResult`, a view into
            the batch.  ``info["shm_bytes"]`` counts the coefficient
            bytes that came back through shared memory.

        Raises
        ------
        EnsembleError
            If any member failed, once every other task has finished.
            The error records the failing member indices / label and
            chains the first original worker exception.
        """
        from .inputs import project_input
        from .session import _resolve_session_basis

        start = time.perf_counter()
        if not isinstance(ensemble, Ensemble):
            ensemble = Ensemble(ensemble)
        basis_obj = _resolve_session_basis(grid, basis)
        # workers receive the fully resolved basis instance as the grid
        # spec, so every accepted (grid, basis) flavour ships the same
        # way and the worker session is exactly the parent's (memory
        # settings ride along so a compressed parent never silently
        # shards into exact-memory workers)
        session_kwargs = {"backend": solver_backend, "memory": memory}

        # project every input in the parent (workers never see
        # callables), each distinct input object once
        projected: list[np.ndarray] = []
        projections: dict[tuple[int, int], np.ndarray] = {}
        for index, member in enumerate(ensemble):
            member_u = member.u if member.u is not None else u
            if member_u is None:
                raise EnsembleError(
                    f"ensemble member {index} has no input; give the member "
                    "a u or pass a default to run(..., u=...)"
                )
            key = (id(member_u), member.system.n_inputs)
            if key not in projections:
                projections[key] = project_input(member_u, basis_obj, key[1])
            projected.append(projections[key])

        units, n_groups = _plan_units(ensemble.members, self.jobs)
        # reduction happens HERE, in the parent, once per fingerprint
        # group (the reduced-model cache dedupes shards of one group):
        # workers receive only the small reduced pencils, and the parent
        # lifts the coefficients on return
        plan = [(indices, system, None) for indices, system in units]
        if reduce is not None:
            for i, (indices, system, _) in enumerate(plan):
                model, _ = bind_reduction(
                    system, reduce, t_end=basis_obj.t_end, m=basis_obj.size
                )
                if model is not None:
                    plan[i] = (indices, model.solve_system, model)
        models = [model for *_, model in plan if model is not None]
        lift_ones = project_input(1.0, basis_obj, 1)[0] if models else None
        packed = _pack_units(plan, self.jobs)

        systems = [member.system for member in ensemble]
        k, m = len(systems), basis_obj.size
        X = np.zeros((k, max(s.n_states for s in systems), m))
        U = np.zeros((k, max(s.n_inputs for s in systems), m))
        tasks = [
            _Task(
                [
                    (system, np.stack([projected[i] for i in indices]))
                    for indices, system, _ in task_units
                ],
                basis_obj,
                session_kwargs,
            )
            for task_units in packed
        ]
        segments: dict[int, Any] = {}
        if self.backend == "process":
            for task_id, task_units in enumerate(packed):
                # reduced units return n_r-state blocks: the lift back
                # to full order happens parent-side on completion
                shapes = [
                    (len(idx), system.n_states, m) for idx, system, _ in task_units
                ]
                try:
                    shm, tasks[task_id].out_manifest = _alloc_shm(shapes)
                except (OSError, ValueError):  # no usable /dev/shm: pickle back
                    continue
                segments[task_id] = shm
                tasks[task_id].out_name = shm.name
                self.shm_names_created.append(shm.name)

        failures: list[tuple[int, str | None, BaseException]] = []
        factorisations = shm_bytes = 0
        try:
            for task_id, outcome in self._outcomes(tasks):
                task_units, task = packed[task_id], tasks[task_id]
                if isinstance(outcome, BaseException):  # the whole task failed
                    outcome = [("error", outcome)] * len(task_units)
                for ui, (status, value) in enumerate(outcome):
                    indices, _, model = task_units[ui]
                    if status == "error":
                        # the whole unit failed together: every member of
                        # the batched solve is unaccounted for
                        for idx in indices:
                            failures.append((idx, ensemble[idx].label, value))
                        continue
                    coeffs, unit_factorisations = value
                    factorisations += unit_factorisations
                    if coeffs is None:  # written into the output segment
                        shape, offset = task.out_manifest[ui]
                        coeffs = np.ndarray(
                            shape,
                            dtype=np.float64,
                            buffer=segments[task_id].buf,
                            offset=offset,
                        )
                        shm_bytes += coeffs.nbytes
                    if model is not None:
                        # lift the reduced shifted coefficients back to
                        # full order: x = V z + x0 (deterministic
                        # parent-side GEMM, so serial and process stay
                        # bit-identical)
                        coeffs = np.einsum("nr,krm->knm", model.V, coeffs)
                        x0 = model.full.x0
                        if x0 is not None:
                            coeffs += x0[None, :, None] * lift_ones[None, None, :]
                    inputs = task.units[ui][1]
                    X[list(indices), : coeffs.shape[1]] = coeffs
                    U[list(indices), : inputs.shape[1]] = inputs
                    coeffs = None  # no view may outlive the mapping
                if task_id in segments:
                    shm = segments.pop(task_id)
                    shm.close()
                    shm.unlink()
        finally:
            # failure-proof cleanup: any segment not yet unlinked
            for shm in segments.values():
                shm.close()
                shm.unlink()
        if failures:
            index, label, exc = failures[0]
            detail = f" ({label})" if label else ""
            more = (
                f" (+{len(failures) - 1} more failed member(s))"
                if len(failures) > 1
                else ""
            )
            raise EnsembleError(
                f"ensemble member {index}{detail} failed: {exc}{more}",
                member_indices=tuple(sorted(i for i, _, _ in failures)),
            ) from exc
        info = {
            "executor": self.backend,
            "jobs": self.jobs,
            "n_groups": n_groups,
            "n_tasks": len(tasks),
            "factorisations": factorisations,
            "shm_bytes": shm_bytes,
            "basis": basis_obj.name,
        }
        if models:
            info["mor"] = {
                "reduced_units": len(models),
                "bound": max(model.bound for model in models),
            }
        return BatchResult(
            basis_obj,
            X,
            systems,
            U,
            labels=[
                member.label if member.label is not None else f"member-{i}"
                for i, member in enumerate(ensemble)
            ],
            params=[member.params for member in ensemble],
            wall_time=time.perf_counter() - start,
            info=info,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _outcomes(self, tasks: list[_Task]) -> Iterator[tuple[int, Any]]:
        """Yield ``(task_id, results)`` as tasks finish -- in submission
        order inline, in completion order on the pool -- with the
        exception in place of the results when a whole task failed."""
        if self.backend == "serial":
            for task_id, task in enumerate(tasks):
                try:
                    yield task_id, _execute_task(task)
                except Exception as exc:  # noqa: BLE001 - reported per member
                    yield task_id, exc
            return
        pool = self._live_pool()
        futures = {pool.submit(_execute_task, task): i for i, task in enumerate(tasks)}
        try:
            for future in as_completed(futures):
                exc = future.exception()
                yield futures[future], exc if exc is not None else future.result()
        finally:
            # a run abandoned early leaves no queued work on the pool
            for future in futures:
                future.cancel()

    def _live_pool(self):
        """The executor's worker pool: created on first use, then reused.

        A pool that broke or lost a worker since the last run is shut
        down and replaced, so one killed worker costs one failed run at
        most, never the executor.
        """
        pool = self._pool
        if pool is not None and not _pool_usable(pool):
            self.close()
            pool = None
        if pool is None:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_limit_worker_blas
            )
            self._pool = pool
        return pool

    def close(self) -> None:
        """Shut the worker pool down and wait for its workers to exit.

        Safe to call twice; a later :meth:`run` starts a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
