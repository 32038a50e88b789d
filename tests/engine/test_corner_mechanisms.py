"""Mechanism pins for Monte-Carlo corner runs.

Deterministic counts, no wall clock: a corner ensemble is stamped once
and never rebuilds a netlist per member, its outputs evaluate the basis
at most once, its inputs project once, and the executor's worker pool outlives
a run -- same workers for the next run, a fresh pool after a worker
died, none left once the executor is closed.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

import repro.circuits.mna as mna
import repro.engine.inputs as inputs
from repro.circuits import Netlist, power_grid
from repro.core import DescriptorSystem, simulate
from repro.engine.executor import Ensemble, ParallelExecutor
from repro.engine.netlist_session import simulate_netlist
from repro.engine.session import Simulator

ROOT = Path(__file__).resolve().parents[2]
GRID = (1e-9, 64)


@pytest.fixture(scope="module")
def grid() -> Netlist:
    return power_grid(6, 6, nz=2, seed=3)


def corner_ensemble(grid: Netlist, n: int = 96) -> Ensemble:
    params = {el.name: 0.2 for el in grid.resistors}
    return Ensemble.variations(
        grid, params, mode="monte-carlo", n=n, seed=1, outputs=grid.nodes[:1]
    )


def counting(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so every call is recorded."""
    calls: list = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def live_children() -> set[int]:
    return {process.pid for process in multiprocessing.active_children()}


def dense_system(seed: int, n: int = 80) -> DescriptorSystem:
    """Big enough that the process backend ships it through shared memory."""
    rng = np.random.default_rng(seed)
    B = np.zeros((n, 1))
    B[0, 0] = 1.0
    A = -np.eye(n) + 0.01 * rng.standard_normal((n, n))
    return DescriptorSystem(np.eye(n), A, B)


@pytest.fixture(scope="module")
def shipped() -> Ensemble:
    return Ensemble([(dense_system(seed), 1.0) for seed in range(4)])


# ----------------------------------------------------------------------
# one stamping pass, no per-member rebuilds
# ----------------------------------------------------------------------
class TestOnePassEnsembles:
    def test_one_stamping_pass_per_ensemble(self, grid, monkeypatch):
        passes = counting(monkeypatch, mna.MnaPattern, "__init__")
        assert len(corner_ensemble(grid)) == 96
        assert len(passes) == 1

    def test_no_member_rebuilds_a_netlist(self, grid, monkeypatch):
        rebuilds = counting(monkeypatch, Netlist, "with_values")
        corner_ensemble(grid)
        assert rebuilds == []

    def test_one_projection_per_distinct_input(self, grid, monkeypatch):
        ensemble = corner_ensemble(grid, n=6)
        projections = counting(monkeypatch, inputs, "project_input")
        ParallelExecutor("serial", jobs=2).run(ensemble, GRID)
        assert len(projections) == 1

    def test_outputs_evaluate_the_basis_once(self, grid):
        """A spectral batch evaluates its basis once for every member; a
        block-pulse batch gathers columns and evaluates it not at all."""
        ensemble = corner_ensemble(grid, n=8)
        for basis, spec, evaluations in [(None, GRID, 0), ("chebyshev", (GRID[0], 8), 1)]:
            result = ParallelExecutor("serial", jobs=2).run(ensemble, spec, basis=basis)
            calls = []
            evaluate = result.basis.evaluate
            result.basis.evaluate = lambda times: calls.append(times) or evaluate(times)
            t = result.sample_times()
            assert result.outputs(t).shape == (8, 1, t.size)
            assert len(calls) == evaluations


# ----------------------------------------------------------------------
# a pool that outlives the run
# ----------------------------------------------------------------------
class TestPersistentPool:
    def test_two_runs_share_the_workers(self, shipped):
        before = live_children()
        with ParallelExecutor("process", jobs=2) as executor:
            first = executor.run(shipped, (1.0, 32))
            workers = live_children() - before
            second = executor.run(shipped, (1.0, 32))
            assert live_children() - before == workers
        assert len(workers) == 2
        assert np.array_equal(first.coefficients, second.coefficients)

    def test_killed_worker_is_replaced_on_the_next_run(self, shipped):
        before = live_children()
        serial = ParallelExecutor("serial", jobs=2).run(shipped, (1.0, 32))
        with ParallelExecutor("process", jobs=2) as executor:
            executor.run(shipped, (1.0, 32))
            workers = live_children() - before
            victim = min(workers)
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while victim in live_children():  # reaps the killed worker
                assert time.monotonic() < deadline, "killed worker never exited"
                time.sleep(0.01)
            result = executor.run(shipped, (1.0, 32))
            replacements = live_children() - before
        assert victim not in replacements and len(replacements) == 2
        assert np.array_equal(result.coefficients, serial.coefficients)
        for name in executor.shm_names_created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_every_segment_unlinked_across_runs(self, shipped):
        with ParallelExecutor("process", jobs=2) as executor:
            for _ in range(3):
                executor.run(shipped, (1.0, 32))
        assert executor.shm_names_created
        for name in executor.shm_names_created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    @pytest.mark.parametrize("backend", ["process"])
    def test_close_leaves_no_live_workers(self, shipped, backend):
        before = live_children()
        executor = ParallelExecutor(backend, jobs=2)
        executor.run(shipped, (1.0, 32))
        executor.close()
        assert live_children() - before == set()
        executor.close()  # idempotent
        # a closed executor starts a fresh pool on demand
        assert len(executor.run(shipped, (1.0, 32))) == len(shipped)
        executor.close()
        assert live_children() - before == set()

    def test_throwaway_executors_release_their_workers(self):
        before = live_children()
        deck = "I1 0 n1 1m\nR1 n1 0 1k\nC1 n1 0 1u\n.tran 50u 5m\n"
        simulate_netlist(deck, ensemble={"params": {"R1": [1e3, 2e3]}}, jobs=2)
        system = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])
        ensemble = Ensemble([(system, 1.0), (system, 2.0)])
        simulate(ensemble, None, 1.0, 32, jobs=2)
        Simulator(system, (1.0, 32)).run_ensemble(ensemble, jobs=2)
        assert live_children() - before == set()

    def test_interpreter_exit_with_an_open_pool(self):
        script = (
            "from repro.core import DescriptorSystem\n"
            "from repro.engine.executor import Ensemble, ParallelExecutor\n"
            "rc = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]])\n"
            "executor = ParallelExecutor('process', jobs=2)\n"
            "executor.run(Ensemble([(rc, 1.0), (rc, 2.0)]), (1.0, 16))\n"
            "print('ran')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ran"
