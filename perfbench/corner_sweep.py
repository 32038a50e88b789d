"""corner-sweep: a parallel Monte-Carlo tolerance sweep, closed-loop.

Each op is one seeded 96-member ``Ensemble.variations`` of the
108-state power grid (every mesh resistor within +/-20 %), run on
``ParallelExecutor("process", jobs=nproc)`` over the grid (1e-9, 512)
with one output node, from variation to sampled outputs.  This is the
only workload where ``engine.executor`` (fingerprint grouping,
shared-memory shipping, the process pool) works, and it uses the
pencil backends the opposite way from warm-session: 96 fresh
factorisations per op against none.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import streams
from harness import OpLog, nproc, overhead_ratio, self_peak_rss_mb
from tracer import Tracer, self_times

NAME = "corner-sweep"
SETUP_REPEATS = 7
#: ~20 ops per run cannot put 10 samples beyond a p90; the tail check is
#: relaxed here and the count beyond is recorded with the run.
MIN_BEYOND = 0


class Corners:
    """The nominal grid, the executor, and the seeded ensembles."""

    def __init__(self, seed: int) -> None:
        from repro.circuits import power_grid
        from repro.circuits.power_grid import grid_node_name
        from repro.core import ParallelExecutor

        self.netlist = power_grid(6, 6, nz=2, seed=streams.grid_load_seed(seed))
        self.params = {el.name: streams.CORNER_TOLERANCE for el in self.netlist.resistors}
        self.output = grid_node_name(0, 2, 2)
        self.seeds = streams.corner_seeds(seed)
        self.jobs = nproc()
        self.executor = ParallelExecutor("process", jobs=self.jobs)

    def ensemble(self, k: int, tracer: Tracer):
        from repro.core import Ensemble

        with tracer.span("engine.executor.variations"):
            return Ensemble.variations(
                self.netlist,
                self.params,
                mode="monte-carlo",
                n=streams.CORNER_MEMBERS,
                seed=self.seeds[k],
                outputs=[self.output],
            )

    def op(self, k: int, tracer: Tracer):
        """Variation -> parallel run -> sampled outputs."""
        ensemble = self.ensemble(k, tracer)
        with tracer.span("engine.executor.run"):
            result = self.executor.run(ensemble, streams.CORNER_GRID)
        with tracer.span("core.result"):
            t = result[0].sample_times()
            result.outputs(t)
        tracer.count("engine.executor.factorisations", result.info["factorisations"])
        tracer.count("engine.executor.shm_bytes", result.info["shm_bytes"])
        return result

    def serial_reference(self, k: int) -> tuple[np.ndarray, float]:
        """The same task plan run inline: coefficients and wall time."""
        from repro.core import ParallelExecutor

        ensemble = self.ensemble(k, Tracer(enabled=False))
        start = time.perf_counter()
        result = ParallelExecutor("serial", jobs=self.jobs).run(ensemble, streams.CORNER_GRID)
        return result.coefficients, time.perf_counter() - start


def op_loop(corners: Corners, refs: dict, seconds: float, tracer: Tracer, log: OpLog,
            max_ops: int | None = None) -> None:
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds and (max_ops is None or i < max_ops):
        k = i % len(corners.seeds)

        def op(k=k, i=i):
            with tracer.op(i):
                return corners.op(k, tracer)

        def check(result, k=k):
            if not np.array_equal(result.coefficients, refs[k]):
                dev = float(np.max(np.abs(result.coefficients - refs[k])))
                return f"coefficients differ from the serial run (max |diff| {dev:.3e})"
            return None

        log.timed(f"ensemble{k}", op, check)
        i += 1
    log.wall_s = time.perf_counter() - start


def measure(seed: int, seconds: float) -> dict:
    off = Tracer(enabled=False)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        corners = Corners(seed)
        corners.op(0, off)  # pool spawn plus one warm-up ensemble
        setup_s.append(time.perf_counter() - start)
    refs = {k: corners.serial_reference(k)[0] for k in range(len(corners.seeds))}
    log = OpLog()
    op_loop(corners, refs, seconds, off, log)
    return {
        "log": log,
        "setup_s": setup_s,
        "peak_rss_mb": self_peak_rss_mb(),
        "min_beyond": MIN_BEYOND,
    }


def layers(seed: int, seconds: float, probe: bool) -> dict:
    """Executor-layer metrics from traced ops.

    Parallel efficiency is the serial replay's wall time over (jobs x
    the process run's wall time) for the same ensemble.
    """
    corners = Corners(seed)
    corners.op(0, Tracer(enabled=False))
    n_refs = 1 if probe else len(corners.seeds)
    serial = {k: corners.serial_reference(k) for k in range(n_refs)}
    refs = {k: coeffs for k, (coeffs, _) in serial.items()}
    untraced = OpLog()
    if not probe:
        op_loop(corners, refs, seconds / 2, Tracer(enabled=False), untraced)
    tracer = Tracer()
    log = OpLog()
    op_loop(corners, refs, seconds / 2, tracer, log, max_ops=1 if probe else None)

    by_name = tracer.self_ms_by_name()
    run_walls: dict[int, list[float]] = {}
    for s in tracer.spans:
        if s.name == "engine.executor.run":
            run_walls.setdefault(s.op % len(corners.seeds), []).append(s.end - s.start)
    efficiency = [
        serial[k][1] / (corners.jobs * statistics.median(walls))
        for k, walls in run_walls.items() if k in serial
    ]
    n_ops = max(1, log.attempted)
    metrics = {
        "engine.executor.variations_ms": statistics.fmean(by_name["engine.executor.variations"]),
        "engine.executor.run_ms": statistics.fmean(by_name["engine.executor.run"]),
        "engine.executor.factorisations": tracer.counts["engine.executor.factorisations"] / n_ops,
        "engine.executor.shm_bytes": tracer.counts["engine.executor.shm_bytes"] / n_ops,
        "engine.executor.parallel_efficiency": statistics.fmean(efficiency),
    }
    if not probe:
        metrics["core.result.sample_ms"] = statistics.fmean(by_name["core.result"])
        metrics["engine.backends.factorisations"] = metrics["engine.executor.factorisations"]
        st = self_times(tracer.spans)
        roots = [s for s in tracer.spans if s.parent is None]
        metrics["trace.overhead_ratio"] = overhead_ratio(log, untraced)
        metrics["trace.uncovered_ms"] = statistics.median(st[s.id] * 1e3 for s in roots)
        log.failures.extend(untraced.failures)
    return {"metrics": metrics, "log": log, "tracer": tracer}
