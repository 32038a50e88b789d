"""warm-session: in-process warm library use, closed-loop on one thread.

Three sessions are bound once in set-up -- ``rlc_ladder.cir``
(block pulse, n=9, m=500: the integer Toeplitz column sweep),
``cpe_cell.cir`` (alpha=0.5, m=200: the fractional history tail) and
the 108-state alpha=0.9 power grid with ``memory='soe'`` (30 windows of
m=300) -- and ops are a seeded cycle of ``run``s with fresh drive
scales, 8-input ``sweep``s and ``march``es.  Almost all op time is in
``engine.kernels``, ``engine.inputs`` and ``engine.marching``; parse,
bind and factorisation happen only in set-up.

This module only measures layers (every traced run probes it); it is
not an end-to-end workload, for the reason given in ``run.py``.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

import streams
from harness import OpLog, overhead_ratio
from tracer import Tracer, patched, self_times

NAME = "warm-session"
#: A scaled drive must give the scaled reference to this relative error.
RTOL = 1e-9
#: Block-pulse averages vs point samples of the exact exponential
#: propagator: the O(h) discretisation error of m=500 on this deck.
EXPM_RTOL = 2e-2
GRID_ALPHA = 0.9
GRID_WINDOW = 1e-9
GRID_M = 300
GRID_WINDOWS = 30


def rel_error(got: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(got - expected)) / max(np.max(np.abs(expected)), 1e-300))


class Sessions:
    """The three bound sessions, their drives and reference results."""

    def __init__(self, seed: int, tracer: Tracer) -> None:
        from repro.circuits import CircuitGraph, Netlist, power_grid
        from repro.circuits.mna import assemble_mna
        from repro.core import FractionalDescriptorSystem
        from repro.engine import Simulator
        from repro.engine.netlist_session import build_system

        def bind_deck(name: str):
            with tracer.span("circuits.netlist"):
                netlist = Netlist.from_spice_file(streams.example_path(name))
            with tracer.span("circuits.graph"):
                CircuitGraph(netlist).lint()
            with tracer.span("circuits.mna"):
                system = build_system(netlist, outputs=list(netlist.nodes), lint=False)
            spec = netlist.analysis
            with tracer.span("engine.session.bind"):
                sim = Simulator(system, (spec.tran.tstop, spec.m or spec.tran.steps))
            return sim, netlist.input_function()

        self.rlc, self.u_rlc = bind_deck("rlc_ladder")
        self.cpe, self.u_cpe = bind_deck("cpe_cell")
        grid_netlist = power_grid(6, 6, nz=2, seed=streams.grid_load_seed(seed))
        with tracer.span("circuits.mna"):
            mna = assemble_mna(grid_netlist)
        frac = FractionalDescriptorSystem(GRID_ALPHA, mna.E, mna.A, mna.B)
        with tracer.span("engine.session.bind"):
            self.grid = Simulator(frac, (GRID_WINDOW, GRID_M), memory="soe")
        self.u_grid = grid_netlist.input_function()
        self.horizon = GRID_WINDOWS * GRID_WINDOW

        # first factorisations and the references every op is checked against
        with tracer.span("engine.session.first_run"):
            self.ref_rlc = self.rlc.run(self.u_rlc).coefficients
        with tracer.span("engine.session.first_run"):
            self.ref_cpe = self.cpe.run(self.u_cpe).coefficients
        with tracer.span("engine.marching.first_march"):
            march = self.grid.march(self.u_grid, self.horizon)
        self.ref_grid = march.coefficients
        self.memory = dict(march.info.get("memory") or {})

    @property
    def sims(self):
        return (self.rlc, self.cpe, self.grid)

    def factorisations(self) -> int:
        return sum(sim.factorisations for sim in self.sims)

    def factorise_ms(self, repeats: int = 5) -> float:
        """First run minus warm run on fresh copies of the deck sessions.

        The pencils are tiny, so each deck's difference is the median of
        ``repeats`` fresh binds; the result is the mean over the decks.
        """
        from repro.engine import Simulator

        per_deck = []
        for sim, u in ((self.rlc, self.u_rlc), (self.cpe, self.u_cpe)):
            diffs = []
            for _ in range(repeats):
                fresh = Simulator(sim.system, sim.grid)
                start = time.perf_counter()
                fresh.run(u)
                first = time.perf_counter()
                fresh.run(u)
                diffs.append(((first - start) - (time.perf_counter() - first)) * 1e3)
            per_deck.append(statistics.median(diffs))
        return statistics.fmean(per_deck)

    def expm_check(self) -> str | None:
        """Check the integer-order reference against the expm propagator.

        The MNA pencil of the ladder is a DAE (series R-L midpoints carry
        no capacitance); its algebraic states are eliminated exactly to
        give the ODE ``simulate_expm`` needs.
        """
        from repro.baselines.expm import simulate_expm
        from repro.core import DescriptorSystem

        system = self.rlc.system
        E, A = (np.asarray(M.toarray() if hasattr(M, "toarray") else M) for M in (system.E, system.A))
        B = np.asarray(system.B.toarray() if hasattr(system.B, "toarray") else system.B)
        alg = np.where(~E.any(axis=1) & ~E.any(axis=0))[0]
        dyn = np.setdiff1d(np.arange(E.shape[0]), alg)
        coupling = A[np.ix_(dyn, alg)] @ np.linalg.inv(A[np.ix_(alg, alg)])
        ode = DescriptorSystem(
            E[np.ix_(dyn, dyn)],
            A[np.ix_(dyn, dyn)] - coupling @ A[np.ix_(alg, dyn)],
            B[dyn] - coupling @ B[alg],
        )
        grid = self.rlc.grid
        exact = simulate_expm(ode, self.u_rlc, grid.t_end, grid.m)
        result = self.rlc.run(self.u_rlc)
        t = result.sample_times()
        rel = rel_error(result.states(t)[dyn], exact.states(t))
        if rel > EXPM_RTOL:
            return f"rlc_ladder reference deviates from expm by {rel:.3e}"
        return None

    def reference_check(self) -> str | None:
        if not self.memory.get("certified"):
            return f"soe march not certified: {self.memory}"
        return self.expm_check()


def run_op(sessions: Sessions, op_class: str, scales, tracer: Tracer):
    """Issue one op: ``(coefficients, references, march memory info)``."""
    s = sessions
    if op_class == "cpe_run":
        with tracer.span("engine.session.run.cpe_cell"):
            res = s.cpe.run(streams.scaled_input(s.u_cpe, scales[0]))
        return [res.coefficients], [s.ref_cpe], None
    if op_class == "rlc_run":
        with tracer.span("engine.session.run.rlc_ladder"):
            res = s.rlc.run(streams.scaled_input(s.u_rlc, scales[0]))
        return [res.coefficients], [s.ref_rlc], None
    if op_class == "rlc_sweep":
        with tracer.span("engine.session.sweep.rlc_ladder"):
            res = s.rlc.sweep([streams.scaled_input(s.u_rlc, x) for x in scales])
        return list(res.coefficients), [s.ref_rlc] * len(scales), None
    with tracer.span("engine.marching.march"):
        res = s.grid.march(streams.scaled_input(s.u_grid, scales[0]), s.horizon)
    return [res.coefficients], [s.ref_grid], dict(res.info.get("memory") or {})


def op_loop(sessions: Sessions, seed: int, seconds: float, tracer: Tracer, log: OpLog,
            max_cycles: int | None = None) -> None:
    """Closed loop over whole seeded cycles until ``seconds`` have passed."""
    start = time.perf_counter()
    op_id = 0
    for cycle in itertools.islice(streams.warm_cycles(seed), max_cycles):
        for op_class, scales in cycle:
            before = sessions.factorisations()

            def op(op_class=op_class, scales=scales, op_id=op_id):
                with tracer.op(op_id):
                    return run_op(sessions, op_class, scales, tracer)

            def check(out, scales=scales):
                got, refs, memory = out
                if memory is not None and not memory.get("certified"):
                    return f"march memory not certified: {memory}"
                for g, ref, x in zip(got, refs, scales):
                    err = rel_error(g, x * ref)
                    if err > RTOL:
                        return f"deviates from scaled reference by {err:.3e}"
                return None

            log.timed(op_class, op, check)
            tracer.count("engine.backends.factorisations", sessions.factorisations() - before)
            op_id += 1
        if time.perf_counter() - start >= seconds:
            break
    log.wall_s = time.perf_counter() - start


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layers(seed: int, seconds: float, probe: bool) -> dict:
    """Per-layer metrics: traced set-up, then traced warm ops.

    Outside ``probe`` mode an untraced half-run precedes the traced one,
    giving the trace overhead ratio.
    """
    from repro.engine import Simulator

    tracer = Tracer()
    with tracer.op(-1, "setup"):
        sessions = Sessions(seed, tracer)
    metrics = {"engine.backends.factorise_ms": sessions.factorise_ms()}
    log = OpLog()
    reason = sessions.reference_check()
    if reason is not None:
        log.record("reference", 0.0, reason)
    untraced = OpLog()
    if not probe:
        op_loop(sessions, seed, seconds / 2, Tracer(enabled=False), untraced)
    setup_spans = len(tracer.spans)
    with patched(tracer, Simulator, "project", "engine.inputs"):
        op_loop(sessions, seed, seconds / 2, tracer, log, max_cycles=1 if probe else None)

    by_name = tracer.self_ms_by_name()
    metrics.update({
        "circuits.netlist.parse_ms": _mean(by_name["circuits.netlist"]),
        "circuits.graph.lint_ms": _mean(by_name["circuits.graph"]),
        "circuits.mna.assemble_ms": _mean(by_name["circuits.mna"]),
        "engine.session.bind_ms": _mean(by_name["engine.session.bind"]),
        "engine.inputs.project_ms": _mean(by_name["engine.inputs"]),
        "engine.session.run_ms.rlc_ladder": _mean(by_name["engine.session.run.rlc_ladder"]),
        "engine.session.run_ms.cpe_cell": _mean(by_name["engine.session.run.cpe_cell"]),
        "engine.marching.march_ms": _mean(by_name["engine.marching.march"]),
        "fractional.soe.modes": float(sessions.memory.get("modes", 0)),
        "fractional.soe.certified": 1.0 if sessions.memory.get("certified") else 0.0,
        "engine.backends.factorisations": (
            tracer.counts["engine.backends.factorisations"] / max(1, log.attempted)
        ),
    })
    sweep_ms = _mean(by_name["engine.session.sweep.rlc_ladder"])
    metrics["engine.session.sweep_ms.rlc_ladder"] = sweep_ms
    metrics["engine.session.sweep_per_input_ms.rlc_ladder"] = sweep_ms / streams.SWEEP_INPUTS
    if not probe:
        ops = [s for s in tracer.spans[setup_spans:] if s.parent is None]
        st = self_times(tracer.spans)
        metrics["trace.overhead_ratio"] = overhead_ratio(log, untraced)
        metrics["trace.uncovered_ms"] = statistics.median(st[s.id] * 1e3 for s in ops)
        log.failures.extend(untraced.failures)
    return {"metrics": metrics, "log": log, "tracer": tracer}
