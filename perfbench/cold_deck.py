"""cold-deck: one-shot CLI runs, sequential and closed-loop.

Each op is a fresh ``python -m repro <deck> --csv <file>`` subprocess,
cycling over the 7 example decks plus the generated 280-section ladder
(seeded order).  This is what a one-shot user waits on: import
dominates, and the generated deck makes parse/flatten, sampling and CSV
serialisation visible.  The solver kernels do little here, so a kernel
optimisation must leave this workload flat.

Runs always complete whole cycles, at least ``MIN_CYCLES`` of them, so
every run holds the same mix of decks and the percentile ranks land in
the same classes.  With ~18 ops per run the p90 is reported with fewer
than 10 samples beyond it (see ``MIN_BEYOND``).
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import streams
from harness import WORK, OpLog, overhead_ratio, run_child, self_peak_rss_mb
from tracer import Span, Tracer, self_times

NAME = "cold-deck"
SETUP_REPEATS = 21
MIN_CYCLES = 2
#: ~18 ops per run cannot put 10 samples beyond a p90; the tail check is
#: relaxed here and the count beyond is recorded with the run.
MIN_BEYOND = 0
OP_TIMEOUT_S = 60.0
RTOL = 1e-12
REPLAY = Path(__file__).resolve().parent / "cli_replay.py"

#: Span names of the traced replay -> per-layer metric names.
REPLAY_LAYERS = {
    "circuits.netlist": "circuits.netlist.parse_ms",
    "circuits.graph": "circuits.graph.lint_ms",
    "circuits.mna": "circuits.mna.assemble_ms",
    "engine.session.bind": "engine.session.bind_ms",
    "core.result": "core.result.sample_ms",
    "io.csvout": "io.csvout.write_ms",
}


def deck_paths(seed: int, workdir: Path) -> dict[str, Path]:
    paths = {name: streams.example_path(name) for name in streams.EXAMPLE_DECKS}
    generated = workdir / "generated.cir"
    generated.write_text(streams.generated_deck(seed))
    paths["generated"] = generated
    return paths


def reference(path: Path) -> tuple[list[str], np.ndarray]:
    """In-process library solve of a deck: CSV header and rows."""
    from repro.circuits import Netlist
    from repro.engine import Simulator

    netlist = Netlist.from_spice_file(path)
    result = Simulator.from_netlist(netlist).run()
    t = result.sample_times()
    values = result.outputs(t)
    columns = ["t"] + list(netlist.nodes)
    return columns, np.vstack([t, values]).T


def check_csv(path: Path, ref: tuple[list[str], np.ndarray]) -> str | None:
    """``None`` when the CLI's CSV equals the reference, else why not."""
    columns, expected = ref
    with path.open() as handle:
        header = handle.readline().strip().split(",")
    if header != columns:
        return f"CSV columns {header[:4]}... differ from {columns[:4]}..."
    got = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if got.shape != expected.shape:
        return f"CSV shape {got.shape} != reference {expected.shape}"
    scale = np.maximum(np.max(np.abs(expected), axis=0), np.finfo(float).tiny)
    rel = float(np.max(np.abs(got - expected) / scale))
    if rel > RTOL:
        return f"CSV deviates from the reference by {rel:.3e} (relative)"
    return None


def setup(seed: int, workdir: Path):
    """Write the decks and build the in-process references."""
    paths = deck_paths(seed, workdir)
    refs = {name: reference(path) for name, path in paths.items()}
    return paths, refs


def cli_op(log: OpLog, name: str, path: Path, csv: Path, ref, rss: list[float]):
    csv.unlink(missing_ok=True)

    def op():
        wall, code, peak, err = run_child(
            [sys.executable, "-m", "repro", str(path), "--csv", str(csv)],
            timeout=OP_TIMEOUT_S,
        )
        rss.append(peak)
        return code, err

    def check(out):
        code, err = out
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        return check_csv(csv, ref)

    log.timed(name, op, check)


def measure(seed: int, seconds: float) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        setup_s = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            paths, refs = setup(seed, workdir)
            setup_s.append(time.perf_counter() - start)
        log = OpLog()
        rss: list[float] = []
        cycle = streams.deck_cycle(seed)
        start = time.perf_counter()
        cycles = 0
        while cycles < MIN_CYCLES or time.perf_counter() - start < seconds:
            cycles += 1
            for name in cycle:
                cli_op(log, name, paths[name], workdir / f"{name}.csv", refs[name], rss)
        log.wall_s = time.perf_counter() - start
    return {
        "log": log,
        "setup_s": setup_s,
        "peak_rss_mb": max(rss) if rss else self_peak_rss_mb(),
        "min_beyond": MIN_BEYOND,
    }


def _replay_layers(trace_files: list[Path], walls_ms: list[float]):
    """Per-layer metrics (mean self time per op) from replay traces.

    Returns the metrics, each op's uncovered time, and one tracer holding
    every replay's spans (op ids are the replay indices).
    """
    per_name: dict[str, float] = {}
    counts: dict[str, float] = {}
    uncovered = []
    fact_ms = []
    combined = Tracer()
    for op_id, (path, wall_ms) in enumerate(zip(trace_files, walls_ms)):
        payload = json.loads(path.read_text())
        spans = [Span(**s) for s in payload["spans"]]
        offset = len(combined.spans)
        combined.spans.extend(
            Span(s.id + offset, s.name, s.start, s.end,
                 None if s.parent is None else s.parent + offset, op_id)
            for s in spans
        )
        st = self_times(spans)
        covered = 0.0
        first = warm = 0.0
        for s in spans:
            per_name[s.name] = per_name.get(s.name, 0.0) + st[s.id] * 1e3
            if s.parent is None:
                covered += (s.end - s.start) * 1e3
            if s.name == "engine.session.first_run":
                first = (s.end - s.start) * 1e3
            elif s.name == "engine.session.warm_run":
                warm = (s.end - s.start) * 1e3
        fact_ms.append(first - warm)
        # interpreter start-up and teardown are not covered by any span
        uncovered.append(wall_ms - covered)
        for key, value in payload["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
    n = max(1, len(trace_files))
    out = {metric: per_name.get(span, 0.0) / n for span, metric in REPLAY_LAYERS.items()}
    out["engine.backends.factorise_ms"] = statistics.fmean(fact_ms) if fact_ms else 0.0
    for key, value in counts.items():
        out[key] = value / n
    return out, uncovered, combined


def layers(seed: int, seconds: float, probe: bool) -> dict:
    """Per-layer metrics from traced CLI replays.

    ``probe`` replays the generated deck once (used when another
    workload is traced); otherwise one untraced cycle of CLI ops and one
    traced cycle of replays give the trace overhead and uncovered time.
    """
    WORK.mkdir(exist_ok=True)
    log = OpLog()
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        paths, refs = setup(seed, workdir)
        cycle = ["generated"] if probe else streams.deck_cycle(seed)
        untraced = OpLog()
        if not probe:
            for name in cycle:
                cli_op(untraced, name, paths[name], workdir / f"{name}.csv", refs[name], [])
        traces, walls = [], []
        for k, name in enumerate(cycle):
            csv = workdir / f"{name}.csv"
            trace = workdir / f"trace-{k}.json"
            csv.unlink(missing_ok=True)

            def op(csv=csv, trace=trace, name=name):
                wall, code, _, err = run_child(
                    [sys.executable, str(REPLAY), str(paths[name]), str(csv), str(trace)],
                    timeout=OP_TIMEOUT_S,
                )
                return wall, code, err

            def check(out, csv=csv, name=name):
                _, code, err = out
                if code != 0:
                    return f"replay exit {code}: {err.strip()[-200:]}"
                return check_csv(csv, refs[name])

            out = log.timed(name, op, check)
            if out is not None and out[1] == 0:
                traces.append(trace)
                walls.append(out[0] * 1e3)
        metrics, uncovered, tracer = _replay_layers(traces, walls)
        if not probe:
            metrics["trace.overhead_ratio"] = overhead_ratio(log, untraced)
            metrics["trace.uncovered_ms"] = statistics.median(uncovered)
            log.failures.extend(untraced.failures)
    return {"metrics": metrics, "log": log, "tracer": tracer}
