"""Traced replay of one one-shot CLI run, in a fresh interpreter.

Usage::

    python perfbench/cli_replay.py DECK CSV_OUT TRACE_OUT

Performs the steps ``python -m repro DECK --csv CSV_OUT`` performs, in
the same order -- import, parse, lint, assemble, bind, first run,
sample, format and write the CSV (plus the ``.ac`` scan when the deck
has one) -- each inside a span, then writes the spans and counts to
TRACE_OUT.  One extra warm run on the bound session gives the
factorisation time as first run minus warm run.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Tracer


def replay(deck: Path, csv_out: Path, tracer: Tracer) -> None:
    with tracer.op(0):
        with tracer.span("import"):
            import repro.__main__  # noqa: F401  (what `python -m repro` loads)
            from repro.circuits import CircuitGraph, Netlist
            from repro.engine import Simulator
            from repro.engine.netlist_session import ac_scan, build_system
            from repro.io import write_csv
        import numpy as np

        text = deck.read_text()
        with tracer.span("circuits.netlist"):
            netlist = Netlist.from_spice(text, title=deck.stem)
        with tracer.span("circuits.graph"):
            CircuitGraph(netlist).lint()
        outputs = list(netlist.nodes)
        with tracer.span("circuits.mna"):
            system = build_system(netlist, outputs=outputs, lint=False)
        spec = netlist.analysis
        grid = (spec.tran.tstop, spec.m or spec.tran.steps)
        with tracer.span("engine.session.bind"):
            sim = Simulator(
                system,
                grid,
                basis=spec.basis,
                backend=spec.backend or "auto",
                memory=spec.memory or "exact",
            )
        u = netlist.input_function()
        with tracer.span("engine.session.first_run"):
            result = sim.run(u)
        with tracer.span("engine.session.warm_run"):
            sim.run(u)
        t_end = spec.tran.tstop
        with tracer.span("core.result"):
            # the CLI's printed table (default --points 10), then the CSV grid
            result.outputs_smooth(np.linspace(t_end / 10, t_end * 0.999, 10))
            t_all = result.sample_times()
            v_all = result.outputs(t_all)
        with tracer.span("cli.format_rows"):
            rows = [
                [repr(float(t_all[k]))]
                + [repr(float(v_all[i, k])) for i in range(len(outputs))]
                for k in range(t_all.size)
            ]
        with tracer.span("io.csvout"):
            write_csv(csv_out, ["t"] + outputs, rows)
        if spec.ac is not None:
            with tracer.span("engine.netlist_session.ac"):
                ac_scan(netlist, system=system, outputs=tuple(outputs))
    tracer.count("circuits.netlist.elements", len(netlist.elements))
    tracer.count("engine.backends.factorisations", result.info["factorisations"])
    tracer.count("io.csvout.bytes", csv_out.stat().st_size)


def main(argv: list[str]) -> int:
    deck, csv_out, trace_out = (Path(a) for a in argv)
    tracer = Tracer()
    replay(deck, csv_out, tracer)
    tracer.write(trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
