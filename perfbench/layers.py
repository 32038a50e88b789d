"""Per-layer metrics: names, units, and which end-to-end metric each moves.

The layers are the program's modules.  ``PER_LAYER`` is the single
list of per-layer metric names (``BENCHMARK.json`` must match it) and
records, before anything is measured, which end-to-end metric each one
should move on which workload.

Every traced run reports every name: the traced workload measures the
layers it exercises from its own ops, and the other workloads' layers
are filled in by a short probe of each (see ``run.py``).  Layer times
are mean self times per occurrence of the layer's span.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from harness import ROOT, child_env, run_child

#: (name, unit, "end-to-end metric -> workload" it should move)
PER_LAYER = (
    ("import.repro_ms", "ms", "p50_ms -> cold-deck; setup_s -> service-mix"),
    ("import.modules", "count", "p50_ms -> cold-deck; setup_s -> service-mix"),
    ("import.heavy_modules", "count", "p50_ms -> cold-deck; setup_s -> service-mix"),
    ("circuits.netlist.parse_ms", "ms", "p50_ms -> cold-deck (generated deck); p90_ms -> service-mix (churn)"),
    ("circuits.netlist.elements", "count", "p50_ms -> cold-deck (generated deck)"),
    ("circuits.graph.lint_ms", "ms", "p50_ms -> cold-deck; p90_ms -> service-mix (churn)"),
    ("circuits.mna.assemble_ms", "ms", "p50_ms -> cold-deck, corner-sweep; p90_ms -> service-mix"),
    ("engine.session.bind_ms", "ms", "p50_ms -> cold-deck; setup_s -> service-mix"),
    ("engine.backends.factorise_ms", "ms", "p50_ms -> cold-deck, corner-sweep"),
    ("engine.backends.factorisations", "count", "p50_ms -> cold-deck, corner-sweep; 0 per op on the warm-session probe"),
    ("engine.inputs.project_ms", "ms", "p50_ms -> service-mix (Chebyshev)"),
    ("engine.session.run_ms.rlc_ladder", "ms", "p50_ms -> service-mix (Chebyshev)"),
    ("engine.session.run_ms.cpe_cell", "ms", "none end-to-end (warm-session probe)"),
    ("engine.session.sweep_ms.rlc_ladder", "ms", "p50_ms -> service-mix (4-scale sweeps)"),
    ("engine.session.sweep_per_input_ms.rlc_ladder", "ms", "p50_ms -> service-mix (4-scale sweeps)"),
    ("engine.marching.march_ms", "ms", "none end-to-end (warm-session probe)"),
    ("fractional.soe.modes", "count", "none end-to-end (warm-session probe)"),
    ("fractional.soe.certified", "count", "correctness of the warm-session probe's marches (1 = certified)"),
    ("core.result.sample_ms", "ms", "p50_ms -> cold-deck; p90_ms, ops_per_s -> service-mix (full waveform)"),
    ("io.csvout.write_ms", "ms", "p50_ms -> cold-deck"),
    ("io.csvout.bytes", "bytes", "p50_ms -> cold-deck"),
    ("engine.service.server_ms", "ms", "p50_ms, p90_ms, ops_per_s -> service-mix"),
    ("engine.service.wire_ms", "ms", "p50_ms -> service-mix"),
    ("engine.service.overhead_ms", "ms", "p50_ms, p90_ms -> service-mix"),
    ("engine.service.full_waveform_json_ms", "ms", "p90_ms, ops_per_s -> service-mix"),
    ("engine.service.full_waveform_csv_ms", "ms", "p90_ms, ops_per_s -> service-mix"),
    ("engine.service.coalesce_ratio", "ratio", "ops_per_s -> service-mix"),
    ("engine.service.session_hit_ratio", "ratio", "p50_ms, p90_ms -> service-mix"),
    ("engine.service.session_builds", "count", "p90_ms -> service-mix"),
    ("engine.service.session_evictions", "count", "p90_ms -> service-mix"),
    ("engine.service.factorisations", "count", "p90_ms -> service-mix"),
    ("engine.service.bank_factorisations", "count", "none (live-session bank reading; may go down)"),
    ("engine.executor.variations_ms", "ms", "p50_ms -> corner-sweep"),
    ("engine.executor.run_ms", "ms", "p50_ms -> corner-sweep"),
    ("engine.executor.factorisations", "count", "p50_ms -> corner-sweep"),
    ("engine.executor.shm_bytes", "bytes", "p50_ms -> corner-sweep"),
    ("engine.executor.parallel_efficiency", "ratio", "p50_ms -> corner-sweep"),
    ("trace.overhead_ratio", "ratio", "none (guards the measurement)"),
    ("trace.uncovered_ms", "ms", "none (guards the measurement)"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: Modules whose presence after ``import repro`` marks an eager heavy import.
HEAVY_MODULES = ("scipy.signal", "asyncio", "multiprocessing")
IMPORT_REPEATS = 3

_IMPORT_SCRIPT = (
    "import json, sys; import repro; "
    "print(json.dumps([len(sys.modules), sum(m in sys.modules for m in %r)]))"
    % (HEAVY_MODULES,)
)


def import_metrics() -> dict:
    """``import repro`` in fresh interpreters, minus bare start-up."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(run_child([sys.executable, "-c", "pass"], timeout=60)[0])
        full.append(run_child([sys.executable, "-c", "import repro"], timeout=60)[0])
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_SCRIPT], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    modules, heavy = json.loads(out.stdout)
    return {
        "import.repro_ms": (statistics.median(full) - statistics.median(bare)) * 1e3,
        "import.modules": float(modules),
        "import.heavy_modules": float(heavy),
    }
