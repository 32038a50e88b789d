"""End-to-end benchmark of the OPM engine: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-deck --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (``setup_s``, ``p50_ms``,
``p90_ms``, ``ops_per_s``, ``peak_rss_mb``); ``--trace 1`` is a
separate run that reports the per-layer metrics of ``layers.PER_LAYER``.
``warm_session`` is a per-layer probe only, not a workload: its
millisecond warm ops flip between two speeds (up to 1.75x apart) with
the load on a shared host, so its p50 varied beyond any usable bound
from run to run.
Every op's output is checked; an op that errors or fails its check is
counted in ``failed`` (``fail_ratio = failed / attempted``).  The last
stdout line is the JSON result; the lines before it print every metric
by name with its unit, and the run record (environment, op counts, wall
times) is also written under ``.perfbench/``.
"""

from __future__ import annotations

import os

from harness import THREAD_VARS

for _var in THREAD_VARS:  # before numpy loads a BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from harness import SRC, WORK, environment, stop_helpers  # noqa: E402

WORKLOAD_NAMES = ("cold-deck", "service-mix", "corner-sweep")

END_TO_END_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def load_workloads() -> dict:
    """Every module that measures layers: the workloads plus warm-session."""
    import cold_deck
    import corner_sweep
    import service_mix
    import warm_session

    modules = (cold_deck, warm_session, service_mix, corner_sweep)
    return {m.NAME: m for m in modules}


def end_to_end(module, seed: int, seconds: float) -> tuple[dict, object, dict]:
    res = module.measure(seed, seconds)
    log = res["log"]
    summary = log.summary(min_beyond=res["min_beyond"])
    if summary["p90_ms"] is None:
        raise RuntimeError(
            f"p90 needs >= {res['min_beyond']} samples beyond it; the run "
            f"measured only {summary['ops']} ops"
        )
    metrics = {
        "setup_s": statistics.median(res["setup_s"]),
        "p50_ms": summary["p50_ms"],
        "p90_ms": summary["p90_ms"],
        "ops_per_s": summary["ops_per_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    record = {
        "setup_s_all": res["setup_s"],
        "ops": summary["ops"],
        "wall_s": summary["wall_s"],
        "p90_samples_beyond": summary["p90_samples_beyond"],
        "p90_min_beyond": res["min_beyond"],
        "ops_by_class": {c: log.classes.count(c) for c in sorted(set(log.classes))},
        "p50_ms_by_class": {
            c: statistics.median(log.class_latencies(c)) for c in sorted(set(log.classes))
        },
    }
    return metrics, log, record


def per_layer(workloads: dict, name: str, seed: int, seconds: float):
    """The traced workload's layers, other layers from short probes."""
    from layers import PER_LAYER, import_metrics

    metrics = import_metrics()
    probe_logs = []
    for other, module in workloads.items():
        if other != name:
            probe = module.layers(seed, seconds, probe=True)
            probe_logs.append(probe["log"])
            for key, value in probe["metrics"].items():
                metrics.setdefault(key, value)
    own = workloads[name].layers(seed, seconds, probe=False)
    metrics.update(own["metrics"])
    names = [n for n, _, _ in PER_LAYER]
    missing = [n for n in names if n not in metrics or not math.isfinite(metrics[n])]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    log = own["log"]
    for probe_log in probe_logs:
        log.latencies_ms.extend(probe_log.latencies_ms)
        log.classes.extend(probe_log.classes)
        log.failures.extend(probe_log.failures)
    if own.get("tracer") is not None:
        own["tracer"].write(WORK / f"trace-{name}-{seed}.json")
    ordered = {n: metrics[n] for n in names}
    return ordered, log, {"ops": log.attempted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    try:
        workloads = load_workloads()
        module = workloads[args.workload]
        if args.trace:
            from layers import UNITS as units

            metrics, log, record = per_layer(workloads, args.workload, args.seed, args.seconds)
        else:
            units = END_TO_END_UNITS
            metrics, log, record = end_to_end(module, args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        stop_helpers()

    record.update(environment(args.seed))
    record.update(workload=args.workload, trace=args.trace, failures=log.failures[:20])
    (WORK / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    fail_ratio = log.failed / max(1, log.attempted)
    for key, value in metrics.items():
        print(f"{args.workload:>13}  {key:<46} {value:14.6g} {units[key]}")
    print(f"{args.workload:>13}  {'fail_ratio':<46} {fail_ratio:14.6g} ratio")
    for failure in log.failures[:5]:
        print(f"  failed: {failure}")
    print(f"# run {json.dumps(record, sort_keys=True)}")
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
