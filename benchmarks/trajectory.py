"""Perf-trajectory guard: merge benchmark artifacts, verify the claims.

Merges ``benchmarks/out/BENCH_scaling.json``,
``benchmarks/out/BENCH_bases.json`` and
``benchmarks/out/BENCH_methods.json`` into one
``benchmarks/out/BENCH_trajectory.json`` stamped with the commit SHA
and date, and *fails* (exit code 1) when any recorded speedup claim is
missing -- so a silently-skipped benchmark can never look green in CI.

Required claims (the engine's headline numbers across PRs):

* ``warm_session_speedup``    >= 5.0   (PR 1: cached sessions)
* ``batched_sweep_speedup``   >= 3.0   (PR 1: batched multi-RHS sweeps)
* ``windowed_march_speedup``  >= 1.8   (PR 2: windowed marching,
  recalibrated twice -- see WINDOWED_MARCH_FLOOR in bench_scaling.py)
* ``parallel_ensemble_speedup`` >= 2.5 (PR 5: parallel ensembles)
* ``cross_basis_coefficient_ratio`` >= 10.0 (PR 3: spectral bases)
* ``mor_reduced_sweep``       >= 5.0   (PR 6: certified reduced plans)
* ``service_coalesced_throughput`` >= 3.0 (PR 7: the coalescing daemon)
* ``soe_long_march``          >= 3.0   (PR 8: compressed fractional
  memory -- sum-of-exponentials tail with certified error)
* ``method_zoo_*_digits``     (PR 10: the fractional method zoo --
  worst-case correct digits of each registered method, the native OPM
  route included, against the Mittag-Leffler reference battery; see
  ``bench_methods.py``.  Accuracy floors, not timing ratios, so they
  are deterministic.)

One lower-is-better record rides along: ``src_loc``, the non-blank
lines of ``src/repro/**/*.py``.  Its ceiling ``SRC_LOC_CEILING`` is the
package size when it was last lowered; with ``--enforce`` a larger
package fails the guard, so growing the code is a deliberate edit of
the ceiling and shrinking it should lower the ceiling.

With ``--enforce``, claims must also reach their *enforcement floor*
-- exactly the ratio the owning benchmark asserts itself, so the guard
never flakes where the bench would pass (see ``REQUIRED_CLAIMS``;
since the windowed-march recalibration every claim's target equals
its floor -- a claimed number is an enforced number).  A
metric may record ``"enforced": false`` when its environment cannot
support the claim (the parallel-ensemble benchmark does so on
single-core machines -- the value is still recorded, distinguishing
"ran but unenforceable here" from "silently skipped"); such claims are
reported but do not fail the enforcing run.

Usage (what CI runs after the benchmark smoke)::

    python benchmarks/trajectory.py --sha "$GITHUB_SHA" --enforce

Standard library only: the guard must be runnable in a bare CI step
before (or without) installing the package.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"
SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Ceiling on ``src_loc`` (non-blank lines under ``src/repro``).
SRC_LOC_CEILING = 17229

#: (metric name, claimed trajectory value, enforcement floor) -- every
#: entry must be *present* in the merged trajectory; under --enforce
#: the measured value must also reach the floor (unless its record
#: says ``enforced: false``).  The floor mirrors exactly what each
#: benchmark itself asserts, so the guard never flakes where the bench
#: would pass, and every target now equals its floor: the windowed
#: march claims 1.8x over a 30x horizon, recalibrated after the PR 8
#: per-column kernel fast path sped the single giant-window baseline
#: past the old 10x-horizon shape (five measured runs span
#: 2.33-2.50x -- see WINDOWED_MARCH_FLOOR in bench_scaling.py); the
#: others claim the ratios their benchmarks assert.
REQUIRED_CLAIMS = (
    ("warm_session_speedup", 5.0, 5.0),
    ("batched_sweep_speedup", 3.0, 3.0),
    ("windowed_march_speedup", 1.8, 1.8),
    ("parallel_ensemble_speedup", 2.5, 2.5),
    ("cross_basis_coefficient_ratio", 10.0, 10.0),
    ("mor_reduced_sweep", 5.0, 5.0),
    ("service_coalesced_throughput", 3.0, 3.0),
    ("soe_long_march", 3.0, 3.0),
    ("hierarchy_flatten_throughput", 5000.0, 5000.0),
    ("method_zoo_opm_digits", 3.0, 3.0),
    ("method_zoo_gl_digits", 2.5, 2.5),
    ("method_zoo_jacobi_digits", 3.0, 3.0),
    ("method_zoo_oustaloup_digits", 1.5, 1.5),
)


def load_json(path: Path) -> dict | None:
    """Parse a benchmark artifact, ``None`` when absent."""
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def count_src_loc(root: Path = SRC_ROOT) -> int:
    """Non-blank lines of every ``*.py`` file under ``root``."""
    return sum(
        1
        for path in sorted(root.rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def build_trajectory(
    scaling: dict | None,
    bases: dict | None,
    methods: dict | None = None,
    *,
    sha: str = "unknown",
    date: str | None = None,
    src_loc: int | None = None,
) -> dict:
    """Merge the benchmark artifacts into one trajectory payload.

    Every required claim becomes an entry with ``present`` /
    ``meets_threshold`` / ``enforced`` flags; the full source metric
    records ride along for cross-PR diffing.  The method-zoo claims
    are satisfied either by metrics registered in the scaling payload
    (the CI smoke runs one pytest session) or derived directly from
    the ``BENCH_methods.json`` summary.  ``src_loc`` (when counted)
    becomes the lower-is-better ``src_loc`` record.
    """
    metrics = dict((scaling or {}).get("metrics", {}))
    for name, row in ((methods or {}).get("summary") or {}).items():
        metrics.setdefault(
            f"method_zoo_{name}_digits",
            {
                "value": row.get("digits"),
                "worst_case": row.get("worst_case"),
                "fine_m": row.get("fine_m"),
                "cases_validated": row.get("cases_validated"),
            },
        )
    claims = []
    for name, threshold, floor in REQUIRED_CLAIMS:
        record = metrics.get(name)
        value = record.get("value") if isinstance(record, dict) else None
        claims.append(
            {
                "name": name,
                "threshold": threshold,
                "floor": floor,
                "value": value,
                "present": record is not None,
                "meets_threshold": value is not None and value >= threshold,
                "meets_floor": value is not None and value >= floor,
                "enforced": (record or {}).get("enforced", True),
                "claim": (record or {}).get("claim"),
            }
        )
    src_record = None
    if src_loc is not None:
        src_record = {
            "value": src_loc,
            "ceiling": SRC_LOC_CEILING,
            "better": "lower",
            "meets_ceiling": src_loc <= SRC_LOC_CEILING,
        }
    if date is None:
        date = datetime.date.today().isoformat()
    return {
        "schema": 1,
        "commit": sha,
        "date": date,
        "claims": claims,
        "src_loc": src_record,
        "scaling": scaling,
        "bases": bases,
        "methods": methods,
    }


def check(trajectory: dict, *, enforce: bool) -> list[str]:
    """Return the list of failure messages (empty when green)."""
    failures = []
    for claim in trajectory["claims"]:
        name = claim["name"]
        if not claim["present"]:
            failures.append(
                f"claim {name!r} is missing: its benchmark did not run "
                "(or did not register its metric)"
            )
            continue
        if enforce and claim["enforced"] and not claim["meets_floor"]:
            failures.append(
                f"claim {name!r} below its enforcement floor: measured "
                f"{claim['value']:.3g}, required >= {claim['floor']:g} "
                f"(trajectory target {claim['threshold']:g})"
            )
    src_loc = trajectory.get("src_loc")
    if enforce and src_loc is not None and not src_loc["meets_ceiling"]:
        failures.append(
            f"src_loc {src_loc['value']} exceeds its ceiling "
            f"{src_loc['ceiling']}: the package grew (raise SRC_LOC_CEILING "
            "only for a deliberate addition)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Merge benchmark artifacts into BENCH_trajectory.json "
        "and fail on missing (or, with --enforce, unmet) speedup claims."
    )
    parser.add_argument(
        "--scaling", type=Path, default=OUT_DIR / "BENCH_scaling.json",
        help="path to BENCH_scaling.json",
    )
    parser.add_argument(
        "--bases", type=Path, default=OUT_DIR / "BENCH_bases.json",
        help="path to BENCH_bases.json",
    )
    parser.add_argument(
        "--methods", type=Path, default=OUT_DIR / "BENCH_methods.json",
        help="path to BENCH_methods.json (the method-zoo battery)",
    )
    parser.add_argument(
        "--out", type=Path, default=OUT_DIR / "BENCH_trajectory.json",
        help="merged artifact to write",
    )
    parser.add_argument("--sha", default="unknown", help="commit SHA to stamp")
    parser.add_argument(
        "--enforce", action="store_true",
        help="also fail when a present claim misses its threshold "
        "(claims recorded with enforced=false are exempt)",
    )
    args = parser.parse_args(argv)

    scaling = load_json(args.scaling)
    bases = load_json(args.bases)
    methods = load_json(args.methods)
    if scaling is None:
        print(f"error: {args.scaling} not found; run the benchmark smoke first",
              file=sys.stderr)
        return 1

    trajectory = build_trajectory(
        scaling, bases, methods, sha=args.sha, src_loc=count_src_loc()
    )
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} (commit {trajectory['commit']})")

    for claim in trajectory["claims"]:
        status = "MISSING"
        if claim["present"]:
            if claim["meets_threshold"]:
                status = "ok"
            elif not claim["enforced"]:
                status = "unenforced-here"
            elif claim["meets_floor"]:
                status = "below-target"
            else:
                status = "below-floor"
        value = "-" if claim["value"] is None else f"{claim['value']:.3g}"
        print(f"  {claim['name']:32s} {value:>8s}  (>= {claim['threshold']:g})  "
              f"[{status}]")
    src_loc = trajectory["src_loc"]
    status = "ok" if src_loc["meets_ceiling"] else "above-ceiling"
    print(
        f"  {'src_loc':32s} {src_loc['value']:>8d}  "
        f"(<= {src_loc['ceiling']})  [{status}]"
    )

    failures = check(trajectory, enforce=args.enforce)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
