"""Measurement primitives shared by every workload.

* :func:`percentile` -- nearest-rank quantiles with the tail rule: a
  tail percentile is only reported when at least ``min_beyond``
  samples lie above it.
* :class:`OpLog` -- the closed-loop op record.  Every attempted op is
  logged; an op that raised, timed out or failed its output check is
  *failed* and enters the latency percentiles as ``inf``, so a failure
  counts against every latency limit and is never dropped.
* :func:`environment` -- the machine/software facts recorded with every
  run.
* :func:`child_env` -- the pinned environment of every process the
  benchmark starts.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Samples that must lie beyond a tail percentile before it is reported.
TAIL_MIN_BEYOND = 10

#: Thread-count variables pinned to 1 in the benchmark and its children.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for run records, traces and temporary files (git-ignored).
WORK = ROOT / ".perfbench"


def nproc() -> int:
    """Usable cores: the size of every worker pool and connection set."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def child_env() -> dict[str, str]:
    """Environment for child processes: pinned threads, the checkout's src."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def percentile(samples, q: float, min_beyond: int = 0) -> float | None:
    """Nearest-rank ``q``-quantile of ``samples``.

    Returns ``None`` when fewer than ``min_beyond`` samples lie strictly
    beyond the chosen rank (so ``percentile(xs, 0.9, 10)`` needs at
    least 100 samples) or when there are no samples.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return None
    rank = min(n, max(1, math.ceil(q * n)))  # 1-based
    if n - rank < min_beyond:
        return None
    return xs[rank - 1]


@dataclass
class OpLog:
    """Closed-loop op record: class, latency and outcome of every op."""

    classes: list[str] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: Wall time of the op loop, and the part of it spent checking outputs
    #: (excluded from the throughput).
    wall_s: float = 0.0
    check_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, op_class: str, latency_ms: float, error: str | None = None):
        """Log one op; ``error`` marks it failed (latency becomes inf)."""
        self.classes.append(op_class)
        if error is None:
            self.latencies_ms.append(latency_ms)
        else:
            self.latencies_ms.append(math.inf)
            self.failures.append(f"{op_class}: {error}")

    def timed(self, op_class: str, fn, check=None):
        """Run ``fn()`` as one op, then ``check(result)`` outside the timing.

        ``check`` returns ``None`` when the output is right and a reason
        otherwise.  Any exception from either call fails the op.
        """
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an op that raises is a failed op
            self.record(op_class, 0.0, f"{type(exc).__name__}: {exc}")
            return None
        end = time.perf_counter()
        try:
            reason = check(out) if check is not None else None
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        self.check_s += time.perf_counter() - end
        self.record(op_class, (end - start) * 1e3, reason)
        return out

    def class_latencies(self, op_class: str) -> list[float]:
        return [x for c, x in zip(self.classes, self.latencies_ms) if c == op_class]

    def summary(self, min_beyond: int = TAIL_MIN_BEYOND) -> dict:
        """p50/p90/ops_per_s plus the sample counts behind them."""
        n = self.attempted
        p90 = percentile(self.latencies_ms, 0.9, min_beyond)
        beyond = n - max(1, math.ceil(0.9 * n)) if n else 0
        busy = self.wall_s - self.check_s
        return {
            "p50_ms": percentile(self.latencies_ms, 0.5),
            "p90_ms": p90,
            "ops_per_s": n / busy if busy > 0 else None,
            "ops": n,
            "p90_samples_beyond": beyond,
            "wall_s": self.wall_s,
        }


def overhead_ratio(traced: OpLog, untraced: OpLog) -> float:
    """Traced p50 over untraced p50: what recording spans costs."""
    return statistics.median(traced.latencies_ms) / statistics.median(untraced.latencies_ms)


def self_peak_rss_mb() -> float:
    """High-water resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(cmd, *, timeout: float):
    """Run ``cmd`` to completion: ``(wall_s, returncode, peak_rss_mb, stderr)``.

    ``os.wait4`` gives the child's own resource usage, so the peak RSS
    is that process's, not a running maximum over all children.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )
    deadline = start + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = -9
            proc.stderr.close()
            return time.perf_counter() - start, -9, usage.ru_maxrss / 1024.0, "timeout"
        time.sleep(0.002)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = proc.stderr.read().decode(errors="replace")
    proc.stderr.close()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, err


def stop_helpers() -> None:
    """Stop and reap every helper process this process started.

    A shared-memory segment starts multiprocessing's resource tracker,
    which would otherwise outlive this process (and end unreaped); any
    pool worker still alive is joined first, since a forked worker holds
    the tracker's pipe open.  Call it last: freeing another segment
    afterwards would start a fresh tracker.
    """
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()
    forkserver._forkserver._stop()


def commit_sha() -> str:
    """The checkout's commit, when it is a git work tree; else ``unknown``."""
    if not (ROOT / ".git").exists():  # never let git search above the checkout
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    """Facts recorded with every run."""
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit_sha(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "executable": Path(sys.executable).name,
    }
