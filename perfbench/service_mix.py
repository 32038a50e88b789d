"""service-mix: the serve daemon under two closed-loop client connections.

A ``python -m repro serve --port 0 --workers <nproc>`` daemon runs in a
subprocess; ``nproc`` client connections (one thread each) replay a
seeded 24-slot periodic request stream, each sending its next request
only after the previous response completed (the protocol serialises
requests per connection, so an open loop would only queue client-side).
Per period: Chebyshev (m=24) requests on 280/140/70-state RC ladders
returning ``n1`` at 8 samples (singles plus 4-scale sweeps) and one
churn request drawn from 16 deck variants, so the 8-session LRU keeps
evicting and rebuilding; every other period also carries one
full-waveform request (every node at default sampling, alternating JSON
and CSV).  With one per period, the full-waveform requests plus the
requests they hold up made ~8 % of all ops and put the p90 on the edge
of that slow cluster.
"""

from __future__ import annotations

import math
import os
import select
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import streams
from harness import ROOT, TAIL_MIN_BEYOND, OpLog, child_env, nproc, overhead_ratio
from tracer import Span, Tracer

NAME = "service-mix"
SETUP_REPEATS = 5
MIN_BEYOND = TAIL_MIN_BEYOND
#: Requests generated per run; connections stop at the deadline long before.
STREAM_LENGTH = 20000
#: Periods whose responses are kept for verification (one seeded period
#: per slot).
VERIFY_PERIODS = 8
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
#: The reported peak RSS is the daemon's high-water mark after this many
#: completed requests: a fixed amount of work, so a run that happens to
#: serve more requests in its time does not read as using more memory.
RSS_AT_REQUESTS = 1000
#: Session kinds touched once while the daemon sets up.
FIRST_TOUCH = ("cheb_main", "cheb_mid", "cheb_small", "full_waveform")
#: Coalesced responses share a batched sweep with other requests' columns,
#: which may round differently from a solo solve in the last bits.
COALESCED_RTOL = 1e-12


class Daemon:
    """A serve daemon subprocess, from spawn to its peak RSS at exit."""

    def __init__(self) -> None:
        from repro.engine.service import ServiceClient

        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(nproc())],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline().decode() if ready else ""
            if "listening on" not in line:
                raise RuntimeError(f"daemon did not announce its port: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            with ServiceClient("127.0.0.1", self.port, timeout=START_TIMEOUT_S) as c:
                if not c.ping():
                    raise RuntimeError("daemon did not answer ping")
        except BaseException:
            self.kill()
            raise

    def hwm_mb(self) -> float:
        """The daemon's resident-memory high-water mark so far (Linux)."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def client(self):
        from repro.engine.service import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)

    def stats(self) -> dict:
        with self.client() as c:
            return c.stats()

    def kill(self) -> float:
        if self.proc.poll() is None:
            self.proc.kill()
        return self._reap(timeout=30)

    def stop(self) -> float:
        """Shut down gracefully; return the daemon's peak RSS (MB)."""
        try:
            with self.client() as c:
                c.shutdown()
        except OSError:
            pass
        return self._reap(timeout=30)

    def _reap(self, timeout: float) -> float:
        deadline = time.perf_counter() + timeout
        while True:
            pid, _, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = 0
                self.proc.stdout.close()
                return usage.ru_maxrss / 1024.0
            if time.perf_counter() > deadline:
                self.proc.kill()
                _, _, usage = os.wait4(self.proc.pid, 0)
                self.proc.returncode = -9
                self.proc.stdout.close()
                return usage.ru_maxrss / 1024.0
            time.sleep(0.01)


def start_daemon(seed: int) -> tuple[Daemon, float]:
    """Spawn, ping and first-touch the resident sessions; time it all."""
    daemon = Daemon()
    try:
        first = {}
        for item in streams.service_stream(seed, streams.SERVICE_PERIOD * 2):
            first.setdefault(item["kind"], item["request"])
        with daemon.client() as c:
            for kind in FIRST_TOUCH:
                c.simulate(**dict(first[kind]))
    except BaseException:
        daemon.kill()
        raise
    return daemon, time.perf_counter() - daemon.started


def fire(daemon: Daemon, stream: list[dict], seconds: float, keep: set[int]) -> tuple[list, float, float | None]:
    """Replay ``stream`` over ``nproc`` closed-loop connections.

    Returns one record per attempted request --
    ``(index, kind, start, end, server_ms, info, output, error)`` --, the
    wall time, and the daemon's RSS high-water mark once
    ``RSS_AT_REQUESTS`` requests have completed (``None`` if fewer did).
    Outputs are kept only for indices in ``keep``.
    """
    clients = nproc()
    records: list[list] = [[] for _ in range(clients)]
    deadline = time.perf_counter() + seconds
    completed = [0]
    hwm: list[float] = []
    lock = threading.Lock()

    def connection(k: int) -> None:
        try:
            client = daemon.client()
        except OSError as exc:
            records[k].append((k, "connect", 0.0, 0.0, 0.0, {}, None, str(exc)))
            return
        with client:
            for index in range(k, len(stream), clients):
                if time.perf_counter() >= deadline:
                    return
                item = stream[index]
                start = time.perf_counter()
                try:
                    out = client.simulate(**dict(item["request"]))
                except Exception as exc:
                    end = time.perf_counter()
                    records[k].append((index, item["kind"], start, end, 0.0, {}, None,
                                       f"{type(exc).__name__}: {exc}"))
                    if isinstance(exc, OSError):
                        return
                    continue
                end = time.perf_counter()
                records[k].append((index, item["kind"], start, end, out["latency_ms"],
                                   out["info"], out if index in keep else None, None))
                with lock:
                    completed[0] += 1
                    if completed[0] == RSS_AT_REQUESTS:
                        hwm.append(daemon.hwm_mb())

    start = time.perf_counter()
    threads = [threading.Thread(target=connection, args=(k,)) for k in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    merged = sorted((r for rs in records for r in rs), key=lambda r: r[2])
    return merged, wall, (hwm[0] if hwm else None)


# ----------------------------------------------------------------------
# correctness: cold in-process solves of the same requests
# ----------------------------------------------------------------------
def cold_solve(request: dict, batch: int):
    """What the response must equal: the same solve on a fresh session.

    A request served alone (``batch`` equals its run count) is solved
    exactly as the daemon solves it -- ``run`` for one scale, one
    ``sweep`` for several -- so the answer must be bit-identical.
    Returns ``(sim, inputs, [(t, values), ...])``.
    """
    from repro.engine import Simulator

    grid = request.get("grid")
    sim = Simulator.from_netlist(
        request["netlist"],
        tuple(grid) if grid is not None else None,
        outputs=request.get("outputs"),
        basis=request.get("basis"),
    )
    u = sim.bound_input
    scales = request.get("scales") or [request.get("scale", 1.0)]
    inputs = [streams.scaled_input(u, float(s)) for s in scales]
    results = solve(sim, inputs, batch)
    return sim, inputs, [sample(res, request) for res in results]


def solve(sim, inputs: list, batch: int) -> list:
    """``run`` for a batch of one, else one ``sweep`` padded to ``batch``."""
    if batch == 1:
        return [sim.run(inputs[0])]
    padded = (inputs * math.ceil(batch / len(inputs)))[:batch]
    return list(sim.sweep(padded))[: len(inputs)]


def sample(res, request: dict) -> tuple[np.ndarray, np.ndarray]:
    samples = request.get("samples")
    t = res.sample_times(int(samples)) if samples else res.sample_times()
    return t, res.outputs(t)


def response_runs(out: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    """Decode a response (JSON or CSV) into ``(t, values)`` per run."""
    if "csv" in out:
        blocks: list[list[list[float]]] = []
        for line in out["csv"].splitlines():
            if line.startswith("t,"):  # each run's CSV starts with a header
                blocks.append([])
            elif line:
                blocks[-1].append([float(x) for x in line.split(",")])
        return [(np.array(b)[:, 0], np.array(b)[:, 1:].T) for b in blocks]
    return [(np.asarray(r["t"]), np.asarray(r["values"])) for r in out["runs"]]


def check_response(out: dict, expected, exact: bool) -> str | None:
    """Bit-identity when ``exact``; else (coalesced with other requests,
    so the batch's columns differ) agreement within ``COALESCED_RTOL``."""
    got = response_runs(out)
    if len(got) != len(expected):
        return f"{len(got)} runs returned, {len(expected)} expected"
    for (t, v), (te, ve) in zip(got, expected):
        if t.shape != te.shape or v.shape != ve.shape:
            return f"shape {v.shape} != {ve.shape}"
        if not np.array_equal(t, te):
            return "sample times differ from a cold solve"
        if np.array_equal(v, ve):
            continue
        rel = float(np.max(np.abs(v - ve)) / max(np.max(np.abs(ve)), 1e-300))
        if exact or rel > COALESCED_RTOL:
            return f"response differs from a cold solve (relative {rel:.3e})"
    return None


def verify_and_replay(stream: list[dict], records: list) -> tuple[list[str], list[float]]:
    """Check every kept response; time an in-process replay of each.

    The replay repeats the request's solve at the batch size the header
    reports, and its sampling, on the now-warm session, so
    ``server_ms - replay_ms`` is the daemon's own overhead: queueing,
    coalesce wait and serialisation.
    """
    failures, overhead = [], []
    for index, kind, _, _, server_ms, info, out, error in records:
        if out is None or error is not None:
            continue
        request = stream[index]["request"]
        batch = max(1, int(info.get("batch_runs", 1)))
        sim, inputs, expected = cold_solve(request, batch)
        reason = check_response(out, expected, exact=batch == len(inputs))
        if reason is not None:
            failures.append(f"{kind}#{index}: {reason}")
            continue
        times = []
        for _ in range(3):
            start = time.perf_counter()
            for res in solve(sim, inputs, batch):
                sample(res, request)
            times.append((time.perf_counter() - start) * 1e3)
        overhead.append(server_ms - min(times))
    return failures, overhead


def _log(records: list, wall: float) -> OpLog:
    log = OpLog(wall_s=wall)
    for _, kind, start, end, _, _, _, error in records:
        log.record(kind, (end - start) * 1e3, error)
    return log


def _delta(after: dict, before: dict, *keys) -> float:
    a, b = after, before
    for key in keys:
        a, b = a[key], b[key]
    return float(a - b)


def _keep(seed: int, n_periods: int) -> set[int]:
    """Stream indices whose responses are verified: one period per slot."""
    periods = streams.verify_periods(seed, n_periods)
    return {p * streams.SERVICE_PERIOD + slot for slot, p in enumerate(periods)}


def measure(seed: int, seconds: float) -> dict:
    setup_s = []
    daemon = None
    try:
        for _ in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
                daemon = None
            daemon, elapsed = start_daemon(seed)
            setup_s.append(elapsed)
        stream = streams.service_stream(seed, STREAM_LENGTH)
        before = daemon.stats()
        records, wall, hwm = fire(daemon, stream, seconds, _keep(seed, VERIFY_PERIODS))
        after = daemon.stats()
    finally:
        peak = daemon.stop() if daemon is not None else 0.0
    log = _log(records, wall)
    failures, _ = verify_and_replay(stream, records)
    for reason in failures:
        log.record("verify", 0.0, reason)
    errors = _delta(after, before, "errors")
    if errors and not log.failed:
        log.record("stats", 0.0, f"daemon counted {errors:g} errors")
    return {
        "log": log,
        "setup_s": setup_s,
        "peak_rss_mb": hwm if hwm is not None else peak,
        "min_beyond": MIN_BEYOND,
    }


def layers(seed: int, seconds: float, probe: bool) -> dict:
    """Service-layer metrics, measured from outside the daemon.

    Outside ``probe`` mode one untraced half-run precedes the traced
    half-run on the same daemon, giving the trace overhead ratio.
    """
    daemon = None
    try:
        daemon, _ = start_daemon(seed)
        stream = streams.service_stream(seed, STREAM_LENGTH)
        keep = _keep(seed, VERIFY_PERIODS if not probe else 1)
        untraced = None
        if not probe:
            records, wall, _ = fire(daemon, stream, seconds / 2, set())
            untraced = _log(records, wall)
        before = daemon.stats()
        budget = seconds / 2 if not probe else 2.0
        records, wall, _ = fire(daemon, stream, budget, keep)
        after = daemon.stats()
    finally:
        if daemon is not None:
            daemon.stop()

    tracer = Tracer()
    for op_id, (index, kind, start, end, server_ms, info, _, error) in enumerate(records):
        tracer.spans.append(Span(len(tracer.spans), f"op.{kind}", start, end, None, op_id))
        server_start = max(start, end - server_ms / 1e3)
        tracer.spans.append(
            Span(len(tracer.spans), "engine.service", server_start, end, len(tracer.spans) - 1, op_id)
        )
        if error is None and info.get("warm") is False:
            tracer.count("engine.service.factorisations")
    log = _log(records, wall)
    failures, overhead = verify_and_replay(stream, records)
    for reason in failures:
        log.record("verify", 0.0, reason)

    ok = [r for r in records if r[7] is None]
    server = [r[4] for r in ok]
    wire = [(r[3] - r[2]) * 1e3 - r[4] for r in ok]

    def kind_ms(kind, fmt):
        xs = [(r[3] - r[2]) * 1e3 for r in ok
              if r[1] == kind and stream[r[0]]["request"].get("format") == fmt]
        return statistics.median(xs) if xs else math.nan

    hits = _delta(after, before, "sessions", "hits")
    misses = _delta(after, before, "sessions", "misses")
    batches = _delta(after, before, "batches")
    metrics = {
        "engine.service.server_ms": statistics.median(server),
        "engine.service.wire_ms": statistics.median(wire),
        "engine.service.overhead_ms": statistics.median(overhead) if overhead else math.nan,
        "engine.service.full_waveform_json_ms": kind_ms("full_waveform", "json"),
        "engine.service.full_waveform_csv_ms": kind_ms("full_waveform", "csv"),
        "engine.service.coalesce_ratio": (
            _delta(after, before, "batched_runs") / batches if batches > 0 else math.nan
        ),
        "engine.service.session_hit_ratio": (
            hits / (hits + misses) if hits >= 0 and misses >= 0 and hits + misses > 0 else math.nan
        ),
        "engine.service.session_builds": misses,
        "engine.service.session_evictions": _delta(after, before, "sessions", "evictions"),
        "engine.service.factorisations": tracer.counts["engine.service.factorisations"],
        "engine.backends.factorisations": (
            tracer.counts["engine.service.factorisations"] / max(1, len(records))
        ),
        # stats()["bank"] sums live sessions only, so evictions can make
        # this delta negative: recorded as read, never turned into a rate
        "engine.service.bank_factorisations": _delta(after, before, "bank", "factorisations"),
    }
    if untraced is not None:
        metrics["trace.overhead_ratio"] = overhead_ratio(log, untraced)
        metrics["trace.uncovered_ms"] = statistics.median(wire)
        log.failures.extend(untraced.failures)
    return {"metrics": metrics, "log": log, "tracer": tracer}
