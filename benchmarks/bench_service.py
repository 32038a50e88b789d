"""Service load benchmark: coalesced throughput and tail latency.

Boots a real :class:`~repro.engine.service.SimulationService` on an
ephemeral port and replays a mixed request stream -- mostly repeat
transients of one RC-ladder deck at different drive scales, salted
with multi-scale *sweep requests* and two smaller decks -- from
concurrent client connections.  The baseline is the honest
serial-per-request cost: a fresh parse + MNA assembly + operator
build + factorisation + solve for every request, which is exactly
what a stateless one-shot runner (``python -m repro --netlist ...``)
pays, measured in-process without any socket overhead.

Every request asks for a Chebyshev spectral session (``basis`` +
``grid`` override in the request schema): for these smooth drives a
24-term spectral solve matches the deck's 400-step staircase to
~1e-2, and it puts the workload in the regime the daemon is built
for -- almost all of the per-request cost is the session build
(parse, MNA assembly, Kronecker operator, factorisation), which the
session LRU amortises across requests, while the coalescing
scheduler folds concurrent same-fingerprint arrivals into one
batched multi-RHS sweep against the cached factorisation.

The benchmark asserts the combined effect -- coalesced service
throughput >= ``SERVICE_CLAIM`` x the serial-per-request rate -- and
records p50/p99 request latency from the daemon's own stats endpoint
into ``BENCH_scaling.json`` (merged into ``BENCH_trajectory.json``
by ``trajectory.py``).

The serial baseline rate is measured over an evenly-strided
subsample of the stream (the stride is kept coprime with the
stream's generating period, so the subsample preserves the workload
mix) -- rates are stationary per request class, and replaying every
request cold would only re-measure the same number hundreds of times
over.

Run standalone against a live daemon for the CI smoke test::

    python -m repro serve --port 7777 &
    python benchmarks/bench_service.py --burst --port 7777 --shutdown
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.engine import Simulator
from repro.engine.service import ServiceClient, serve

SERVICE_TABLE = "SERVICE (coalesced daemon vs serial-per-request)"
SERVICE_COLUMNS = [
    "Workload",
    "Serial rate",
    "Service rate",
    "Speedup",
    "p50 / p99",
    "Claim",
]

#: Enforced floor on coalesced-throughput over serial-per-request.
SERVICE_CLAIM = 3.0

#: Concurrent client connections (coalescing happens *across*
#: connections: each thread owns one socket).
CLIENTS = 8

#: Requests per client at REPRO_BENCH_SCALE=1.
REQUESTS_PER_CLIENT = 125

#: Scales carried by one sweep request.
SWEEP_SCALES = [0.5, 0.8, 1.25, 2.0]

#: The stream pattern repeats with this period (see request_stream).
STREAM_PERIOD = 12

#: Serial-baseline subsample size (strided over the stream).
BASELINE_SAMPLE = 48


def ladder_deck(sections: int, m: int = 400, t_end: float = 1e-3) -> str:
    """An RC-ladder deck: ``sections`` states, ``m`` time steps."""
    lines = ["* RC ladder", "I1 0 n1 SIN(0 1m 2k)"]
    for i in range(1, sections + 1):
        tail = f"n{i + 1}" if i < sections else "0"
        lines.append(f"R{i} n{i} {tail} 1k")
        lines.append(f"C{i} n{i} 0 1u")
    lines.append(f".tran {t_end / m:g} {t_end:g}")
    return "\n".join(lines) + "\n"


DECK_MAIN = ladder_deck(280)
DECK_MID = ladder_deck(140)
DECK_SMALL = ladder_deck(70)

#: Per-request session override: a 24-term Chebyshev spectral grid,
#: observing the driven node only (the default -- every node voltage
#: -- would spend the bench serialising 280-column waveforms).
GRID = [1e-3, 24]
BASIS = "chebyshev"
OUTPUTS = ["n1"]


def request_stream(total: int) -> list[dict]:
    """The mixed request stream: a fixed periodic pattern.

    Per period of ``STREAM_PERIOD`` (12): nine single-scale requests
    on the main deck (the coalescable bulk), one four-scale sweep
    request, and one request each on the two smaller decks
    (session-LRU churn).
    """
    stream = []
    for i in range(total):
        base = {"grid": GRID, "basis": BASIS, "outputs": OUTPUTS, "samples": 8}
        slot = i % STREAM_PERIOD
        if slot == 9:
            base.update(netlist=DECK_MAIN, scales=SWEEP_SCALES)
        elif slot == 10:
            base.update(netlist=DECK_MID, scale=0.5 + (i % 8) / 4.0)
        elif slot == 11:
            base.update(netlist=DECK_SMALL, scale=0.5 + (i % 8) / 4.0)
        else:
            base.update(netlist=DECK_MAIN, scale=0.5 + (i % 16) / 8.0)
        stream.append(base)
    return stream


def baseline_subsample(stream: list[dict]) -> list[dict]:
    """An evenly-strided subsample preserving the workload mix.

    The stride is pushed up until coprime with ``STREAM_PERIOD`` so
    the strided indices cycle through *every* pattern slot instead of
    resonating with a subset of them.
    """
    stride = max(1, len(stream) // BASELINE_SAMPLE)
    while math.gcd(stride, STREAM_PERIOD) != 1:
        stride += 1
    return stream[::stride]


def run_count(request: dict) -> int:
    return len(request.get("scales") or [0])


def serve_request_cold(request: dict) -> None:
    """What a stateless runner pays: fresh session, serial runs."""
    sim = Simulator.from_netlist(
        request["netlist"],
        tuple(request["grid"]),
        outputs=request.get("outputs"),
        basis=request["basis"],
    )
    u = sim.bound_input
    for scale in request.get("scales") or [request.get("scale", 1.0)]:
        if scale == 1.0:
            sim.run(u)
        else:
            sim.run(lambda t, _s=scale: _s * np.asarray(u(t)))


class DaemonHandle:
    """A live service daemon in a background thread, plus cleanup."""

    def __init__(self, **kwargs):
        import threading

        self._started = threading.Event()
        self.service = None

        def announce(svc):
            self.service = svc
            self._started.set()

        self.thread = threading.Thread(
            target=serve,
            kwargs={"announce": announce, "port": 0, **kwargs},
            daemon=True,
        )
        self.thread.start()
        assert self._started.wait(30), "service failed to start"

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.service.port, **kwargs)

    def stop(self) -> None:
        try:
            with self.client(timeout=10) as c:
                c.shutdown()
        except OSError:
            pass
        self.thread.join(timeout=30)


def fire_stream(
    stream: list[dict], clients: int, make_client, timeout: float = 300.0
) -> float:
    """Replay the stream from ``clients`` concurrent connections.

    Returns the wall time from first send to last response.  Requests
    are interleaved round-robin so every connection carries the full
    workload mix concurrently.
    """

    def worker(shard: list[dict]) -> None:
        with make_client(timeout=timeout) as c:
            for request in shard:
                c.simulate(**request)

    shards = [stream[k::clients] for k in range(clients)]
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        list(pool.map(worker, shards))
    return time.perf_counter() - start


def test_service_coalesced_throughput(benchmark):
    from conftest import bench_scale, register_metric, register_row

    stream = request_stream(CLIENTS * REQUESTS_PER_CLIENT * bench_scale())
    total_runs = sum(run_count(r) for r in stream)

    # -- serial-per-request baseline (mix-preserving subsample) --------
    subsample = baseline_subsample(stream)
    sub_runs = sum(run_count(r) for r in subsample)
    start = time.perf_counter()
    for request in subsample:
        serve_request_cold(request)
    serial_wall = time.perf_counter() - start
    serial_rate = sub_runs / serial_wall

    # -- the coalescing daemon -----------------------------------------
    handle = DaemonHandle(max_batch=96, workers=2)
    try:
        service_wall = benchmark.pedantic(
            lambda: fire_stream(stream, CLIENTS, handle.client),
            rounds=1,
            iterations=1,
        )
        with handle.client() as c:
            stats = c.stats()

            # warm-bank responses are bit-identical to a cold solve
            out = c.simulate(
                netlist=DECK_MAIN, grid=GRID, basis=BASIS, outputs=OUTPUTS
            )
        cold = Simulator.from_netlist(
            DECK_MAIN, tuple(GRID), outputs=OUTPUTS, basis=BASIS
        )
        res = cold.run(cold.bound_input)
        t_cold = res.sample_times()
        np.testing.assert_array_equal(np.asarray(out["t"]), t_cold)
        np.testing.assert_array_equal(
            np.asarray(out["values"]), res.outputs(t_cold)
        )
    finally:
        handle.stop()

    service_rate = total_runs / service_wall
    speedup = service_rate / serial_rate
    p50 = stats["latency_ms"]["p50"]
    p99 = stats["latency_ms"]["p99"]

    assert stats["requests"] == len(stream)
    assert stats["errors"] == 0
    assert stats["coalesced_batches"] >= 1, "no batch ever coalesced"
    assert stats["coalesce_ratio"] > 1.0
    assert stats["sessions"]["hits"] > stats["sessions"]["misses"]

    register_metric(
        "service_coalesced_throughput",
        speedup,
        serial_rate_runs_per_s=serial_rate,
        service_rate_runs_per_s=service_rate,
        requests=len(stream),
        runs=total_runs,
        clients=CLIENTS,
        p50_ms=p50,
        p99_ms=p99,
        coalesce_ratio=stats["coalesce_ratio"],
        largest_batch=stats["largest_batch"],
        session_hit_rate=stats["sessions"]["hits"]
        / max(1, stats["sessions"]["hits"] + stats["sessions"]["misses"]),
        claim=f">= {SERVICE_CLAIM:g}x serial-per-request",
    )
    register_row(
        SERVICE_TABLE,
        SERVICE_COLUMNS,
        [
            f"{len(stream)} req / {total_runs} runs, {CLIENTS} clients",
            f"{serial_rate:.1f} runs/s",
            f"{service_rate:.1f} runs/s",
            f"{speedup:.2f}x",
            f"{p50:.1f} / {p99:.1f} ms",
            f">= {SERVICE_CLAIM:g}x",
        ],
    )
    assert speedup >= SERVICE_CLAIM, (
        f"coalesced throughput {speedup:.2f}x below the {SERVICE_CLAIM:g}x claim"
    )


# ----------------------------------------------------------------------
# standalone burst mode: the CI service smoke test
# ----------------------------------------------------------------------
def burst(host: str, port: int, requests: int, clients: int) -> dict:
    """Fire a small mixed burst at a live daemon; return its stats."""
    stream = request_stream(requests)

    def make_client(timeout: float = 300.0) -> ServiceClient:
        return ServiceClient(host, port, timeout=timeout)

    wall = fire_stream(stream, clients, make_client)
    with make_client() as c:
        stats = c.stats()
    stats["burst_wall_s"] = wall
    stats["burst_requests"] = len(stream)
    return stats


def main(argv=None) -> int:
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        description="Service smoke: fire a mixed burst at a live daemon "
        "and assert it coalesced work and hit its caches."
    )
    parser.add_argument("--burst", action="store_true", required=True,
                        help="run the burst smoke (the only standalone mode)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--requests", type=int, default=40)
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--shutdown", action="store_true",
                        help="ask the daemon to stop afterwards")
    args = parser.parse_args(argv)

    stats = burst(args.host, args.port, args.requests, args.clients)
    print(json.dumps(stats, indent=2, sort_keys=True))

    failures = []
    if stats["errors"]:
        failures.append(f"{stats['errors']} request(s) errored")
    if stats["coalesced_batches"] < 1:
        failures.append("no batch ever coalesced")
    if stats["sessions"]["hits"] < 1:
        failures.append("no session-cache hit")
    if stats["bank"]["hits"] < 1:
        failures.append("no pencil-bank hit")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)

    if args.shutdown:
        with ServiceClient(args.host, args.port) as c:
            c.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
