"""Tests for the simulation service daemon and its client.

Each test boots a real :class:`SimulationService` on an ephemeral port
in a background thread and talks to it over TCP through
:class:`ServiceClient` -- the protocol, the coalescing scheduler, the
session LRU, and the stats endpoint are all exercised end to end.
"""

import asyncio
import json
import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.circuits.cards import OPTION_ROWS
from repro.engine import Simulator
from repro.engine import service as service_module
from repro.engine.service import ServiceClient, SimulationService, serve
from repro.errors import ServiceError

DECK = """
I1 0 n1 1m
R1 n1 0 1k
C1 n1 0 1u
.tran 50u 5m
"""

DECK_FAST = """
I1 0 n1 1m
R1 n1 0 1k
C1 n1 0 100n
.tran 50u 5m
"""

SYSTEM_SPEC = {"E": [[1.0]], "A": [[-1.0]], "B": [[1.0]]}


class ServiceHandle:
    """A live daemon in a background thread plus cleanup."""

    def __init__(self, **kwargs):
        self._started = threading.Event()
        self.service = None

        def announce(svc):
            self.service = svc
            self._started.set()

        self.thread = threading.Thread(
            target=serve, kwargs={"announce": announce, "port": 0, **kwargs},
            daemon=True,
        )
        self.thread.start()
        assert self._started.wait(15), "service failed to start"

    @property
    def port(self) -> int:
        return self.service.port

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, **kwargs)

    def stop(self):
        try:
            with self.client(timeout=10) as c:
                c.shutdown()
        except (OSError, ServiceError):
            pass
        self.thread.join(timeout=15)


@pytest.fixture
def daemon():
    handle = ServiceHandle()
    yield handle
    handle.stop()


def direct_values(deck=DECK, scale=1.0, samples=None):
    """The same request computed directly, for bit-identity checks."""
    sim = Simulator.from_netlist(deck)
    u = sim.bound_input
    if scale != 1.0:
        base = u
        u = lambda t: scale * np.asarray(base(t))
    res = sim.run(u)
    t = res.sample_times(samples) if samples else res.sample_times()
    return t, res.outputs(t)


class TestProtocol:
    def test_ping_and_stats(self, daemon):
        with daemon.client() as c:
            assert c.ping()
            stats = c.stats()
        assert stats["requests"] == 0
        assert stats["sessions"]["entries"] == 0
        assert {"p50", "p99", "mean", "count"} <= set(stats["latency_ms"])

    def test_netlist_simulate_bit_identical_to_direct(self, daemon):
        with daemon.client() as c:
            out = c.simulate(netlist=DECK)
        t_direct, v_direct = direct_values()
        assert out["info"]["coalesced"] is False
        np.testing.assert_array_equal(np.asarray(out["t"]), t_direct)
        np.testing.assert_array_equal(np.asarray(out["values"]), v_direct)

    def test_warm_request_bit_identical_to_cold(self, daemon):
        with daemon.client() as c:
            cold = c.simulate(netlist=DECK, scale=2.0)
            warm = c.simulate(netlist=DECK, scale=2.0)
            stats = c.stats()
        assert cold["info"]["warm"] is False
        assert warm["info"]["warm"] is True
        np.testing.assert_array_equal(
            np.asarray(cold["values"]), np.asarray(warm["values"])
        )
        assert stats["sessions"]["hits"] >= 1
        assert stats["sessions"]["misses"] == 1
        assert stats["bank"]["hits"] >= 1

    def test_system_spec_request(self, daemon):
        with daemon.client() as c:
            out = c.simulate(system=SYSTEM_SPEC, grid=[5.0, 100], input=1.0)
        from repro.core import DescriptorSystem

        sim = Simulator(DescriptorSystem([[1.0]], [[-1.0]], [[1.0]]), (5.0, 100))
        res = sim.run(1.0)
        t = res.sample_times()
        np.testing.assert_array_equal(np.asarray(out["values"]), res.outputs(t))

    def test_sweep_request_many_scales(self, daemon):
        scales = [0.5, 1.0, 2.0]
        with daemon.client() as c:
            out = c.simulate(netlist=DECK, scales=scales, samples=16)
        assert len(out["runs"]) == 3
        for scale, run in zip(scales, out["runs"]):
            t_direct, v_direct = direct_values(scale=scale, samples=16)
            np.testing.assert_allclose(
                np.asarray(run["values"]), v_direct, rtol=1e-12, atol=1e-15
            )
        # linearity sanity: the x2 run is exactly 4x the x0.5 run
        np.testing.assert_allclose(
            np.asarray(out["runs"][2]["values"]),
            4.0 * np.asarray(out["runs"][0]["values"]),
            rtol=1e-12,
        )

    def test_csv_format(self, daemon):
        with daemon.client() as c:
            out = c.simulate(netlist=DECK, samples=8, format="csv")
        lines = out["csv"].strip().splitlines()
        assert lines[0].startswith("t,")
        assert len(lines) == 1 + 8
        t_direct, v_direct = direct_values(samples=8)
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == t_direct[0]
        assert first[1] == v_direct[0, 0]

    def test_outputs_selector_narrows_columns(self, daemon):
        deck = """
        I1 0 n1 1m
        R1 n1 n2 1k
        C1 n1 0 1u
        R2 n2 0 1k
        C2 n2 0 1u
        .tran 50u 5m
        """
        with daemon.client() as c:
            both = c.simulate(netlist=deck, samples=8)
            only_n2 = c.simulate(netlist=deck, outputs=["n2"], samples=8)
            stats = c.stats()
        assert both["cols"] == 2
        assert only_n2["cols"] == 1
        # different output maps must never share a session: the C
        # matrix is part of the session fingerprint
        assert stats["sessions"]["entries"] == 2
        sim = Simulator.from_netlist(deck, outputs=["n2"])
        res = sim.run(sim.bound_input)
        t = res.sample_times(8)
        np.testing.assert_array_equal(
            np.asarray(only_n2["values"]), res.outputs(t)
        )

    def test_bad_requests_fail_cleanly(self, daemon):
        with daemon.client() as c:
            with pytest.raises(ServiceError, match="exactly one of"):
                c.simulate(scale=1.0)
            with pytest.raises(ServiceError, match="grid"):
                c.simulate(system=SYSTEM_SPEC, input=1.0)
            with pytest.raises(ServiceError, match="format"):
                c.simulate(netlist=DECK, format="xml")
            with pytest.raises(ServiceError, match="unknown op"):
                c._round_trip({"op": "explode"})
            with pytest.raises(ServiceError, match="netlist requests only"):
                c.simulate(
                    system=SYSTEM_SPEC, grid=[5.0, 100], input=1.0,
                    outputs=["n1"],
                )
            # the connection survives an error line
            assert c.ping()
            assert c.stats()["errors"] == 5

    @pytest.mark.parametrize("op", ["lint", "simulate"])
    def test_unsupported_card_fails_alone(self, daemon, op):
        """A deck with an unknown one-token card answers ``ok: false``
        and the connection stays usable."""
        with daemon.client() as c:
            with pytest.raises(ServiceError, match="unsupported card 'Z1'"):
                c._round_trip({"op": op, "netlist": DECK + "Z1\n"})
            assert c.ping()

    @pytest.mark.parametrize(
        "field, request_fields",
        [
            ("alpha", {"system": {**SYSTEM_SPEC, "alpha": "x"}}),
            ("x0", {"system": {**SYSTEM_SPEC, "x0": ["a"]}}),
            ("grid", {"grid": [1.0, 0]}),
            ("grid", {"grid": [1.0, 2.5]}),
            ("basis", {"basis": 5}),
            ("backend", {"backend": ["dense"]}),
            ("samples", {"samples": True}),
            ("samples", {"samples": 2.7}),
            ("samples", {"samples": "3"}),
            ("samples", {"samples": 0}),
        ],
    )
    def test_malformed_simulate_field_fails_alone(
        self, daemon, field, request_fields
    ):
        """A malformed field gets its own ``ok: false`` line naming it;
        the connection, and the next request on it, survive."""
        request = {
            "op": "simulate",
            "system": SYSTEM_SPEC,
            "grid": [1.0, 16],
            "input": 1.0,
            **request_fields,
        }
        with daemon.client() as c:
            with pytest.raises(ServiceError, match=repr(field)):
                c._round_trip(request)
            out = c.simulate(system=SYSTEM_SPEC, grid=[1.0, 16], input=1.0)
            assert out["runs"]
            assert c.stats()["errors"] == 1

    @pytest.mark.parametrize(
        "request_fields, field",
        [
            ({"netlist": DECK, "basiss": "chebyshev"}, "basiss"),
            *[
                ({"netlist": DECK, row.name: 4}, row.name)
                for row in OPTION_ROWS.values()
                if row.refusal is not None
            ],
            ({"op": "lint", "netlist": DECK, "samples": 4}, "samples"),
            ({"op": "ping", "verbose": True}, "verbose"),
        ],
        ids=lambda value: value if isinstance(value, str) else None,
    )
    def test_unknown_or_refused_field_fails_alone(
        self, daemon, request_fields, field
    ):
        """A field the request's op does not accept answers ``ok: false``
        naming it (an unknown one with a did-you-mean), counts as an
        error, and the connection keeps serving."""
        request = {"op": "simulate", **request_fields}
        with daemon.client() as c:
            reply = raw_round_trip(c, request)
            assert c.ping()
            stats = c.stats()
        assert (reply["ok"], reply["kind"]) == (False, "error")
        assert repr(field) in reply["error"]
        assert (stats["errors"], stats["batches"]) == (1, 0)
        if field == "basiss":
            assert "did you mean 'basis'?" in reply["error"]

    def test_windows_card_is_refused_and_the_connection_survives(self, daemon):
        """The daemon cannot march: a deck's ``.options windows=2`` card
        answers ``ok: false`` naming ``windows`` (it was solved as one
        window), and the next request on the connection is served."""
        request = {"op": "simulate", "netlist": DECK + ".options windows=2\n"}
        with daemon.client() as c:
            reply = raw_round_trip(c, request)
            assert c.ping()
        assert (reply["ok"], reply["kind"]) == (False, "error")
        assert "'windows'" in reply["error"]
        assert OPTION_ROWS["windows"].refusal in reply["error"]

    @pytest.mark.parametrize("samples", [1e30, 2**40])
    def test_samples_above_limit_fail_before_queueing(self, daemon, samples):
        """An oversized ``samples`` is a typed error naming the field
        and :data:`MAX_SAMPLES`, raised before the request queues."""
        request = {
            "op": "simulate", "system": SYSTEM_SPEC, "grid": [1.0, 8],
            "input": 1.0, "samples": samples,
        }
        with daemon.client() as c:
            reply = raw_round_trip(c, request)
            assert c.ping()
            stats = c.stats()
        assert (reply["ok"], reply["kind"]) == (False, "error")
        assert "'samples'" in reply["error"]
        assert str(service_module.MAX_SAMPLES) in reply["error"]
        assert (stats["batches"], stats["internal_errors"]) == (0, 0)

    def test_ragged_input_is_a_typed_error(self, daemon):
        with daemon.client() as c:
            with pytest.raises(ServiceError, match="'input' must be"):
                c.simulate(system=SYSTEM_SPEC, grid=[1.0, 8], input=[[1, 2], [3]])
            assert c.ping()
            stats = c.stats()
        assert (stats["errors"], stats["internal_errors"]) == (1, 0)

    def test_unexpected_exception_answers_internal(
        self, daemon, monkeypatch, caplog
    ):
        """The daemon's error boundary: an exception outside the typed
        errors answers ``kind: "internal"`` with its type, is counted
        and logged with its traceback, and the connection keeps
        serving."""

        async def broken_lint(request, writer):
            raise RuntimeError("lint exploded")

        monkeypatch.setattr(daemon.service, "_lint", broken_lint)
        caplog.set_level(logging.ERROR, logger="repro.engine.service")
        with daemon.client() as c:
            reply = raw_round_trip(c, {"op": "lint", "netlist": DECK, "id": 7})
            assert reply == {
                "id": 7,
                "ok": False,
                "kind": "internal",
                "error": "RuntimeError: lint exploded",
            }
            assert c.ping()
            stats = c.stats()
        assert (stats["errors"], stats["internal_errors"]) == (1, 1)
        (record,) = [r for r in caplog.records if r.name == "repro.engine.service"]
        assert "internal error" in record.getMessage()
        assert record.exc_info is not None and record.exc_info[0] is RuntimeError

    def test_request_longer_than_64_kib_is_served(self, daemon):
        """A 400-state dense spec is a ~1.3 MB line, past asyncio's
        64 KiB default stream limit."""
        n = 400
        A = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
        spec = {"E": np.eye(n).tolist(), "A": A.tolist(), "B": [[1.0]] * n}
        assert len(json.dumps(spec)) > 2**16
        with daemon.client() as c:
            out = c.simulate(system=spec, grid=[1.0, 4], input=1.0, samples=2)
            assert c.ping()
        assert np.asarray(out["values"]).shape == (n, 2)

    def test_over_limit_line_is_rejected_then_closed(self, monkeypatch):
        monkeypatch.setattr(service_module, "REQUEST_LINE_LIMIT", 4096)
        handle = ServiceHandle()
        try:
            with socket.create_connection(("127.0.0.1", handle.port), 30) as sock:
                line = json.dumps({"op": "ping", "pad": "x" * 20000}) + "\n"
                sock.sendall(line.encode())
                stream = sock.makefile("rb")
                reply = json.loads(stream.readline())
                assert stream.readline() == b""  # then the connection closes
            assert reply["ok"] is False and reply["kind"] == "error"
            assert "4096-byte limit" in reply["error"]
            with handle.client() as c:  # the daemon itself is unaffected
                assert c.ping()
        finally:
            handle.stop()


def raw_round_trip(client, payload: dict) -> dict:
    """One request line and its raw reply line (no error raising)."""
    client._file.write(json.dumps(payload).encode() + b"\n")
    client._file.flush()
    return json.loads(client._file.readline())


FRACTIONAL_SPEC = {"alpha": 0.5, "E": [[1.0]], "A": [[-1.0]], "B": [[1.0]]}


class TestMethodRequests:
    """The ``method`` field of the request schema."""

    def test_system_request_with_zoo_method(self, daemon):
        from repro.core import FractionalDescriptorSystem

        with daemon.client() as c:
            out = c.simulate(
                system=FRACTIONAL_SPEC, grid=[1.0, 64], input=1.0, method="gl"
            )
        sim = Simulator(
            FractionalDescriptorSystem(0.5, [[1.0]], [[-1.0]], [[1.0]]),
            (1.0, 64),
            method="gl",
        )
        res = sim.run(1.0)
        t = res.sample_times()
        np.testing.assert_allclose(
            np.asarray(out["values"]), res.outputs(t), rtol=1e-12, atol=1e-14
        )

    def test_opm_method_unifies_with_default_session(self, daemon):
        with daemon.client() as c:
            c.simulate(netlist=DECK)
            c.simulate(netlist=DECK, method="opm")
            stats = c.stats()
        # method='opm' normalises away: same cached session, no miss
        assert stats["sessions"]["misses"] == 1
        assert stats["sessions"]["hits"] >= 1

    def test_distinct_methods_key_distinct_sessions(self, daemon):
        with daemon.client() as c:
            c.simulate(system=FRACTIONAL_SPEC, grid=[1.0, 64], input=1.0)
            c.simulate(
                system=FRACTIONAL_SPEC, grid=[1.0, 64], input=1.0, method="gl"
            )
            stats = c.stats()
        assert stats["sessions"]["misses"] == 2

    def test_unknown_method_lists_and_suggests(self, daemon):
        with daemon.client() as c:
            with pytest.raises(ServiceError, match="did you mean 'gl'"):
                c.simulate(
                    system=FRACTIONAL_SPEC, grid=[1.0, 64], input=1.0, method="g l"
                )
            with pytest.raises(ServiceError, match="choose from"):
                c.simulate(
                    system=FRACTIONAL_SPEC, grid=[1.0, 64], input=1.0, method="rk45"
                )
            assert c.ping()  # connection survives the error lines


class SolveGate:
    """Holds a live daemon's batched solves until :attr:`release` is set.

    ``entered`` is set once a held batch occupies a solve thread, so a
    test knows that later requests queue behind it -- no timers.
    ``holds(batch)`` picks which batches wait (default: all of them).
    """

    def __init__(self, service, holds=lambda batch: True):
        self.entered = threading.Event()
        self.release = threading.Event()
        solve = service._solve_batch

        def gated(batch):
            if holds(batch):
                self.entered.set()
                assert self.release.wait(30), "gate never released"
            return solve(batch)

        service._solve_batch = gated


def wait_for_stats(handle, predicate, timeout=30.0):
    """Poll the stats op until ``predicate(stats)`` holds; return them."""
    deadline = time.monotonic() + timeout
    with handle.client() as c:
        while True:
            stats = c.stats()
            if predicate(stats):
                return stats
            assert time.monotonic() < deadline, f"stats never matched: {stats}"
            time.sleep(0.005)


def simulate_scaled(handle, scale, deck=DECK):
    with handle.client() as c:
        return c.simulate(netlist=deck, scale=scale, samples=16)


def assert_matches_direct(out, scale):
    _, v_direct = direct_values(scale=scale, samples=16)
    np.testing.assert_allclose(
        np.asarray(out["values"]), v_direct, rtol=1e-12, atol=1e-15
    )


class TestCoalescing:
    """The work-conserving scheduler: batches form only behind a busy pool."""

    def _queue_behind_held_batch(self, handle, scales):
        """Hold one batch on the daemon's only solve thread, queue a
        request per scale behind it, then release; returns the held
        response, the queued responses, and the stats while queued."""
        with handle.client() as c:  # a warm session: no build job
            c.simulate(netlist=DECK, samples=4)
        gate = SolveGate(handle.service)
        with ThreadPoolExecutor(max_workers=1 + len(scales)) as pool:
            try:  # released before the pool waits for its clients
                held = pool.submit(simulate_scaled, handle, 3.0)
                assert gate.entered.wait(30)
                queued = [pool.submit(simulate_scaled, handle, s) for s in scales]
                waiting = wait_for_stats(
                    handle, lambda s: s["queue_depth"] == len(scales)
                )
            finally:
                gate.release.set()
            return held.result(), [f.result() for f in queued], waiting

    def test_requests_queued_behind_busy_pool_coalesce(self):
        handle = ServiceHandle(workers=1)
        scales = [0.5 + 0.25 * i for i in range(8)]
        try:
            held, outs, waiting = self._queue_behind_held_batch(handle, scales)
            with handle.client() as c:
                stats = c.stats()
        finally:
            handle.stop()
        assert waiting["solving"] == 1
        # the priming request, the held one, then one coalesced batch
        assert stats["batches"] == 3
        assert stats["coalesced_batches"] == 1
        assert stats["largest_batch"] == len(scales)
        assert (stats["queue_depth"], stats["solving"]) == (0, 0)
        assert held["info"]["coalesced"] is False
        assert_matches_direct(held, 3.0)
        for scale, out in zip(scales, outs):
            assert out["info"]["coalesced"] is True
            assert out["info"]["batch_runs"] == len(scales)
            assert_matches_direct(out, scale)

    def test_lone_request_on_idle_daemon_is_its_own_batch(self, daemon):
        with daemon.client() as c:
            outs = [c.simulate(netlist=DECK, samples=16) for _ in range(3)]
            stats = c.stats()
        assert stats["batches"] == stats["requests"] == 3
        assert stats["coalesced_batches"] == 0
        t_direct, v_direct = direct_values(samples=16)
        for out in outs:
            assert out["info"]["coalesced"] is False
            assert out["info"]["batch_runs"] == 1
            np.testing.assert_array_equal(np.asarray(out["values"]), v_direct)
            # the done line splits the latency into its stages
            assert 0.0 <= out["queue_ms"] and 0.0 <= out["solve_ms"]
            assert out["queue_ms"] + out["solve_ms"] <= out["latency_ms"]

    def test_queued_runs_split_at_max_batch(self):
        handle = ServiceHandle(workers=1, max_batch=4)
        scales = [0.5 + 0.25 * i for i in range(6)]
        try:
            _, outs, _ = self._queue_behind_held_batch(handle, scales)
            with handle.client() as c:
                stats = c.stats()
        finally:
            handle.stop()
        # priming, held, then the six queued runs as 4 + 2
        assert stats["batches"] == 4
        assert stats["coalesced_batches"] == 2
        assert stats["largest_batch"] == 4
        assert sorted(out["info"]["batch_runs"] for out in outs) == [2, 2, 4, 4, 4, 4]
        for scale, out in zip(scales, outs):
            assert_matches_direct(out, scale)

    def test_sweep_request_larger_than_max_batch_goes_whole(self):
        handle = ServiceHandle(max_batch=2)
        try:
            with handle.client() as c:
                out = c.simulate(netlist=DECK, scales=[1.0, 2.0, 3.0, 4.0],
                                 samples=4)
                stats = c.stats()
        finally:
            handle.stop()
        assert len(out["runs"]) == 4
        assert (stats["batches"], stats["largest_batch"]) == (1, 4)

    def test_other_fingerprint_not_held_behind_busy_one(self):
        handle = ServiceHandle(workers=2)
        try:
            with handle.client() as c:
                c.simulate(netlist=DECK, samples=4)
                c.simulate(netlist=DECK_FAST, samples=4)
            gate = SolveGate(
                handle.service,
                holds=lambda batch: batch[0].request["netlist"] == DECK,
            )
            with ThreadPoolExecutor(max_workers=1) as pool:
                try:
                    held = pool.submit(simulate_scaled, handle, 2.0)
                    assert gate.entered.wait(30)
                    # answered while the DECK batch still holds a thread
                    other = simulate_scaled(handle, 1.0, deck=DECK_FAST)
                    with handle.client() as c:
                        during = c.stats()
                finally:
                    gate.release.set()
                held = held.result()
        finally:
            handle.stop()
        assert other["info"]["coalesced"] is False
        assert (during["solving"], during["queue_depth"]) == (1, 0)
        assert_matches_direct(held, 2.0)

    def test_concurrent_mixed_load_answers_every_request(self):
        """More clients than solve threads, two fingerprints: every run
        is batched exactly once and every answer is right."""
        handle = ServiceHandle(workers=3, max_batch=5)
        jobs = [((DECK, DECK_FAST)[i % 2], 0.5 + 0.25 * (i % 7)) for i in range(64)]
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                outs = list(pool.map(
                    lambda job: simulate_scaled(handle, job[1], deck=job[0]), jobs
                ))
            with handle.client() as c:
                stats = c.stats()
        finally:
            handle.stop()
        assert stats["requests"] == stats["batched_runs"] == len(jobs)
        assert stats["errors"] == 0 and stats["largest_batch"] <= 5
        assert (stats["queue_depth"], stats["solving"]) == (0, 0)
        for (deck, scale), out in zip(jobs, outs):
            _, v_direct = direct_values(deck, scale=scale, samples=16)
            np.testing.assert_allclose(
                np.asarray(out["values"]), v_direct, rtol=1e-12, atol=1e-15
            )

    @pytest.mark.parametrize(
        "bad, queued",
        [({"samples": 3}, 2), ({"input": [1.0, 2.0, 3.0]}, 1)],
        ids=["samples", "input"],
    )
    def test_bad_request_fails_alone_beside_coalesced_sibling(self, bad, queued):
        """Two system requests queue behind a held block-pulse batch: a
        bad one fails by itself -- a misshapen ``input`` before it
        joins the queue, one whose payload fails (``samples: 3`` here)
        inside the shared batch -- and the good one is answered."""
        handle = ServiceHandle(workers=1)
        good = {"system": SYSTEM_SPEC, "grid": [1.0, 8], "input": 1.0, "samples": 4}
        with handle.client() as c:  # warm sessions: no build jobs
            c.simulate(netlist=DECK, samples=4)
            want = c.simulate(**good)
        gate = SolveGate(handle.service, holds=lambda b: "netlist" in b[0].request)
        build_payload = handle.service._build_payload

        def failing_payload(pending, *args):
            if pending.request.get("samples") == 3:
                raise ServiceError("payload failed")
            return build_payload(pending, *args)

        handle.service._build_payload = failing_payload

        def bad_request():
            with handle.client() as c:
                return raw_round_trip(c, {"op": "simulate", **good, **bad})

        def good_request():
            with handle.client() as c:
                return c.simulate(**good)

        with ThreadPoolExecutor(max_workers=3) as pool:
            try:
                held = pool.submit(simulate_scaled, handle, 3.0)
                assert gate.entered.wait(30)
                futures = [pool.submit(good_request), pool.submit(bad_request)]
                wait_for_stats(handle, lambda s: s["queue_depth"] == queued)
            finally:
                gate.release.set()
            held.result()
            ok, failed = (f.result() for f in futures)
        with handle.client() as c:
            stats = c.stats()
        handle.stop()
        assert failed["ok"] is False
        assert ok["info"]["coalesced"] is (queued == 2)
        # a coalesced sweep may round differently from the lone run
        np.testing.assert_allclose(ok["values"], want["values"], rtol=1e-12)
        assert stats["errors"] == 1

    def test_shutdown_answers_queued_requests(self):
        handle = ServiceHandle(workers=1)
        scales = [0.5, 1.5, 2.5]
        with handle.client() as c:
            c.simulate(netlist=DECK, samples=4)
        gate = SolveGate(handle.service)
        with ThreadPoolExecutor(max_workers=1 + len(scales)) as pool:
            try:
                held = pool.submit(simulate_scaled, handle, 3.0)
                assert gate.entered.wait(30)
                queued = [pool.submit(simulate_scaled, handle, s) for s in scales]
                wait_for_stats(handle, lambda s: s["queue_depth"] == len(scales))
                with handle.client() as c:
                    c.shutdown()
            except BaseException:
                gate.release.set()
                handle.stop()
                raise
            gate.release.set()
            held = held.result()
            outs = [f.result() for f in queued]
        handle.thread.join(timeout=60)
        assert not handle.thread.is_alive()
        assert_matches_direct(held, 3.0)
        for scale, out in zip(scales, outs):
            assert_matches_direct(out, scale)

    def test_shutdown_waits_for_answer_being_written(self, monkeypatch):
        """A shutdown arriving while a large answer drains to a slow
        reader lets the answer finish; an idle connection is closed at
        once, and the event loop reports no exception."""
        reported = []
        serve_async = service_module._serve_async

        async def recording(service, **kwargs):
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            await serve_async(service, **kwargs)

        monkeypatch.setattr(service_module, "_serve_async", recording)
        handle = ServiceHandle(workers=1)
        samples = 2**17
        idle = handle.client()
        slow = socket.socket()
        slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        slow.settimeout(60)
        slow.connect(("127.0.0.1", handle.port))
        try:
            request = {"op": "simulate", "netlist": DECK, "samples": samples}
            slow.sendall(json.dumps(request).encode() + b"\n")
            wait_for_stats(handle, lambda s: s["batches"] == 1 and s["solving"] == 0)
            with handle.client() as c:
                c.shutdown()
            time.sleep(0.2)  # the slow reader: the daemon is shutting down
            with slow.makefile("rb") as stream:
                lines = [json.loads(line) for line in stream]
            assert idle._file.readline() == b""
        finally:
            slow.close()
            idle.close()
        handle.thread.join(timeout=60)
        assert not handle.thread.is_alive()
        assert [lines[0]["kind"], lines[-1]["kind"]] == ["header", "done"]
        assert sum(len(line.get("t", ())) for line in lines) == samples
        assert reported == []


class TestSessionLRU:
    def test_distinct_decks_get_distinct_sessions(self, daemon):
        with daemon.client() as c:
            c.simulate(netlist=DECK, samples=4)
            c.simulate(netlist=DECK_FAST, samples=4)
            stats = c.stats()
        assert stats["sessions"]["entries"] == 2
        assert stats["sessions"]["misses"] == 2

    def test_memory_mode_keys_distinct_sessions(self, daemon):
        # compressed and exact sessions differ arithmetically, so the
        # cache must never unify them under one key
        with daemon.client() as c:
            c.simulate(netlist=DECK, samples=4)
            c.simulate(netlist=DECK, samples=4, memory="soe")
            c.simulate(netlist=DECK, samples=4, memory="soe",
                       memory_rtol=1e-6)
            stats = c.stats()
        assert stats["sessions"]["entries"] == 3
        assert stats["sessions"]["misses"] == 3

    def test_bad_memory_request_fails_cleanly(self, daemon):
        with daemon.client() as c:
            with pytest.raises(ServiceError, match="memory"):
                c.simulate(netlist=DECK, samples=4, memory=7)
            with pytest.raises(ServiceError, match="memory_rtol"):
                c.simulate(netlist=DECK, samples=4, memory="soe",
                           memory_rtol="tight")
            assert c.ping()

    def test_lru_eviction_of_cold_sessions(self):
        handle = ServiceHandle(max_sessions=1)
        try:
            with handle.client() as c:
                c.simulate(netlist=DECK, samples=4)
                c.simulate(netlist=DECK_FAST, samples=4)  # evicts DECK
                stats_mid = c.stats()
                out = c.simulate(netlist=DECK, samples=4)  # rebuilt, cold
                stats_end = c.stats()
        finally:
            handle.stop()
        assert stats_mid["sessions"]["entries"] == 1
        assert stats_mid["sessions"]["evictions"] == 1
        assert out["info"]["warm"] is False
        assert stats_end["sessions"]["misses"] == 3

    def test_bank_counters_survive_eviction(self):
        handle = ServiceHandle(max_sessions=1)
        counters = ("hits", "misses", "evictions", "factorisations")
        snapshots = []
        try:
            with handle.client() as c:
                for deck in (DECK, DECK, DECK_FAST, DECK_FAST, DECK):
                    c.simulate(netlist=deck, samples=4)
                    snapshots.append(c.stats())
        finally:
            handle.stop()
        assert snapshots[-1]["sessions"]["evictions"] == 2
        assert snapshots[1]["bank"]["hits"] >= 1
        for before, after in zip(snapshots, snapshots[1:]):
            for name in counters:
                assert after["bank"][name] >= before["bank"][name], name
        assert snapshots[-1]["bank"]["factorisations"] == 3

    def test_bank_bytes_bound_applied(self):
        handle = ServiceHandle(bank_entries=1)
        try:
            with handle.client() as c:
                c.simulate(netlist=DECK, samples=4)
                stats = c.stats()
        finally:
            handle.stop()
        assert stats["bank"]["entries"] <= 1


class TestServiceConstruction:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(ServiceError, match="max_batch"):
            SimulationService(max_batch=0)
        with pytest.raises(ServiceError, match="max_sessions"):
            SimulationService(max_sessions=0)
