"""Self-tests of the benchmark harness (not of the program under test).

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import math
import os
import types
import unittest

import harness
import layers
import run
import streams
from harness import OpLog, percentile
from tracer import Span, Tracer, patched, self_times


class TailPercentile(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(percentile(xs, 0.5), 50)
        self.assertEqual(percentile(xs, 0.9), 90)
        self.assertEqual(percentile([7.0], 0.9), 7.0)
        self.assertIsNone(percentile([], 0.5))

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(percentile(range(1, 101), 0.9, min_beyond=10), 90)
        self.assertIsNone(percentile(range(1, 100), 0.9, min_beyond=10))
        self.assertIsNone(percentile(range(1, 17), 0.9, min_beyond=10))

    def test_summary_withholds_p90_below_the_sample_count(self):
        log = OpLog(wall_s=1.0)
        for k in range(99):
            log.record("op", float(k))
        self.assertIsNone(log.summary()["p90_ms"])
        log.record("op", 99.0)
        summary = log.summary()
        self.assertEqual(summary["p90_ms"], 89.0)
        self.assertEqual(summary["p90_samples_beyond"], 10)

    def test_end_to_end_rejects_a_run_without_a_valid_p90(self):
        log = OpLog(wall_s=1.0)
        log.record("op", 1.0)
        fake = types.SimpleNamespace(measure=lambda seed, seconds: {
            "log": log, "setup_s": [1.0], "peak_rss_mb": 1.0, "min_beyond": 10,
        })
        with self.assertRaises(RuntimeError):
            run.end_to_end(fake, 1, 1.0)


class FailedOps(unittest.TestCase):
    def test_raising_op_is_counted_not_dropped(self):
        log = OpLog(wall_s=1.0)
        log.timed("ok", lambda: 1)
        log.timed("boom", lambda: 1 / 0)
        self.assertEqual((log.attempted, log.failed), (2, 1))
        self.assertIn("ZeroDivisionError", log.failures[0])

    def test_wrong_output_is_a_failed_op(self):
        log = OpLog(wall_s=1.0)
        log.timed("ok", lambda: 2, check=lambda out: None if out == 2 else "wrong")
        log.timed("bad", lambda: 3, check=lambda out: None if out == 2 else "wrong")
        self.assertEqual((log.attempted, log.failed), (2, 1))

    def test_failed_op_counts_against_every_latency_limit(self):
        log = OpLog(wall_s=1.0)
        log.timed("ok", lambda: None)
        log.timed("bad", lambda: None, check=lambda out: "wrong")
        self.assertEqual(percentile(log.latencies_ms, 0.9), math.inf)
        self.assertTrue(math.isfinite(percentile(log.latencies_ms, 0.5)))


class SeededStreams(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(streams.service_stream(5, 96), streams.service_stream(5, 96))
        self.assertEqual(streams.generated_deck(5), streams.generated_deck(5))
        self.assertEqual(streams.deck_cycle(5), streams.deck_cycle(5))
        self.assertEqual(streams.corner_seeds(5), streams.corner_seeds(5))
        self.assertEqual(
            list(itertools.islice(streams.warm_cycles(5), 2)),
            list(itertools.islice(streams.warm_cycles(5), 2)),
        )

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(streams.service_stream(5, 96), streams.service_stream(6, 96))
        self.assertNotEqual(streams.generated_deck(5), streams.generated_deck(6))
        self.assertNotEqual(streams.corner_seeds(5), streams.corner_seeds(6))
        self.assertNotEqual(
            next(streams.warm_cycles(5)), next(streams.warm_cycles(6))
        )

    def test_stream_mix_is_the_declared_pattern(self):
        stream = streams.service_stream(3, 4 * streams.SERVICE_PERIOD)
        kinds = [item["kind"] for item in stream]
        self.assertEqual(kinds.count("full_waveform"), 2)  # every other period
        self.assertEqual(kinds.count("churn"), 4)
        formats = [item["request"]["format"] for item in stream if item["kind"] == "full_waveform"]
        self.assertEqual(formats, ["json", "csv"])
        cycle = next(streams.warm_cycles(3))
        self.assertEqual(len(cycle), sum(n for _, n in streams.WARM_CYCLE))


class SpanSelfTimes(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            Span(0, "op", 0.0, 10.0, None, 0),
            Span(1, "a", 1.0, 4.0, 0, 0),
            Span(2, "b", 5.0, 9.0, 0, 0),
            Span(3, "c", 6.0, 7.0, 2, 0),
        ]
        st = self_times(spans)
        self.assertEqual([st[i] for i in range(4)], [3.0, 3.0, 3.0, 1.0])

    def test_overlapping_children_are_counted_once(self):
        spans = [
            Span(0, "op", 0.0, 10.0, None, 0),
            Span(1, "a", 2.0, 6.0, 0, 0),
            Span(2, "b", 4.0, 8.0, 0, 0),
        ]
        self.assertEqual(self_times(spans)[0], 4.0)

    def test_patched_call_becomes_a_child_span_and_is_restored(self):
        class Thing:
            def inner(self):
                return 1

            def outer(self):
                return self.inner() + 1

        original = Thing.__dict__["inner"]
        tracer = Tracer()
        with patched(tracer, Thing, "inner", "inner"):
            with tracer.op(0):
                self.assertEqual(Thing().outer(), 2)
        self.assertIs(Thing.__dict__["inner"], original)
        op, inner = tracer.spans
        self.assertEqual((inner.parent, inner.op), (op.id, 0))
        by_name = tracer.self_ms_by_name()
        self.assertAlmostEqual(
            by_name["op"][0] + by_name["inner"][0], (op.end - op.start) * 1e3, places=9
        )

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.op(0), tracer.span("x"):
            tracer.count("n")
        self.assertEqual((tracer.spans, dict(tracer.counts)), ([], {}))


class HelperProcesses(unittest.TestCase):
    def test_stop_helpers_reaps_the_resource_tracker(self):
        from multiprocessing import resource_tracker, shared_memory

        shm = shared_memory.SharedMemory(create=True, size=16)
        shm.close()
        shm.unlink()
        pid = resource_tracker._resource_tracker._pid
        self.assertIsNotNone(pid)
        harness.stop_helpers()
        self.assertIsNone(resource_tracker._resource_tracker._pid)
        with self.assertRaises(ChildProcessError):  # already reaped
            os.waitpid(pid, os.WNOHANG)


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())

    def test_benchmark_json_matches_the_harness(self):
        self.assertEqual(
            [w["name"] for w in self.spec["workloads"]], list(run.WORKLOAD_NAMES)
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.spec["per_layer"]],
            [(name, unit) for name, unit, _ in layers.PER_LAYER],
        )

    def test_traced_run_emits_exactly_the_declared_names(self):
        names = [name for name, _, _ in layers.PER_LAYER]
        half = len(names) // 2

        def fake(own_keys, probe_keys, value):
            def layers_fn(seed, seconds, probe):
                keys = probe_keys if probe else own_keys
                return {"metrics": {k: value for k in keys}, "log": OpLog()}

            return types.SimpleNamespace(layers=layers_fn)

        original = layers.import_metrics
        layers.import_metrics = lambda: {}
        try:
            workloads = {
                "a": fake(names[:half], names[:half], 1.0),
                "b": fake(names[half:], names, 2.0),
            }
            metrics, _, _ = run.per_layer(workloads, "a", 1, 1.0)
            self.assertEqual(list(metrics), names)
            # the traced workload's own values win over the probes'
            self.assertEqual(metrics[names[0]], 1.0)
            self.assertEqual(metrics[names[-1]], 2.0)
            workloads["b"] = fake(names[half:], names[half:-1], 2.0)
            with self.assertRaises(RuntimeError):
                run.per_layer(workloads, "a", 1, 1.0)
        finally:
            layers.import_metrics = original


if __name__ == "__main__":
    unittest.main()
