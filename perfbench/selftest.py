#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Covers the span self-time arithmetic (nested and overlapping children;
a generator span counts only the time its generator is resumed), the
reference-speed scaling of host time, the tail-percentile rule, and a
tiny-size smoke run of every workload through the command line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostclock  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class SelfTimeArithmetic(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        # parent [0,10]; children [1,4] and [3,6] overlap, [8,12] sticks
        # out of the parent; grandchild [2,3] sits inside [1,4]
        starts = [0.0, 1.0, 3.0, 8.0, 2.0]
        ends = [10.0, 4.0, 6.0, 12.0, 3.0]
        parents = [-1, 0, 0, 0, 1]
        selfs = tracing.self_times(starts, ends, parents)
        self.assertAlmostEqual(selfs[0], 10.0 - (5.0 + 2.0))  # union [1,6]+[8,10]
        self.assertAlmostEqual(selfs[1], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 4.0)
        self.assertAlmostEqual(selfs[4], 1.0)

    def test_disjoint_children_sum(self):
        selfs = tracing.self_times([0.0, 1.0, 5.0], [10.0, 2.0, 7.0], [-1, 0, 0])
        self.assertAlmostEqual(selfs[0], 7.0)

    def test_generator_span_counts_only_resumed_time(self):
        clock = FakeClock()
        old = tracing._perf
        tracing._perf = clock
        try:
            tracer = tracing.Tracer()

            def inner():
                clock.advance(1.0)      # host work while resumed
                yield "wait-1"
                clock.advance(2.0)
                yield "wait-2"
                clock.advance(0.5)
                return "done"

            def outer():
                clock.advance(0.25)
                value = yield from traced_inner()
                clock.advance(0.25)
                return value

            traced_inner = tracer.wrap(inner, "inner", "net")
            traced_outer = tracer.wrap(outer, "outer", "core")
            with tracer:
                gen = traced_outer()
                self.assertEqual(next(gen), "wait-1")
                clock.advance(100.0)    # simulated wait: not host time
                self.assertEqual(gen.send(None), "wait-2")
                clock.advance(100.0)
                with self.assertRaises(StopIteration) as stop:
                    gen.send(None)
            self.assertEqual(stop.exception.value, "done")
            layers = tracer.self_time_by_layer()
            self.assertAlmostEqual(layers["net"], 3.5)
            self.assertAlmostEqual(layers["core"], 0.5)
            self.assertAlmostEqual(tracer.root_time(), 4.0)
            self.assertEqual(tracer.counts(), {"inner": 1, "outer": 1})
        finally:
            tracing._perf = old

    def test_exception_thrown_into_generator_is_forwarded(self):
        tracer = tracing.Tracer()

        def worker():
            try:
                yield 1
            except KeyError:
                return "caught"

        traced = tracer.wrap(worker, "worker", "core")
        with tracer:
            gen = traced()
            next(gen)
            with self.assertRaises(StopIteration) as stop:
                gen.throw(KeyError("x"))
        self.assertEqual(stop.exception.value, "caught")
        self.assertEqual(tracer._stack, [])

    def test_patches_are_undone(self):
        class Thing:
            def hello(self):
                return "hi"

        original = Thing.__dict__["hello"]
        tracer = tracing.Tracer()
        tracer.patch_attr(Thing, "hello", "Thing.hello", "services")
        with tracer:
            self.assertEqual(Thing().hello(), "hi")
        self.assertIs(Thing.__dict__["hello"], original)
        self.assertEqual(tracer.counts(), {"Thing.hello": 1})


class HostClockScaling(unittest.TestCase):
    def test_slices_scale_to_the_reference_speed(self):
        ticks = iter([0.0, 1.0, 10.0, 12.0])      # slices of 1 s and 2 s
        cals = iter([2 * hostclock.CAL_REF_S,      # host at half speed
                     0.5 * hostclock.CAL_REF_S])   # host at double speed
        fake_time = types.SimpleNamespace(perf_counter=lambda: next(ticks),
                                          process_time=lambda: 0.0)
        old_time, old_cal = hostclock.time, hostclock.calibrate
        hostclock.time, hostclock.calibrate = fake_time, lambda: next(cals)
        try:
            clock = hostclock.HostClock()
            clock.slice(lambda: None)
            clock.slice(lambda: None)
        finally:
            hostclock.time, hostclock.calibrate = old_time, old_cal
        self.assertAlmostEqual(clock.raw_s, 3.0)
        self.assertAlmostEqual(clock.ref_s, 1.0 * 0.5 + 2.0 * 2.0)
        self.assertEqual(clock.slices, 2)

    def test_bigint_share_blends_the_two_calibrations(self):
        ticks = iter([0.0, 1.0])
        fake_time = types.SimpleNamespace(perf_counter=lambda: next(ticks),
                                          process_time=lambda: 0.0)
        saved = hostclock.time, hostclock.calibrate, hostclock.calibrate_bigint
        hostclock.time = fake_time
        hostclock.calibrate = lambda: 2 * hostclock.CAL_REF_S        # 0.5x
        hostclock.calibrate_bigint = lambda: hostclock.BIGINT_REF_S  # 1x
        try:
            clock = hostclock.HostClock(bigint_share=0.25)
            clock.slice(lambda: None)
        finally:
            hostclock.time, hostclock.calibrate, hostclock.calibrate_bigint = saved
        self.assertAlmostEqual(clock.ref_s, 0.75 * 0.5 + 0.25 * 1.0)

    def test_calibrations_run(self):
        self.assertGreater(hostclock.calibrate(), 0.0)
        self.assertGreater(hostclock.calibrate_bigint(), 0.0)


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        info = stats.tail([float(v) for v in range(1, 101)])
        self.assertEqual(info, {"value": 90.0, "pct": 90.0, "n": 100, "beyond": 10})

    def test_large_sample_reaches_high_percentile(self):
        info = stats.tail([float(v) for v in range(20000)])
        self.assertEqual(info["beyond"], 10)
        self.assertAlmostEqual(info["pct"], 99.95)
        self.assertEqual(info["n"], 20000)

    def test_tie_steps_below(self):
        info = stats.tail([1.0] * 50 + [5.0] * 50)
        self.assertEqual(info["value"], 1.0)
        self.assertEqual(info["beyond"], 50)
        self.assertAlmostEqual(info["pct"], 50.0)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 10 + [2.0])
        with self.assertRaises(ValueError):
            stats.tail([float(v) for v in range(10)])

    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class Smoke(unittest.TestCase):
    """Every workload at ``--seconds 1`` through the real command line."""

    def _check(self, workload: str, trace: int, names: set) -> None:
        proc = _run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), names)
        self.assertIn("cores_available", proc.stdout)

    def test_workloads_untraced(self):
        import run
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                self._check(workload, 0, set(run.END_TO_END_UNITS))

    def test_traced_run(self):
        import run
        self._check("campus-sessions", 1, set(run.PER_LAYER_UNITS))

    def test_refuses_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = _run("campus-sessions", 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
