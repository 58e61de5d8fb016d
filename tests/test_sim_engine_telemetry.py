"""Tests for the discrete-event engine and the telemetry recorder."""

import numpy as np
import pytest

from repro.platform_.resources import ResourceVector
from repro.sim.engine import SimulationEngine
from repro.sim.telemetry import TelemetryRecorder


def rv(cpu=0, gpu=0, gpu_mem=0, ram=0):
    return ResourceVector(cpu=cpu, gpu=gpu, gpu_mem=gpu_mem, ram=ram)


class TestEngine:
    def test_events_fire_in_time_order(self):
        eng = SimulationEngine()
        order = []
        eng.at(5, lambda e: order.append("b"))
        eng.at(2, lambda e: order.append("a"))
        eng.run()
        assert order == ["a", "b"]
        assert eng.now == 5

    def test_priority_breaks_ties(self):
        eng = SimulationEngine()
        order = []
        eng.at(1, lambda e: order.append("low"), priority=5)
        eng.at(1, lambda e: order.append("high"), priority=0)
        eng.run()
        assert order == ["high", "low"]

    def test_fifo_within_same_priority(self):
        eng = SimulationEngine()
        order = []
        eng.at(1, lambda e: order.append(1))
        eng.at(1, lambda e: order.append(2))
        eng.run()
        assert order == [1, 2]

    def test_after_is_relative(self):
        eng = SimulationEngine(start_time=10)
        seen = []
        eng.after(5, lambda e: seen.append(e.now))
        eng.run()
        assert seen == [15]

    def test_cancel(self):
        eng = SimulationEngine()
        hits = []
        ev = eng.at(1, lambda e: hits.append(1))
        ev.cancel()
        eng.run()
        assert hits == []
        assert eng.processed == 0

    def test_every_repeats_until_cancelled(self):
        eng = SimulationEngine()
        hits = []
        cancel = eng.every(2, lambda e: hits.append(e.now))
        eng.run_until(7)
        cancel()
        eng.run_until(20)
        assert hits == [2, 4, 6]

    def test_run_until_advances_clock(self):
        eng = SimulationEngine()
        eng.run_until(42)
        assert eng.now == 42

    def test_events_can_schedule_events(self):
        eng = SimulationEngine()
        seen = []

        def first(e):
            seen.append("first")
            e.after(1, lambda e2: seen.append("second"))

        eng.at(1, first)
        eng.run()
        assert seen == ["first", "second"]

    def test_cannot_schedule_in_past(self):
        eng = SimulationEngine(start_time=10)
        with pytest.raises(ValueError):
            eng.at(5, lambda e: None)

    def test_invalid_every_interval(self):
        with pytest.raises(ValueError):
            SimulationEngine().every(0, lambda e: None)

    def test_firing_order_is_pinned(self):
        # Time, then priority, then scheduling order; a cancelled entry
        # is skipped wherever it sits, and events scheduled from a
        # callback at the current time join the back of their tie.
        eng = SimulationEngine()
        order = []

        def log(name):
            return lambda e: order.append((e.now, name))

        def spawn(e):
            order.append((e.now, "spawn"))
            e.at(3, log("spawned-p0"))
            e.at(3, log("spawned-p-1"), priority=-1)

        eng.at(3, log("a"), priority=1)
        eng.at(1, log("b"))
        eng.at(3, log("c"))
        eng.at(3, spawn, priority=-1)
        eng.at(1, log("d"), priority=-2)
        eng.at(3, log("e"), priority=1)
        eng.at(2.5, log("cancelled")).cancel()
        eng.at(3, log("f"))
        eng.run()
        assert order == [
            (1, "d"), (1, "b"),
            (3, "spawn"), (3, "spawned-p-1"),
            (3, "c"), (3, "f"), (3, "spawned-p0"),
            (3, "a"), (3, "e"),
        ]
        assert eng.processed == 9 and eng.pending == 0

    def test_ties_never_compare_events(self):
        # Many equal (time, priority) entries: the heap's sequence
        # number settles every tie, so events fire in scheduling order.
        eng = SimulationEngine()
        order = []
        for i in range(200):
            eng.at(1, lambda e, i=i: order.append(i), priority=i % 3)
        eng.run_until(1)
        assert order == sorted(range(200), key=lambda i: (i % 3, i))

    def test_pending_counts_noncancelled(self):
        eng = SimulationEngine()
        ev = eng.at(1, lambda e: None)
        eng.at(2, lambda e: None)
        ev.cancel()
        assert eng.pending == 1


class TestTelemetry:
    def test_observed_is_clipped_at_allocation(self):
        rec = TelemetryRecorder(noise_std=0.0, seed=0)
        obs = rec.record(0, "s", rv(gpu=80), rv(gpu=50))
        assert obs.gpu == 50

    def test_noise_is_bounded_and_deterministic(self):
        a = TelemetryRecorder(noise_std=1.0, seed=3).record(0, "s", rv(gpu=50), rv(gpu=100))
        b = TelemetryRecorder(noise_std=1.0, seed=3).record(0, "s", rv(gpu=50), rv(gpu=100))
        assert a == b
        assert 0 <= a.gpu <= 100

    def test_observed_window_needs_full_window(self):
        rec = TelemetryRecorder(noise_std=0.0)
        for t in range(4):
            rec.record(t, "s", rv(gpu=10), rv(gpu=100))
        assert rec.observed_window("s", 5) is None
        rec.record(4, "s", rv(gpu=10), rv(gpu=100))
        win = rec.observed_window("s", 5)
        np.testing.assert_allclose(win, [0, 10, 0, 0])

    def test_series_roundtrip(self):
        rec = TelemetryRecorder(noise_std=0.0)
        rec.record(7, "s", rv(cpu=30), rv(cpu=20))
        demand = rec.true_demand_series("s")
        usage = rec.true_usage_series("s")
        alloc = rec.allocation_series("s")
        assert demand.column("cpu")[0] == 30
        assert usage.column("cpu")[0] == 20
        assert alloc.column("cpu")[0] == 20
        assert demand.start == 7.0

    def test_total_usage_matrix_sums_sessions(self):
        rec = TelemetryRecorder(noise_std=0.0)
        rec.record(0, "a", rv(gpu=30), rv(gpu=100))
        rec.record(0, "b", rv(gpu=40), rv(gpu=100))
        total = rec.total_usage_matrix(2)
        assert total[0, 1] == 70
        assert total[1, 1] == 0

    def test_peak_total(self):
        rec = TelemetryRecorder(noise_std=0.0)
        rec.record(0, "a", rv(gpu=30), rv(gpu=100))
        rec.record(1, "a", rv(gpu=90), rv(gpu=100))
        assert rec.peak_total_usage(2)[1] == 90

    def test_missing_session(self):
        with pytest.raises(KeyError):
            TelemetryRecorder().observed_series("ghost")
