"""Tests of the benchmark's span recorder and its metric tables.

Run from the repository root: ``python3 -m pytest cgbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from spans import Patches, SpanRecorder

ROOT = Path(__file__).resolve().parent.parent


def scripted(*ticks: float):
    """A clock that returns ``ticks`` in order, one per call."""
    it = iter(ticks)
    return lambda: next(it)


def tree(recorder: SpanRecorder):
    """root -> (a -> b), c: a synthetic nested call tree."""
    b = recorder.span("b", lambda: None)
    a = recorder.span("a", lambda: b())
    c = recorder.span("c", lambda: None)

    def body():
        a()
        c()

    return recorder.span("root", body)


def test_self_time_is_duration_minus_child_coverage():
    # open root 0, a 1, b 2; close b 3, a 4; open c 5, close c 9; root 10
    recorder = SpanRecorder(clock=scripted(0, 1, 2, 3, 4, 5, 9, 10))
    tree(recorder)()
    assert recorder.self_times() == {"root": 3, "a": 2, "b": 1, "c": 4}
    assert recorder.durations("a") == [3]
    assert [parent for *_, parent in recorder.spans] == [-1, 0, 1, 0]


def test_repeated_names_sum_and_count():
    recorder = SpanRecorder(clock=scripted(0, 1, 2, 3, 4, 5, 9, 10,
                                           20, 22, 23, 24, 25, 26, 27, 30))
    root = tree(recorder)
    root()
    root()
    assert recorder.calls() == {"root": 2, "a": 2, "b": 2, "c": 2}
    assert recorder.self_times() == {"root": 3 + 6, "a": 2 + 2, "b": 2,
                                     "c": 4 + 1}
    assert recorder.durations("root") == [10, 10]


def test_exception_closes_every_span():
    recorder = SpanRecorder(clock=scripted(0, 1, 2, 3, 4, 5, 6))

    def fail():
        raise ValueError("boom")

    inner = recorder.span("inner", fail)
    middle = recorder.span("middle", lambda: inner())
    outer = recorder.span("outer", lambda: middle())
    with pytest.raises(ValueError, match="boom"):
        outer()
    assert [span[2] for span in recorder.spans] == [5, 4, 3]
    assert recorder.self_times() == {"outer": 2, "middle": 2, "inner": 1}
    # The recorder is usable again after the exception.
    assert recorder.open("next") == 3


def test_unattributed_is_wall_minus_summed_self_time():
    recorder = SpanRecorder(clock=scripted(0, 1, 2, 3, 4, 5, 9, 10,
                                           11, 13))
    tree(recorder)()
    recorder.span("other", lambda: None)()
    self_total = sum(recorder.self_times().values())
    assert self_total == 12  # the summed durations of the two roots
    assert recorder.unattributed(15.0) == 15.0 - self_total


def test_open_spans_are_refused():
    recorder = SpanRecorder(clock=scripted(0, 1))
    recorder.open("dangling")
    with pytest.raises(RuntimeError, match="still open"):
        recorder.self_times()


def test_counts_and_collected_instances():
    recorder = SpanRecorder()

    class Thing:
        def __init__(self, x):
            self.x = x

    Thing.__init__ = recorder.collect("thing", Thing.__init__)
    double = recorder.count("double", lambda v: 2 * v)
    assert [double(Thing(i).x) for i in range(3)] == [0, 2, 4]
    assert recorder.counts["double"] == 3
    assert [t.x for t in recorder.instances["thing"]] == [0, 1, 2]
    assert recorder.spans == []


def test_wrappers_keep_decorator_attributes_and_patches_restore():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.fleet.controller import RegionShard
    from repro.trace.format import TraceDocument
    from repro.util.effects import shard_entry_group

    original_run = vars(RegionShard)["run"]
    original_loads = vars(TraceDocument)["loads"]
    recorder = SpanRecorder()
    with Patches() as patches:
        patches.replace(RegionShard, "run",
                        lambda fn: recorder.span("fleet.shard", fn))
        patches.replace(TraceDocument, "loads",
                        lambda fn: recorder.span("trace.load", fn))
        wrapped = vars(RegionShard)["run"]
        assert wrapped is not original_run
        assert shard_entry_group(wrapped) == "region:shard"
        assert wrapped.__qualname__ == original_run.__qualname__
        assert isinstance(vars(TraceDocument)["loads"], staticmethod)
        text = (ROOT / "corpus" / "mobile-burst.cgtrace").read_text()
        assert TraceDocument.loads(text).header.scenario == "mobile-burst"
    assert recorder.calls() == {"trace.load": 1}
    assert vars(RegionShard)["run"] is original_run
    assert vars(TraceDocument)["loads"] is original_loads


def test_benchmark_json_matches_the_metric_tables():
    import layers
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in layers.PER_LAYER]
    names = [w["name"] for w in spec["workloads"]]
    assert all(set(row[4]) <= set(names) for row in layers.PER_LAYER)


def test_scale_is_wall_time_at_reference_speed():
    import probe

    ref = probe.REFERENCE_S
    assert probe.scale(3.0, ref, ref) == pytest.approx(3.0)
    assert probe.scale(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert probe.scale(3.0, ref, 3 * ref) == pytest.approx(1.5)


def test_host_clock_scales_phases_and_leaves_out_probe_time(monkeypatch):
    import time

    import probe

    def slow_probe():
        time.sleep(0.05)  # a probe on a host at half the reference speed
        return 2 * probe.REFERENCE_S

    monkeypatch.setattr(probe, "probe", slow_probe)
    clock = probe.HostClock(period=0.01)
    clock.start()
    for _ in range(4):  # 0.04 s of work, with a probe after each 0.01 s
        end = time.perf_counter() + 0.01
        while time.perf_counter() < end:
            pass
        clock.tick()
    raw, scaled = clock.stop()
    assert 0.04 <= raw < 0.05
    assert scaled == pytest.approx(raw / 2)
    assert (clock.raw_total, clock.scaled_total) == (raw, scaled)
