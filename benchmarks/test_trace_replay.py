"""Trace record/replay benchmark: recording must stay cheap, replay honest.

Drives one gateway-fronted fleet experiment three ways —

* plain (no recorder attached),
* recorded (``trace=TraceRecorder``, same seeds),
* replayed (the recorded trace driven back through a fresh fleet) —

and checks:

* **behavioural transparency** — attaching a recorder does not change
  the fleet telemetry digest;
* **bounded recording** — the trace holds at most
  ``1 + MAX_VERDICTS + S`` records per arrival, ``S`` being the most
  stages any of the run's scripts has: one arrival record, at most
  ``MAX_VERDICTS`` gateway verdicts and one record per completed stage.
  A recorder that starts writing per-second samples breaks this count;
  wall time cannot show it reliably (three runs of unchanged code read
  +8.2 %, −13.4 % and −8.8 % record overhead);
* **digest-stable replay** — the replayed run reproduces the recorded
  fleet digest byte-for-byte.

Timings land in ``BENCH_trace.json`` (uploaded by the CI trace-smoke
job next to the generated ``.cgtrace`` artifact); they are reported,
not gated.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.cluster.experiment import FleetExperiment
from repro.games.catalog import build_catalog
from repro.trace import (
    RunConfig,
    TraceRecorder,
    build_cluster,
    build_profiles,
    replay_document,
)

from benchmarks.conftest import HARNESS_SEED

HORIZON = 600           # simulated seconds
RATE = 6.0              # arrivals per minute
REPEATS = 3             # best-of-N to shed scheduler noise
MAX_VERDICTS = 2        # queued or shed, then admitted or dead-lettered

CONFIG = RunConfig(
    games=("contra",),
    nodes=2,
    horizon=HORIZON,
    rate_per_minute=RATE,
    seed=HARNESS_SEED,
)


@pytest.fixture(scope="module")
def trace_profiles():
    """The config's (cheap, dtc-only) profiles, built once."""
    return build_profiles(CONFIG)


def timed_run(profiles, *, recorded):
    """One live run; returns (elapsed, result, recorder-or-None)."""
    catalog = build_catalog()
    cluster = build_cluster(CONFIG, profiles)
    recorder = (
        TraceRecorder(seed=CONFIG.seed, config=CONFIG.to_dict())
        if recorded
        else None
    )
    t0 = time.perf_counter()
    result = FleetExperiment(
        cluster,
        [catalog[g] for g in CONFIG.games],
        horizon=CONFIG.horizon,
        rate_per_minute=CONFIG.rate_per_minute,
        seed=CONFIG.seed,
        detect_interval=CONFIG.detect_interval,
        trace=recorder,
    ).run()
    return time.perf_counter() - t0, result, recorder


def test_trace_record_replay_overhead(trace_profiles):
    # Interleave the repeats so drift (cache warmth, CPU frequency)
    # hits both modes evenly; keep the best of each.
    t_plain, t_recorded, t_replay = [], [], []
    digest_plain = digest_recorded = None
    recorder = None
    for _ in range(REPEATS):
        dt, result, _ = timed_run(trace_profiles, recorded=False)
        t_plain.append(dt)
        digest_plain = result.telemetry_digest
        dt, result, recorder = timed_run(trace_profiles, recorded=True)
        t_recorded.append(dt)
        digest_recorded = result.telemetry_digest

    document = recorder.document
    report = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        report = replay_document(document, profiles=trace_profiles)
        t_replay.append(time.perf_counter() - t0)

    best_plain, best_recorded = min(t_plain), min(t_recorded)
    best_replay = min(t_replay)
    overhead = best_recorded / best_plain - 1.0
    speedup = best_plain / best_replay
    catalog = build_catalog()
    max_stages = max(
        len(script.stages)
        for game in CONFIG.games for script in catalog[game].scripts
    )
    arrivals = len(document.arrivals)
    records_per_arrival = document.trailer.records / arrivals
    records_bound = 1 + MAX_VERDICTS + max_stages

    stats = {
        "horizon": HORIZON,
        "rate_per_minute": RATE,
        "repeats": REPEATS,
        "arrivals": arrivals,
        "trace_records": document.trailer.records,
        "records_per_arrival": round(records_per_arrival, 4),
        "records_per_arrival_bound": records_bound,
        "seconds_plain": round(best_plain, 4),
        "seconds_recorded": round(best_recorded, 4),
        "record_overhead_fraction": round(overhead, 4),
        "seconds_replay": round(best_replay, 4),
        "replay_speedup_vs_live": round(speedup, 4),
        "fleet_digest": document.trailer.fleet_digest,
        "replay_matched": bool(report.matched),
    }
    Path("BENCH_trace.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n"
    )

    print(f"\narrivals recorded: {arrivals:,} "
          f"({document.trailer.records} trace records, "
          f"{records_per_arrival:.2f} per arrival, bound {records_bound})")
    print(f"plain (best):      {best_plain:.3f}s")
    print(f"recorded (best):   {best_recorded:.3f}s")
    print(f"overhead:          {overhead:+.1%} (reported, not gated)")
    print(f"replay (best):     {best_replay:.3f}s ({speedup:.2f}x vs live)")

    # Recording is behaviourally invisible ...
    assert digest_recorded == digest_plain, (
        "attaching a TraceRecorder changed the fleet telemetry digest"
    )
    # ... replay reproduces the run byte-for-byte ...
    assert report.matched, (
        f"replay diverged: {report.replayed_digest} != "
        f"{report.expected_digest}"
    )
    # ... and recording stays per event, never per second.
    assert arrivals > 0
    assert records_per_arrival <= records_bound, (
        f"{document.trailer.records} trace records for {arrivals} "
        f"arrivals ({records_per_arrival:.2f} per arrival) exceed the "
        f"bound of {records_bound}"
    )
