"""Repository benchmark: corpus replays and a sharded fleet on the real stack.

Usage (from the repository root)::

    python3 cgbench/run.py --workload replay-launch-day --seed 1 --seconds 20
    python3 cgbench/run.py --workload all --trace 1

A workload's inputs are *units*, each one whole simulation.
``--trace 0`` measures the end-to-end metrics with no tracing: set-up is
repeated and its median reported, then the units run round-robin until
``--seconds`` have passed, each at least once and one of them twice;
rates use each unit's mean time.  Every timed set-up and unit run is
measured on ``probe.HostClock``, which interleaves a fixed probe workload
and reports time at the probe's reference host speed, so that host-speed
drift within and between runs cancels.  ``--trace 1`` runs each unit once
untraced, then two traced passes over all units that wrap every layer
boundary listed in ``layers.py``, and reports the per-layer metrics.
Every run of a unit must reproduce its first run's digest and simulated
outcomes, and the two traced passes each other's work counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The process
exits 0 only when every check held.  The simulator is not validated
against real hardware; the metrics measure this code, not a cloud.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import layers
import probe
from spans import Patches, SpanRecorder

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; their median is ``setup_s``.
SETUP_REPEATS = 7
#: Traced passes per traced run (the determinism check compares them).
TRACED_PASSES = 2

#: name, unit.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("session_s_per_s", "session-s/s"),
    ("admissions_per_s", "admits/s"),
    ("peak_rss_mb", "MB"),
    ("fps_fraction_of_best", "ratio"),
    ("qos_violation_frac", "ratio"),
    ("eq2_throughput", "Eq-2"),
    ("completed_sessions", "count"),
    ("dead_letter_frac", "ratio"),
    ("mean_wait_s", "sim-s"),
)


def _import_program() -> None:
    """Make ``repro`` importable from the checkout, or exit with 2."""
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "corpus").is_dir():
        print(
            f"cgbench: {ROOT} holds no src/repro or corpus/; run the "
            f"benchmark from a checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def _reset_peak_rss() -> None:
    """Reset the process's resident high-water mark (Linux)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")


def _peak_rss_mb() -> float:
    """The resident high-water mark, plus the largest child process's."""
    with open("/proc/self/status", encoding="ascii") as status:
        peak_kb = next(
            int(line.split()[1]) for line in status
            if line.startswith("VmHWM:")
        )
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (peak_kb + children_kb) / 1024.0


class Checks:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, arrivals: int, problem: str) -> None:
        self.failed += arrivals
        self.problems.append(problem)

    def gate(self, ok: bool, problem: str) -> None:
        """A check over the whole run; it fails the run, not operations."""
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems


def _signature(result) -> tuple:
    """What two runs of the same inputs must reproduce exactly."""
    return result.digest, result.outcomes, result.error


def tally(units, runs, checks: Checks) -> None:
    """Count operations; fail those whose run broke a check."""
    for unit, results in zip(units, runs):
        for index, result in enumerate(results):
            checks.attempted += unit.arrivals
            where = f"{unit.label} run {index}"
            if result.error:
                checks.fail(unit.arrivals, f"{where}: {result.error}")
            elif _signature(result) != _signature(results[0]):
                checks.fail(
                    unit.arrivals,
                    f"{where}: digest or outcomes differ from run 0",
                )
            else:
                for region, outcome in enumerate(result.outcomes):
                    if outcome.unaccounted:
                        checks.fail(
                            outcome.arrivals,
                            f"{where} part {region}: {outcome.unaccounted} "
                            f"unaccounted sessions",
                        )


def pass_wall(runs) -> float:
    """Scaled time of one pass over all units: the sum of unit means."""
    return sum(
        sum(r.scaled for r in results) / len(results) for results in runs
    )


def run_unit(unit, clock: probe.HostClock):
    """Run one unit on ``clock``; sets its result's scaled time."""
    clock.start()
    result = unit.run()
    _, result.scaled = clock.stop()
    return result


def first_outcomes(runs) -> list:
    """The outcomes of one pass: every unit's first run."""
    return [o for results in runs for o in results[0].outcomes]


def end_to_end(runs, setup_s: float, peak_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    wall = pass_wall(runs)
    outcomes = first_outcomes(runs)
    session_s = sum(o.session_s for o in outcomes)
    dispatched = sum(o.dispatched for o in outcomes)
    return {
        "setup_s": setup_s,
        "session_s_per_s": session_s / wall,
        "admissions_per_s": dispatched / wall,
        "peak_rss_mb": peak_mb,
        "fps_fraction_of_best": sum(
            o.fraction_of_best * o.session_s for o in outcomes
        ) / session_s,
        "qos_violation_frac": sum(
            o.violation_fraction * o.session_s for o in outcomes
        ) / session_s,
        "eq2_throughput": sum(o.eq2 for o in outcomes),
        "completed_sessions": sum(o.completed for o in outcomes),
        "dead_letter_frac": sum(o.lost for o in outcomes) / sum(
            o.arrivals for o in outcomes
        ),
        "mean_wait_s": sum(
            o.mean_wait_s * o.dispatched for o in outcomes
        ) / dispatched,
    }


def untraced_run(workload, inputs, seconds: float, repeat: bool):
    """Repeated set-ups, then unit runs for ``seconds``, all untraced.

    Units run round-robin until ``seconds`` have passed and each ran
    once, and with ``repeat`` one of them twice.  Returns the units, the
    runs of each, the median set-up time, the peak resident size and the
    host's speed relative to the probe's reference.
    """
    recorder = SpanRecorder()
    clock = probe.HostClock()
    with Patches() as patches:
        layers.install(recorder, patches, traced=False, tick=clock.tick)
        setups = []
        for _ in range(SETUP_REPEATS):
            units = None  # free the previous set-up before timing the next
            gc.collect()
            clock.start()
            units = workload.setup(inputs, recorder.instances)
            setups.append(clock.stop()[1])
        gc.collect()
        # The high-water mark itself, not its rise over the post-set-up
        # size: on the replays that rise is a few MB and swings by half
        # from run to run with how much set-up garbage the run reuses.
        _reset_peak_rss()
        runs: List[list] = [[] for _ in units]
        done, least = 0, len(units) + int(repeat)
        start = time.perf_counter()
        while done < least or time.perf_counter() - start < seconds:
            runs[done % len(units)].append(
                run_unit(units[done % len(units)], clock)
            )
            done += 1
            if done % len(units) == 0:
                gc.collect()
        peak_mb = _peak_rss_mb()
    speed = clock.scaled_total / clock.raw_total
    return units, runs, statistics.median(setups), peak_mb, speed


def traced_pass(workload, inputs):
    """One traced set-up and pass.

    Set-up and simulations record into separate recorders, so the
    sessions that profile training simulates stay out of the run's
    counts.  Returns both recorders and the pass's unit results.
    """
    setup, run = SpanRecorder(), SpanRecorder()
    with Patches() as patches:
        layers.install(setup, patches, traced=True)
        units = workload.setup(inputs, run.instances)
    gc.collect()
    # Probes only between units: inside one they would land in spans.
    clock = probe.HostClock(period=float("inf"))
    with Patches() as patches:
        layers.install(run, patches, traced=True)
        results = [run_unit(unit, clock) for unit in units]
    return setup, run, results


def traced_metrics(workload, inputs, runs, checks: Checks):
    """Per-layer metrics from two traced passes, with their checks."""
    untraced_wall = pass_wall(runs)
    reference = [_signature(results[0]) for results in runs]
    session_s = sum(o.session_s for o in first_outcomes(runs))
    per_pass, counts, shares = [], [], []
    for index in range(TRACED_PASSES):
        setup, run, results = traced_pass(workload, inputs)
        checks.gate(
            [_signature(r) for r in results] == reference,
            f"traced pass {index}: digest or outcomes differ from the "
            f"untraced run",
        )
        advanced = run.calls()["games.advance"]
        checks.gate(
            advanced == session_s,
            f"traced pass {index}: {advanced} session advances, untraced "
            f"run telemetry holds {session_s} session-seconds",
        )
        per_pass.append(layers.layer_metrics(
            setup, run, [o for r in results for o in r.outcomes],
            units=len(results), run_wall=sum(r.wall for r in results),
            overhead=sum(r.scaled for r in results) / untraced_wall - 1.0,
        ))
        counts.append({
            **{f"setup/{k}": v for k, v in layers.work_counts(setup).items()},
            **{f"run/{k}": v for k, v in layers.work_counts(run).items()},
        })
        shares = layers.layer_shares(run)
        del setup, run, results
        gc.collect()
    differing = sorted(
        key for key in counts[0] if counts[0][key] != counts[-1].get(key)
    )
    checks.gate(
        counts[0] == counts[-1],
        f"traced passes disagree on work counts: {differing}",
    )
    metrics = {
        name: statistics.median(m[name] for m in per_pass)
        for name in per_pass[0]
    }
    return metrics, shares


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (checks, metrics with units, report)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.make_inputs(seed, ROOT)
    checks = Checks()
    units, runs, setup_s, peak_mb, speed = untraced_run(
        workload, inputs, 0.0 if trace else seconds, repeat=not trace
    )
    tally(units, runs, checks)
    outcomes = first_outcomes(runs)
    report = [
        f"workload {name}  seed {seed}  units {len(units)}  unit runs "
        f"{sum(map(len, runs))}  per pass: "
        f"{sum(u.arrivals for u in units)} arrivals, "
        f"{sum(o.session_s for o in outcomes)} session-s",
    ]
    if not trace:
        values = end_to_end(runs, setup_s, peak_mb)
        metrics = {n: (values[n], unit) for n, unit in END_TO_END}
        for n, (value, unit) in metrics.items():
            report.append(f"  {n:<42} {value:>14.6g} {unit}")
        report.append(
            f"  host speed {speed:.3f} of the probe's reference; unscaled "
            f"session_s_per_s {values['session_s_per_s'] * speed:.6g}"
        )
    else:
        values, shares = traced_metrics(workload, inputs, runs, checks)
        metrics = {
            n: (values[n], unit) for n, unit, *_ in layers.PER_LAYER
        }
        targets = {n: (e2e, w) for n, _, _, e2e, w in layers.PER_LAYER}
        report.append("  self-time share by span: " + ", ".join(
            f"{span} {share:.1%}" for span, share in shares[:12]
        ))
        for n, (value, unit) in metrics.items():
            e2e, where = targets[n]
            mark = "*" if name in where else " "
            report.append(
                f" {mark}{n:<42} {value:>14.6g} {unit:<6} -> {e2e}"
            )
    report.append(
        f"  operations: attempted {checks.attempted}  succeeded "
        f"{checks.attempted - checks.failed}  failed {checks.failed}"
    )
    report.extend(f"  FAILED: {p}" for p in checks.problems)
    return checks, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(
            f"unknown workload {unknown[0]!r}; choose from "
            f"{', '.join(WORKLOADS)} or 'all'"
        )
    correct, attempted, failed, out = True, 0, 0, {}
    for name in names:
        checks, metrics, report = run_workload(
            name, args.seed, args.seconds, bool(args.trace)
        )
        print("\n".join(report), flush=True)
        correct = correct and checks.correct
        attempted += checks.attempted
        failed += checks.failed
        prefix = f"{name}/" if len(names) > 1 else ""
        out.update(
            (prefix + n, {"value": value, "unit": unit})
            for n, (value, unit) in metrics.items()
        )
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
