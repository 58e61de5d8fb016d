"""Which layer boundaries the traced run wraps, and the per-layer metrics.

Layers are named by the ``repro`` subpackage that owns them.  Every
wrapper is installed from here, on the program's public classes and
module functions, for the duration of one traced pass; the program's
own code is not changed.  ``PER_LAYER`` also records, for each metric,
the end-to-end metric and the workloads it is expected to move.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Optional, Tuple

import probe
from spans import Patches, SpanRecorder

__all__ = [
    "SPANS",
    "COUNTS",
    "EXPERIMENTS",
    "COLLECT",
    "PER_LAYER",
    "install",
    "layer_metrics",
    "work_counts",
    "layer_shares",
]

#: (module, class or "" for a module function, attribute, span name).
SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "SimulationEngine", "run_until", "sim.engine"),
    ("repro.games.session", "GameSession", "advance", "games.advance"),
    ("repro.games.session", "GameSession", "__init__", "games.session_init"),
    ("repro.sim.telemetry", "TelemetryRecorder", "record",
     "sim.telemetry.record"),
    ("repro.sim.telemetry", "TelemetryRecorder", "observed_window",
     "sim.telemetry.window"),
    ("repro.sim.telemetry", "TelemetryRecorder", "digest",
     "sim.telemetry.digest"),
    ("repro.platform_.qos", "QoSTracker", "record_second",
     "platform_.qos.record"),
    ("repro.core.scheduler", "CoCGScheduler", "control", "core.control"),
    ("repro.core.distributor", "BatchEvaluation", "evaluate", "core.alg1"),
    ("repro.core.predictor", "StagePredictor", "predict_next",
     "core.predict"),
    ("repro.cluster.experiment", "FleetExperiment", "run",
     "cluster.experiment"),
    ("repro.cluster.fleet", "ClusterScheduler", "submit", "cluster.submit"),
    ("repro.cluster.fleet", "ClusterScheduler", "pump", "cluster.pump"),
    ("repro.cluster.fleet", "ClusterScheduler", "dispatch",
     "cluster.dispatch"),
    ("repro.cluster.fleet", "ClusterScheduler", "tick", "cluster.tick"),
    ("repro.cluster.fleet", "ClusterScheduler", "control", "cluster.control"),
    ("repro.serve.gateway", "AdmissionGateway", "offer", "serve.offer"),
    ("repro.serve.gateway", "AdmissionGateway", "pump", "serve.pump"),
    ("repro.serve.batching", "MicroBatcher", "dispatch_one", "serve.batch"),
    ("repro.fleet.controller", "FleetOfFleets", "build_shards",
     "fleet.build"),
    ("repro.fleet.router", "SessionRouter", "split", "fleet.split"),
    ("repro.fleet.controller", "RegionShard", "run", "fleet.shard"),
    ("repro.fleet.controller", "FleetOfFleets", "merge", "fleet.merge"),
    ("repro.trace.format", "TraceDocument", "loads", "trace.load"),
    ("repro.trace.replayer", "TraceReplayer", "run", "trace.replay"),
    ("repro.trace.recorder", "TraceRecorder", "record_arrival",
     "trace.echo"),
    ("repro.trace.recorder", "TraceRecorder", "record_stage", "trace.echo"),
    ("repro.trace.recorder", "TraceRecorder", "record_verdict",
     "trace.echo"),
    ("repro.trace.recorder", "TraceRecorder", "record_plan", "trace.echo"),
    ("repro.trace.recorder", "TraceRecorder", "finalize", "trace.echo"),
    # The controller binds build_profiles by name, so both bindings.
    ("repro.trace.harness", "", "build_profiles", "setup.profiles"),
    ("repro.fleet.controller", "", "build_profiles", "setup.profiles"),
)

#: Callables too frequent to span (about 16 vectors per session-second):
#: (module, class, attribute, counter name).
COUNTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.platform_.resources", "ResourceVector", "__init__",
     "platform_.resource_vectors"),
    ("repro.core.predictor", "StagePredictor", "rollout", "core.rollouts"),
    # One node-level admission attempt; each builds a GameSession.
    ("repro.cluster.fleet", "FleetNode", "try_admit",
     "cluster.dispatch.attempts"),
)

#: Where the untraced host clock may probe, (module, class, attribute):
#: a control cycle starts every 1 to 4 ms of host time.
TICK = ("repro.core.scheduler", "CoCGScheduler", "control")

#: Every pass, traced or not, keeps the experiments it builds: outcomes
#: are read off their clusters.
EXPERIMENTS = ("repro.cluster.experiment", "FleetExperiment", "experiment")

#: Classes whose instances a traced pass also keeps, to read their state
#: after the run: (module, class, kind).
COLLECT: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine", "SimulationEngine", "engine"),
    ("repro.sim.telemetry", "TelemetryRecorder", "telemetry"),
    ("repro.core.scheduler", "CoCGScheduler", "scheduler"),
    ("repro.serve.batching", "MicroBatcher", "batcher"),
)

_ALL = ("replay-launch-day", "replay-mobile-burst", "fleet-4region-1h")
_LAUNCH = ("replay-launch-day",)
_BURST = ("replay-mobile-burst",)
_FLEET = ("fleet-4region-1h",)
_REPLAYS = _LAUNCH + _BURST

#: name, unit, better, end-to-end metric it should move, on which workloads.
PER_LAYER: Tuple[Tuple[str, str, str, str, Tuple[str, ...]], ...] = (
    ("sim.engine.events", "count", "lower", "session_s_per_s", _ALL),
    ("sim.engine.self_s", "s", "lower", "session_s_per_s", _ALL),
    ("games.advance.calls", "count", "lower", "session_s_per_s",
     _LAUNCH + _FLEET),
    ("games.advance.self_s", "s", "lower", "session_s_per_s",
     _LAUNCH + _FLEET),
    ("games.session_init.calls", "count", "lower", "admissions_per_s",
     _FLEET),
    ("games.session_init.self_s", "s", "lower", "admissions_per_s", _FLEET),
    ("sim.telemetry.record.self_s", "s", "lower", "session_s_per_s",
     _LAUNCH),
    ("sim.telemetry.window.self_s", "s", "lower", "session_s_per_s",
     _LAUNCH),
    ("sim.telemetry.digest.self_s", "s", "lower", "session_s_per_s",
     _FLEET),
    ("sim.telemetry.retained_rows", "count", "lower", "peak_rss_mb", _FLEET),
    ("platform_.qos.record.self_s", "s", "lower", "session_s_per_s",
     _LAUNCH),
    ("platform_.resource_vectors_per_session_s", "ratio", "lower",
     "session_s_per_s", _ALL),
    ("core.control.calls", "count", "lower", "session_s_per_s", _LAUNCH),
    ("core.control.self_s", "s", "lower", "session_s_per_s", _LAUNCH),
    ("core.alg1.evals", "count", "lower", "admissions_per_s", _BURST),
    ("core.alg1.self_s", "s", "lower", "admissions_per_s", _BURST),
    ("core.alg1.admit_ratio", "ratio", "higher", "admissions_per_s", _BURST),
    ("core.predict.calls", "count", "lower", "admissions_per_s", _BURST),
    ("core.rollouts_per_admission", "ratio", "lower", "admissions_per_s",
     _BURST),
    ("core.decision_log_len", "count", "lower", "peak_rss_mb", _FLEET),
    ("cluster.tick.self_s", "s", "lower", "session_s_per_s", _ALL),
    ("cluster.pump.self_s", "s", "lower", "session_s_per_s", _ALL),
    ("cluster.dispatch.attempts", "count", "lower", "admissions_per_s",
     _FLEET),
    ("cluster.dispatch.success_ratio", "ratio", "higher", "admissions_per_s",
     _FLEET),
    ("serve.pump.self_s", "s", "lower", "admissions_per_s", _BURST),
    ("serve.batch.calls", "count", "lower", "admissions_per_s", _BURST),
    ("serve.prescreen_reject_ratio", "ratio", "higher", "admissions_per_s",
     _BURST),
    ("fleet.split.self_s", "s", "lower", "setup_s", _FLEET),
    ("fleet.merge.self_s", "s", "lower", "session_s_per_s", _FLEET),
    ("fleet.shard_run_s.max", "s", "lower", "session_s_per_s", _FLEET),
    ("fleet.shard_imbalance", "ratio", "lower", "session_s_per_s", _FLEET),
    ("trace.load.self_s", "s", "lower", "setup_s", _REPLAYS),
    ("trace.echo.self_s", "s", "lower", "session_s_per_s", _REPLAYS),
    ("setup.profiles_s", "s", "lower", "setup_s", _ALL),
    ("bench.trace_overhead_frac", "ratio", "lower", "session_s_per_s", _ALL),
    ("bench.unattributed_s", "s", "lower", "session_s_per_s", _ALL),
)


def _owner(module: str, cls: str) -> object:
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def install(
    recorder: SpanRecorder, patches: Patches, *, traced: bool,
    tick: Optional[Callable[[], None]] = None,
) -> None:
    """Wrap the program for one pass.

    Untraced passes only keep the experiments they build; traced passes
    also record every span, counter and collected instance above.  With
    ``tick``, each scheduler control cycle first calls it, so that the
    host clock can probe inside long simulations.
    """
    if tick is not None:
        patches.replace(
            _owner(*TICK[:2]), TICK[2],
            lambda fn: probe.ticking(fn, tick),
        )
    collect = (EXPERIMENTS,) + (COLLECT if traced else ())
    for module, cls, kind in collect:
        patches.replace(
            _owner(module, cls), "__init__",
            lambda fn, kind=kind: recorder.collect(kind, fn),
        )
    if not traced:
        return
    for module, cls, attr, name in SPANS:
        patches.replace(
            _owner(module, cls), attr,
            lambda fn, name=name: recorder.span(name, fn),
        )
    for module, cls, attr, name in COUNTS:
        patches.replace(
            _owner(module, cls), attr,
            lambda fn, name=name: recorder.count(name, fn),
        )


def work_counts(recorder: SpanRecorder) -> Dict[str, int]:
    """Every count one recorder holds; two passes must agree exactly."""
    counts: Dict[str, int] = {
        f"calls:{name}": n for name, n in sorted(recorder.calls().items())
    }
    counts.update(
        (f"count:{name}", n) for name, n in sorted(recorder.counts.items())
    )
    inst = recorder.instances
    schedulers = inst["scheduler"]
    counts.update({
        "engine_events": sum(e.processed for e in inst["engine"]),
        "retained_rows": sum(
            t.n_samples(sid) for t in inst["telemetry"]
            for sid in t.session_ids
        ),
        "admissions": sum(s.admissions for s in schedulers),
        "decision_log_len": sum(len(s.decision_log) for s in schedulers),
        "batch_evaluations": sum(b.evaluations for b in inst["batcher"]),
        "prescreen_rejects": sum(
            b.prescreen_rejects for b in inst["batcher"]
        ),
    })
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    setup: SpanRecorder, run: SpanRecorder, outcomes: list, *,
    units: int, run_wall: float, overhead: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``setup`` and ``run`` recorded the pass's set-up and its ``units``
    simulations; ``outcomes`` are the simulations' outcomes, ``run_wall``
    their wall time and ``overhead`` their traced time over their
    untraced time, less 1.  Run counts and times are per unit (one replayed trace or
    one routed fleet hour), so they do not depend on how many units a
    workload pools; set-up times are per set-up.
    """
    self_s = run.self_times()
    calls = run.calls()
    counts = work_counts(run)
    advance = calls["games.advance"]
    attempts = run.counts["cluster.dispatch.attempts"]
    dispatched = sum(o.dispatched for o in outcomes)
    shards = run.durations("fleet.shard")
    mean_shard = sum(shards) / len(shards) if shards else 0.0
    totals = {
        "sim.engine.events": counts["engine_events"],
        "games.advance.calls": advance,
        "games.session_init.calls": calls["games.session_init"],
        "sim.telemetry.retained_rows": counts["retained_rows"],
        "core.control.calls": calls["core.control"],
        "core.alg1.evals": calls["core.alg1"],
        "core.predict.calls": calls["core.predict"],
        "core.decision_log_len": counts["decision_log_len"],
        "cluster.dispatch.attempts": attempts,
        "serve.batch.calls": calls["serve.batch"],
        "bench.unattributed_s": run.unattributed(run_wall),
    }
    for name, *_ in PER_LAYER:
        if name.endswith(".self_s"):
            totals[name] = self_s.get(name[: -len(".self_s")], 0.0)
    metrics = {name: value / units for name, value in totals.items()}
    # Set-up metrics are per set-up, and replace the run's (zero) values.
    setup_self = setup.self_times()
    metrics.update({
        "trace.load.self_s": setup_self.get("trace.load", 0.0),
        "fleet.split.self_s": setup_self.get("fleet.split", 0.0),
        "setup.profiles_s": sum(setup.durations("setup.profiles")),
        "platform_.resource_vectors_per_session_s": _ratio(
            run.counts["platform_.resource_vectors"], advance
        ),
        "core.alg1.admit_ratio": _ratio(
            counts["admissions"], calls["core.alg1"]
        ),
        "core.rollouts_per_admission": _ratio(
            run.counts["core.rollouts"], counts["admissions"]
        ),
        "cluster.dispatch.success_ratio": _ratio(dispatched, attempts),
        "serve.prescreen_reject_ratio": _ratio(
            counts["prescreen_rejects"], counts["batch_evaluations"]
        ),
        "fleet.shard_run_s.max": max(shards, default=0.0),
        "fleet.shard_imbalance": _ratio(max(shards, default=0.0), mean_shard),
        "bench.trace_overhead_frac": overhead,
    })
    return metrics


def layer_shares(recorder: SpanRecorder) -> List[Tuple[str, float]]:
    """Each span name's share of the pass's summed self time, largest first."""
    self_s = recorder.self_times()
    total = sum(self_s.values())
    return sorted(
        ((name, t / total) for name, t in self_s.items()),
        key=lambda item: -item[1],
    )
