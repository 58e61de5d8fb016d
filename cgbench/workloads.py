"""The benchmark's three workloads, driven through the real fleet stack.

Each workload turns a seed into inputs (:meth:`make_inputs`, untimed),
builds the system from them (:meth:`setup`, timed as ``setup_s``), and
hands back *units*: zero-argument callables that run one whole
simulation each and return a :class:`UnitRun`.  The runner repeats
units and checks that every repeat reproduces the unit's first run
exactly, since the simulator is deterministic in its inputs.

The simulator consumes its inputs as fast as it can (no host-time
arrival schedule), so every workload is a batch job and its headline is
simulated work per host second at a stated input size.

The seed draws the traffic, never the system: trained profiles come
from each workload's fixed run config, because a profile-training seed
picks a different scheduler.  Over one routed fleet hour, mean wait
ranged from 88 s to 481 s across profile seeds, but only from 74 s to
123 s across traffic seeds with the profiles fixed.

* ``replay-launch-day`` and ``replay-mobile-burst`` replay corpus
  scenarios with digest parity.  At the default seed the first variant
  is the shipped ``corpus/<scenario>.cgtrace``, loaded unchanged; every
  other variant is regenerated in-process from ``SCENARIOS[scenario]``
  with the seed of its arrival stream replaced.  A run replays several
  variants because one 600 s scenario is too small a sample of its
  shape.
* ``fleet-4region-1h`` routes hours of 8 req/min across four regional
  shards of two nodes each (``FleetOfFleets``, no gateway), runs them
  with ``run_partitioned`` and merges them.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

from repro.cluster.experiment import (
    FleetExperiment,
    FleetResult,
    default_arrivals,
)
from repro.fleet.controller import FleetOfFleets, RegionSpec
from repro.games.catalog import build_catalog
from repro.sim.engine import run_partitioned
from repro.trace import harness
from repro.trace.corpus import SCENARIOS, ScenarioArrivals
from repro.trace.format import TraceDocument
from repro.util.rng import derive_seed
from repro.workloads.requests import GameRequest

__all__ = [
    "DEFAULT_SEED",
    "Outcome",
    "UnitRun",
    "Unit",
    "WORKLOADS",
]

#: The seed at which the replays use the shipped corpus traces.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Outcome:
    """The simulated outcome of one fleet run (a replay or a region).

    Every field is a pure function of the run's inputs, so two runs of
    the same inputs must produce equal outcomes.
    """

    arrivals: int
    session_s: int  # session-seconds advanced (telemetry rows)
    dispatched: int
    completed: int
    eq2: float
    fraction_of_best: float
    violation_fraction: float
    mean_wait_s: float
    lost: int  # dead letters + gateway sheds
    unaccounted: int


def outcome_of(experiment: FleetExperiment, result: FleetResult) -> Outcome:
    """Read one finished run's outcome off its experiment and result."""
    cluster = experiment.cluster
    session_s = sum(
        node.telemetry.n_samples(sid)
        for node in cluster.nodes
        for sid in node.telemetry.session_ids
    )
    shed = cluster.gateway.shed if cluster.gateway is not None else 0
    return Outcome(
        arrivals=len(experiment.arrivals.requests),
        session_s=session_s,
        dispatched=result.session_accounting["dispatched"],
        completed=sum(result.completed_runs.values()),
        eq2=result.throughput,
        fraction_of_best=result.fraction_of_best,
        violation_fraction=result.violation_fraction,
        mean_wait_s=result.mean_wait_seconds,
        lost=len(result.dead_letters) + shed,
        unaccounted=result.unaccounted_sessions,
    )


@dataclass
class UnitRun:
    """One unit's run: host wall time, digest, outcomes, or the error.

    The runner sets ``scaled``, the wall time at the probe's reference
    host speed (see ``probe.py``).
    """

    wall: float
    digest: str
    outcomes: List[Outcome] = field(default_factory=list)
    error: str = ""
    scaled: float = 0.0


@dataclass
class Unit:
    """One simulation a pass runs; ``arrivals`` is its operation count."""

    label: str
    arrivals: int
    run: Callable[[], UnitRun]


def variant_seed(seed: int, workload: str, variant: int) -> int:
    """The arrival seed of one input variant of a workload.

    Callers keep the first variant at the default seed as shipped.
    """
    return derive_seed(seed, "cgbench", workload, str(variant)) % 2 ** 31


def _take_experiments(instances: Dict[str, list], n: int) -> list:
    """Pop the ``n`` experiments the last unit built (in build order)."""
    bucket = instances["experiment"]
    taken = bucket[len(bucket) - n:]
    del bucket[len(bucket) - n:]
    return taken


# ---------------------------------------------------------------------------
# Corpus replays
# ---------------------------------------------------------------------------

class Replay:
    """Replays ``variants`` traffic variants of one corpus scenario."""

    def __init__(self, name: str, scenario: str, variants: int):
        self.name = name
        self.scenario = scenario
        self.variants = variants

    def make_inputs(self, seed: int, root: Path) -> List[str]:
        """One ``.cgtrace`` text per variant."""
        return [
            (root / "corpus" / f"{self.scenario}.cgtrace").read_text(
                encoding="utf-8"
            )
            if seed == DEFAULT_SEED and variant == 0
            else self._generate(variant_seed(seed, self.name, variant))
            for variant in range(self.variants)
        ]

    def _generate(self, arrival_seed: int) -> str:
        """Record the scenario with its arrival stream drawn anew.

        Only the arrival stream takes the new seed.  The run config, and
        so the trained profiles, stay the scenario's: a new profile seed
        trains a different scheduler, whose outcomes differ by far more
        than a different day's traffic does.
        """
        scenario = SCENARIOS[self.scenario]
        traffic = dataclasses.replace(
            scenario,
            config=dataclasses.replace(scenario.config, seed=arrival_seed),
        )
        catalog = build_catalog()
        arrivals = ScenarioArrivals(
            traffic, [catalog[g] for g in scenario.config.games]
        )
        _result, recorder = harness.record_run(
            scenario.config, scenario=scenario.name, plan=scenario.plan(),
            arrivals=arrivals,
        )
        return recorder.document.dumps()

    def setup(self, texts: List[str], instances: Dict[str, list]) -> List[Unit]:
        """Parse every trace and train the profiles their configs name."""
        profiles: Dict[str, dict] = {}
        units = []
        for variant, text in enumerate(texts):
            document = TraceDocument.loads(text)
            key = document.header.fingerprint
            if key not in profiles:
                profiles[key] = harness.build_profiles(
                    harness.RunConfig.from_dict(document.header.config)
                )
            units.append(Unit(
                f"{self.scenario}#{variant}",
                len(document.arrivals),
                self._runner(document, profiles[key], instances),
            ))
        return units

    @staticmethod
    def _runner(document, profiles, instances) -> Callable[[], UnitRun]:
        def run() -> UnitRun:
            start = time.perf_counter()
            try:
                report = harness.replay_document(
                    document, profiles=profiles, strict=False
                )
            except Exception as exc:  # one failed unit, reported not raised
                return UnitRun(time.perf_counter() - start, "", error=repr(exc))
            wall = time.perf_counter() - start
            (experiment,) = _take_experiments(instances, 1)
            error = "" if report.matched else (
                f"replayed digest {report.replayed_digest[:16]} != recorded "
                f"{report.expected_digest[:16]}: {report.divergence}"
            )
            return UnitRun(
                wall, report.replayed_digest,
                [outcome_of(experiment, report.result)], error,
            )

        return run


# ---------------------------------------------------------------------------
# Sharded fleet
# ---------------------------------------------------------------------------

class ShardedFleet:
    """Routed fleet-of-fleets runs over four regional shards.

    The fleet's config, and so its trained profiles, is fixed; the seed
    draws the arrival streams the router splits across the regions.  At
    the default seed the first stream is the one ``FleetOfFleets.run``
    itself would route.  A run covers two independent hours, because the
    violation fraction and mean wait of a single hour swing by a sixth
    with the traffic.
    """

    name = "fleet-4region-1h"
    REGIONS = ("east", "north", "south", "west")
    HOURS = 2
    CONFIG = harness.RunConfig(
        games=("contra", "dota2"), nodes=2, horizon=3600,
        rate_per_minute=8.0, gateway=False, seed=DEFAULT_SEED,
    )

    def make_inputs(self, seed: int, root: Path) -> List[List[GameRequest]]:
        """One arrival stream per hour."""
        catalog = build_catalog()
        return [
            default_arrivals(
                [catalog[g] for g in self.CONFIG.games],
                rate_per_minute=self.CONFIG.rate_per_minute,
                seed=(
                    seed if seed == DEFAULT_SEED and hour == 0
                    else variant_seed(seed, self.name, hour)
                ),
                horizon=float(self.CONFIG.horizon),
            ).requests
            for hour in range(self.HOURS)
        ]

    def setup(
        self, streams: List[List[GameRequest]], instances: Dict[str, list]
    ) -> List[Unit]:
        """Build the shards (and profiles) once, then route each stream."""
        fleet = FleetOfFleets(
            self.CONFIG, [RegionSpec(n) for n in self.REGIONS]
        )
        built = fleet.build_shards()
        units = []
        for hour, requests in enumerate(streams):
            # A shard's run() builds a fresh cluster; only its arrival
            # slice differs between hours.
            shards = {name: copy.copy(shard) for name, shard in built.items()}
            for name, routed in fleet.router.split(requests).items():
                shards[name].arrivals = routed
            units.append(Unit(
                f"{self.name}#{hour}", len(requests),
                self._runner(fleet, shards, instances),
            ))
        return units

    @staticmethod
    def _runner(fleet, shards, instances) -> Callable[[], UnitRun]:
        names = sorted(shards)

        def run() -> UnitRun:
            start = time.perf_counter()
            try:
                outcomes = run_partitioned(
                    {name: shards[name].run for name in names}
                )
                merged = fleet.merge(outcomes)
            except Exception as exc:  # one failed unit, reported not raised
                return UnitRun(time.perf_counter() - start, "", error=repr(exc))
            wall = time.perf_counter() - start
            experiments = _take_experiments(instances, len(names))
            return UnitRun(wall, merged.merged_digest, [
                outcome_of(experiment, outcomes[name].result)
                for name, experiment in zip(names, experiments)
            ])

        return run


WORKLOADS = {
    w.name: w
    for w in (
        Replay("replay-launch-day", "launch-day", variants=6),
        Replay("replay-mobile-burst", "mobile-burst", variants=16),
        ShardedFleet(),
    )
}
