"""Observability overhead benchmark: the obs hooks must stay cheap.

Drives the real serve stack (gateway → micro-batcher → distributor) over
synthetic nodes twice — once unobserved (``obs=None``) and once with a
full :class:`repro.obs.Observer` (shared registry + pump spans) — and
checks the acceptance bar:

* **behavioural transparency** — the observed run admits exactly the
  requests the unobserved run admits (gateway telemetry digests match),
  and two observed runs export byte-identical artifacts;
* **< 15 % overhead** — best-of-N wall time with observation enabled
  stays within ``1.15 × unobserved + epsilon``.

Real game sessions would spend the budget simulating frames; the
synthetic nodes keep the admission arithmetic and nothing else.
Timings land in ``BENCH_obs.json`` (uploaded by the CI obs-smoke job).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cluster.fleet import ClusterScheduler, NodeHealth
from repro.core.distributor import Distributor
from repro.games.catalog import build_catalog
from repro.obs import Observer
from repro.platform_.resources import N_DIMS, ResourceVector
from repro.serve import AdmissionGateway, GatewayConfig
from repro.serve.loadgen import OpenLoopLoadGen

SEED = 17
RATE_PER_SECOND = 55.0  # arrivals per simulated second
PUMP_INTERVAL = 5
N_NODES = 3
DIST_HORIZON = 3
GAMES = ("contra", "dota2", "genshin", "csgo")
HORIZON = 1000          # simulated seconds (~55k requests)
REPEATS = 5             # best-of-N to shed scheduler noise
MAX_OVERHEAD = 0.15     # the ISSUE's budget
EPSILON = 0.05          # seconds of absolute slack for short runs


@pytest.fixture(scope="module")
def loadgen():
    catalog = build_catalog()
    specs = [catalog[name] for name in GAMES]
    return OpenLoopLoadGen(
        specs,
        rate_per_second=RATE_PER_SECOND,
        seed=SEED,
        horizon=float(HORIZON),
        player_pool=16,
    )


def uniform(value):
    """A ResourceVector with every dimension at ``value``."""
    return ResourceVector.from_array([value] * N_DIMS)


class SyntheticTask:
    """A running task with a fixed ceiling and a flat predicted peak
    (the distributor's ``RunningTaskView``)."""

    def __init__(self, alloc, peak, end_time):
        self.end_time = end_time
        self._alloc = alloc
        self._peak = peak

    @property
    def current_allocation(self):
        return self._alloc

    def predicted_peaks(self, horizon):
        return [self._peak] * horizon


class SyntheticScheduler:
    """The duck-typed CoCG surface the micro-batcher probes for: one
    admission snapshot per instant, dropped when the running set
    changes."""

    def __init__(self, capacity):
        self.distributor = Distributor(capacity, horizon=DIST_HORIZON)
        self.tasks = []  # lint: disable=CG009 - bounded by admission capacity
        self._snapshot = None

    def admission_snapshot(self, time):
        if self._snapshot is None or self._snapshot[0] != time:
            self._snapshot = (
                time, self.distributor.begin_batch(list(self.tasks))
            )
        return self._snapshot[1]

    def admission_terms(self, profile):
        return profile.entry_min, profile.steady

    def set_tasks(self, tasks):
        self.tasks = tasks
        self._snapshot = None


class SyntheticNode:
    """Duck-types the ``FleetNode`` surface cluster dispatch uses."""

    def __init__(self, node_id, profiles):
        self.node_id = node_id
        self.health = NodeHealth.UP
        self.profiles = profiles
        self.strategy = SimpleNamespace(
            scheduler=SyntheticScheduler(uniform(95.0))
        )

    def try_admit(self, request, *, time, seed, incarnation=0):
        sched = self.strategy.scheduler
        profile = self.profiles.get(request.spec.name)
        if profile is None:
            return False
        decision = sched.admission_snapshot(time).evaluate(
            profile.entry_min, profile.steady
        )
        if not decision.admitted:
            return False
        duration = 45.0 + (request.request_id % 60)
        sched.set_tasks(sched.tasks + [
            SyntheticTask(profile.steady, profile.steady, time + duration)
        ])
        return True

    def headroom(self):
        return 1.0 - min(1.0, len(self.strategy.scheduler.tasks) / 4.0)

    def advance(self, time):
        """Expire finished tasks."""
        sched = self.strategy.scheduler
        sched.set_tasks([t for t in sched.tasks if t.end_time > time])


def synthetic_profiles(specs):
    """Per-game admission terms: heavy enough that nodes saturate."""
    out = {}
    for k, spec in enumerate(specs):
        steady = 24.0 + 4.0 * (k % 3)
        out[spec.name] = SimpleNamespace(
            entry_min=uniform(6.0),
            steady=uniform(steady),
        )
    return out


def drive(loadgen, *, obs=None, horizon=HORIZON):
    """One full gateway run over synthetic nodes; returns the gateway."""
    catalog = build_catalog()
    specs = [catalog[name] for name in GAMES]
    profiles = synthetic_profiles(specs)
    nodes = [SyntheticNode(f"node-{i}", profiles) for i in range(N_NODES)]
    cluster = ClusterScheduler(nodes, policy="round-robin")
    gateway = AdmissionGateway(
        cluster,
        config=GatewayConfig(
            queue_capacity=48,
            rate_per_second=4.0,
            burst=24,
            max_queue_seconds=120.0,
        ),
        obs=obs,
    )
    cluster.attach_gateway(gateway)

    def seed_for(request, incarnation):
        return 0  # synthetic tasks draw nothing

    prev = 0.0
    for t in range(0, horizon, PUMP_INTERVAL):
        now = float(t)
        for node in nodes:
            node.advance(now)
        for request in loadgen.due(prev, now + 1e-9):
            cluster.submit(request, time=now)
        prev = now + 1e-9
        gateway.pump(now, seed_for)
    return gateway


def timed_drive(loadgen, *, observed):
    """One run; returns (elapsed seconds, gateway, observer-or-None)."""
    obs = Observer() if observed else None
    t0 = time.perf_counter()
    gateway = drive(loadgen, obs=obs)
    return time.perf_counter() - t0, gateway, obs


def test_obs_overhead(loadgen):
    # Interleave the repeats so drift (cache warmth, CPU frequency)
    # hits both modes evenly; keep the best of each.
    t_off, t_on = [], []
    digest_off = digest_on = None
    exports = []
    for _ in range(REPEATS):
        dt, gateway, _ = timed_drive(loadgen, observed=False)
        t_off.append(dt)
        digest_off = gateway.telemetry.digest()
        dt, gateway, obs = timed_drive(loadgen, observed=True)
        t_on.append(dt)
        digest_on = gateway.telemetry.digest()
        exports.append((obs.metrics_text(), obs.trace_digest()))

    best_off, best_on = min(t_off), min(t_on)
    overhead = best_on / best_off - 1.0

    stats = {
        "horizon": HORIZON,
        "requests": len(loadgen),
        "repeats": REPEATS,
        "seconds_unobserved": round(best_off, 4),
        "seconds_observed": round(best_on, 4),
        "overhead_fraction": round(overhead, 4),
        "budget_fraction": MAX_OVERHEAD,
        "metric_families": len(exports[-1][0].splitlines()),
        "trace_digest": exports[-1][1],
    }
    Path("BENCH_obs.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n"
    )

    print(f"\nrequests driven:   {len(loadgen):,}")
    print(f"unobserved (best): {best_off:.3f}s")
    print(f"observed (best):   {best_on:.3f}s")
    print(f"overhead:          {overhead:+.1%} (budget {MAX_OVERHEAD:.0%})")

    # Observation is behaviourally invisible ...
    assert digest_on == digest_off, (
        "attaching an Observer changed admission outcomes"
    )
    # ... and deterministic: every observed repeat exported identically.
    assert all(e == exports[0] for e in exports[1:]), (
        "observed repeats exported different artifacts"
    )
    # ... and cheap.
    assert best_on <= best_off * (1.0 + MAX_OVERHEAD) + EPSILON, (
        f"observability overhead {overhead:+.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} budget "
        f"({best_on:.3f}s observed vs {best_off:.3f}s unobserved)"
    )
