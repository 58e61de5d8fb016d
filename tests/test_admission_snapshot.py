"""Admission before build: the shared snapshot, the exact verdict and the
input-keyed rollout memo.

The reference below is the build-then-admit path the scheduler used
before the verdict moved ahead of session construction: a fresh
Algorithm-1 pass per attempt, then a real ``allocator.place`` whose
failure under the cap is the second way to reject.  Driving a reference
scheduler and a current one through the same randomized history must
give the same verdicts, counters, decision log and allocator audit
trail, while the current one builds a session only when it admits.
"""

import numpy as np
import pytest

from repro.baselines import CoCGStrategy
from repro.cluster import ClusterScheduler, FleetExperiment, FleetNode
from repro.cluster import fleet as fleet_module
from repro.core.distributor import AdmissionDecision
from repro.core.health import PredictorHealth
from repro.core.scheduler import CoCGScheduler, SessionControl
from repro.games.session import GameSession
from repro.platform_.allocator import AllocationError, Allocator
from repro.platform_.server import GPUDevice, Server
from repro.sim.telemetry import TelemetryRecorder
from repro.workloads.experiment import ColocationExperiment

PLACEMENT_FAILED = "placement failed under the cap"


def make_scheduler(cap=0.95):
    server = Server("s", gpus=[GPUDevice()])
    return CoCGScheduler(Allocator(server, utilization_cap=cap))


def reference_try_admit(sched, session, profile, *, time):
    """Build-then-admit, as it ran before the verdict-first path."""
    backend, planner = sched._admission_planner(profile)
    entry = planner.for_loading()
    entry_min, steady = sched.admission_terms(profile)
    decision = sched.distributor.can_admit(entry_min, steady, sched.task_views())
    if not decision.admitted:
        sched.rejections += 1
        sched._now = time
        sched._log(session.session_id, "reject", decision.reason)
        return decision
    gi = sched.allocator.gpu_order()[0]
    throttled = planner.throttled_loading(sched.config.regulator.steal_fraction)
    grant = entry.minimum(sched.allocator.capped_available(gi)).maximum(
        throttled.minimum(entry)
    )
    try:
        sched.allocator.place(session.session_id, grant, gpu_index=gi, time=time)
    except AllocationError:
        sched.rejections += 1
        return AdmissionDecision(False, PLACEMENT_FAILED)
    ctl = SessionControl(
        session, profile, planner, backend, sched.config.replace_after,
        steal_fraction=sched.config.regulator.steal_fraction,
        health=PredictorHealth(
            threshold=sched.config.failure_threshold,
            cooldown=sched.config.failure_cooldown,
        ),
        now=time,
    )
    ctl.desired = entry
    sched._sessions[session.session_id] = ctl
    sched.admissions += 1
    sched._now = time
    sched._log(session.session_id, "admit", decision.reason)
    return decision


class Side:
    """One scheduler plus the sessions it hosts and their telemetry."""

    def __init__(self, cap):
        self.sched = make_scheduler(cap)
        self.telemetry = TelemetryRecorder(seed=3)
        self.sessions = {}
        self.builds = 0

    def advance(self, start, seconds):
        for t in range(start, start + seconds):
            for sid, session in list(self.sessions.items()):
                alloc = self.sched.allocation_of(sid)
                tick = session.advance(alloc)
                self.telemetry.record(t, sid, tick.demand, alloc)
                if tick.finished:
                    self.sched.release(sid, time=t)
                    del self.sessions[sid]
            if (t + 1) % 5 == 0:
                self.sched.control(t + 1, self.telemetry)

    def state(self):
        s = self.sched
        return (
            s.admissions, s.rejections, list(s.decision_log),
            [(e.time, e.action, e.session_id, e.gpu_index,
              tuple(e.allocation.array.tolist()))
             for e in s.allocator.events],
            sorted(self.sessions),
        )


def attempt(old, new, spec, profile, sid, seed, time):
    """One admission attempt on both sides; returns the verdict's kind."""

    def make():
        return GameSession(spec, None, seed=seed, session_id=sid)

    def build():
        new.builds += 1
        return make()

    ref_session = make()
    expected = reference_try_admit(old.sched, ref_session, profile, time=time)
    got, session = new.sched.admit_lazy(sid, profile, build, time=time)
    assert (got.admitted, got.reason) == (expected.admitted, expected.reason)
    if not expected.admitted:
        assert session is None
        return "cap" if expected.reason == PLACEMENT_FAILED else "reject"
    assert session.session_id == sid
    old.sessions[sid] = ref_session
    new.sessions[sid] = session
    return "admit"


@pytest.mark.parametrize("seed", [0, 3, 4, 5])
def test_verdict_before_build_matches_build_then_admit(
    seed, contra_profile, catalog
):
    spec = catalog["contra"]
    rng = np.random.default_rng(seed)
    cap = float(rng.uniform(0.6, 0.95))
    old, new = Side(cap), Side(cap)
    t = 0
    verdicts = {"admit": 0, "reject": 0, "cap": 0}
    for step in range(70):
        action = rng.random()
        if action < 0.6:
            # A burst of attempts at one instant, as a flash crowd
            # brings them: loading newcomers hold full boot grants that
            # Algorithm 1 counts at their throttled footprint, so some
            # later ones pass it and still fail the cap.
            for k in range(int(rng.integers(1, 5))):
                verdicts[attempt(
                    old, new, spec, contra_profile, f"c-{step}.{k}",
                    int(rng.integers(1 << 30)), t,
                )] += 1
        elif action < 0.9:
            seconds = int(rng.integers(1, 12))
            old.advance(t, seconds)
            new.advance(t, seconds)
            t += seconds
        elif old.sessions:
            sid = sorted(old.sessions)[int(rng.integers(len(old.sessions)))]
            for side in (old, new):
                side.sched.release(sid, time=t)
                del side.sessions[sid]
        assert new.state() == old.state()
    assert new.builds == new.sched.admissions
    # The history must exercise every branch of the verdict.
    assert all(verdicts.values()), verdicts


def test_fleet_builds_a_session_only_per_admission(
    monkeypatch, toy_spec, toy_profile
):
    """Work-counter gate: no gateway, so every dispatch attempt reaches
    ``FleetNode.try_admit``; only admitted attempts build a session."""
    built = []
    attempts = []

    class CountingSession(GameSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.session_id)

    real_try_admit = FleetNode.try_admit

    def counting_try_admit(self, *args, **kwargs):
        attempts.append(self.node_id)
        return real_try_admit(self, *args, **kwargs)

    monkeypatch.setattr(fleet_module, "GameSession", CountingSession)
    monkeypatch.setattr(FleetNode, "try_admit", counting_try_admit)
    nodes = [
        FleetNode(f"n{i}", CoCGStrategy(), {"toygame": toy_profile}, seed=i)
        for i in range(2)
    ]
    cluster = ClusterScheduler(nodes, policy="round-robin")
    FleetExperiment(
        cluster, [toy_spec], horizon=600, rate_per_minute=6.0, seed=3
    ).run()
    admissions = sum(n.strategy.scheduler.admissions for n in nodes)
    rejections = sum(n.strategy.scheduler.rejections for n in nodes)
    assert rejections > 0 and admissions > 0
    assert len(attempts) == admissions + rejections
    assert len(built) == admissions


class TestSnapshotLifetime:
    @pytest.fixture
    def hosted(self, toy_spec, toy_profile):
        sched = make_scheduler()
        session = GameSession(toy_spec, "full", seed=0)
        assert sched.try_admit(session, toy_profile, time=0).admitted
        return sched, session

    def test_shared_within_an_instant(self, hosted):
        sched, _ = hosted
        snap = sched.admission_snapshot(1.0)
        assert sched.admission_snapshot(1.0) is snap
        assert sched.admission_snapshot(2.0) is not snap

    def test_dropped_on_admit_kept_on_reject(self, hosted, toy_spec, toy_profile):
        sched, _ = hosted
        outcomes = []
        for seed in range(1, 12):
            snap = sched.admission_snapshot(0.0)
            session = GameSession(toy_spec, "full", seed=seed)
            admitted = sched.try_admit(session, toy_profile, time=0).admitted
            # Only an admission changes the running set.
            assert (sched.admission_snapshot(0.0) is not snap) == admitted
            outcomes.append(admitted)
        assert any(outcomes) and not all(outcomes)

    def test_dropped_on_release(self, hosted):
        sched, session = hosted
        snap = sched.admission_snapshot(3.0)
        sched.release(session.session_id, time=3.0)
        assert sched.admission_snapshot(3.0) is not snap

    def test_dropped_on_control(self, hosted):
        sched, _ = hosted
        snap = sched.admission_snapshot(5.0)
        sched.control(5.0, TelemetryRecorder(seed=0))
        assert sched.admission_snapshot(5.0) is not snap


class TestRolloutMemo:
    @pytest.fixture
    def ctl(self, toy_spec, toy_profile):
        sched = make_scheduler()
        session = GameSession(toy_spec, "full", seed=0)
        sched.try_admit(session, toy_profile, time=0)
        ctl = sched.sessions[session.session_id]
        assert ctl.predicted is not None  # primed: a stage to roll from
        return ctl

    def test_repeat_calls_share_one_rollout(self, ctl):
        before = ctl.predictor.rollout_count
        first = ctl.predicted_peaks(3)
        assert ctl.predicted_peaks(3) is first
        assert ctl.predictor.rollout_count == before + 1

    def test_fault_toggle_returns_a_fresh_rollout(self, ctl):
        healthy = ctl.predicted_peaks(3)
        predictor = ctl.predictor
        predictor.inject_failure(True)
        try:
            faulted = ctl.predicted_peaks(3)
            assert faulted is not healthy
            assert ctl.predicted_peaks(3) is faulted
        finally:
            predictor.inject_failure(False)
        assert ctl.predicted_peaks(3) is not faulted

    def test_stage_belief_change_recomputes(self, ctl):
        first = ctl.predicted_peaks(3)
        ctl.exec_history.append(ctl.predicted)
        assert ctl.predicted_peaks(3) is not first

    def test_control_visit_keeps_an_unchanged_rollout(
        self, toy_spec, toy_profile
    ):
        side = Side(0.95)
        session = GameSession(toy_spec, "full", seed=0)
        side.sched.try_admit(session, toy_profile, time=0)
        side.sessions[session.session_id] = session
        ctl = side.sched.sessions[session.session_id]
        peaks = ctl.predicted_peaks(3)
        before = ctl.predictor.rollout_count
        belief = (ctl.phase, ctl.believed, ctl.predicted, list(ctl.exec_history))
        side.advance(0, 5)  # one control visit, still booting
        assert side.sched.decision_log[-1].action == "admit"
        assert belief == (
            ctl.phase, ctl.believed, ctl.predicted, list(ctl.exec_history)
        )
        assert ctl.predicted_peaks(3) is peaks
        assert ctl.predictor.rollout_count == before


class BuildThenAdmit(CoCGStrategy):
    """CoCG with every offered session built before its verdict, the
    order the single-server experiment used before it admitted first."""

    def try_admit_lazy(self, session_id, game, build, *, time):
        session = build()
        return super().try_admit_lazy(
            session_id, game, lambda: session, time=time
        )


class TestSingleServerExperiment:
    """The paper-bench driver builds a session only once CoCG admits it."""

    def test_builds_only_admitted_sessions(
        self, monkeypatch, contra_profile, toy_profile
    ):
        profiles = {"contra": contra_profile, "toygame": toy_profile}
        builds = []
        init = GameSession.__init__

        def counting_init(session, *args, **kwargs):
            builds.append(kwargs.get("session_id"))
            init(session, *args, **kwargs)

        monkeypatch.setattr(GameSession, "__init__", counting_init)

        def run(strategy):
            builds.clear()
            result = ColocationExperiment(
                profiles, strategy, horizon=900, seed=11, max_concurrent=3
            ).run()
            return result, len(builds), list(strategy.scheduler.decision_log)

        lazy, lazy_builds, lazy_log = run(CoCGStrategy())
        eager, eager_builds, eager_log = run(BuildThenAdmit())
        assert lazy.rejections > 0
        assert lazy_builds == lazy.admissions
        assert eager_builds == eager.admissions + eager.rejections
        assert (lazy.admissions, lazy.rejections) == (
            eager.admissions, eager.rejections
        )
        assert lazy_log == eager_log
        assert lazy.completed_runs == eager.completed_runs
        assert lazy.telemetry.digest() == eager.telemetry.digest()
