"""The co-location experiment driver (paper §V-B).

Runs one scheduling strategy over one server for a fixed horizon:

* every second, each hosted session advances one tick under its current
  ceiling; telemetry and FPS are recorded;
* every detection interval, the strategy's control loop runs and pending
  requests are offered for admission;
* completed runs are counted toward Eq-2 throughput.

The driver is strategy-agnostic — CoCG and every baseline run under
identical conditions (same request stream seed, same player randomness,
same telemetry noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional

import numpy as np

from repro.baselines.base import SchedulingStrategy
from repro.core.pipeline import GameProfile
from repro.games.session import GameSession
from repro.platform_.allocator import Allocator
from repro.platform_.interference import InterferenceModel
from repro.platform_.qos import FpsModel, QoSTracker
from repro.platform_.server import GPUDevice, Server
from repro.sim.telemetry import TelemetryRecorder
from repro.util.rng import Seed, derive_seed
from repro.workloads.metrics import throughput_eq2
from repro.workloads.requests import ContinuousBacklog

__all__ = ["ExperimentResult", "ColocationExperiment"]


@dataclass
class ExperimentResult:
    """Everything a bench needs from one experiment run.

    Attributes
    ----------
    strategy:
        Strategy name.
    horizon:
        Simulated seconds.
    completed_runs:
        ``N_i`` per game.
    throughput:
        Eq-2 value.
    fraction_of_best:
        Time-weighted mean FPS / best-possible FPS per game (Fig 13).
    violation_fraction:
        Fraction of played seconds below the QoS floor, per game.
    total_usage:
        ``(horizon, 4)`` summed true usage (Fig 9 trace).
    peak_total_usage:
        Per-dimension peak of the summed usage.
    admissions, rejections:
        Admission statistics.
    colocated_seconds:
        Seconds with ≥ 2 sessions hosted simultaneously.
    over_cap_seconds:
        Seconds where summed usage exceeded the cap on any dimension.
    """

    strategy: str
    horizon: int
    completed_runs: Dict[str, int]
    throughput: float
    fraction_of_best: Dict[str, float]
    violation_fraction: Dict[str, float]
    total_usage: np.ndarray
    peak_total_usage: np.ndarray
    admissions: int
    rejections: int
    colocated_seconds: int
    over_cap_seconds: int
    telemetry: TelemetryRecorder = field(repr=False, default=None)
    qos: QoSTracker = field(repr=False, default=None)


class ColocationExperiment:
    """One strategy × one server × one request stream.

    Parameters
    ----------
    profiles:
        Offline game profiles (shared across strategies for fairness).
    strategy:
        The scheduling strategy under test.
    horizon:
        Simulated seconds (paper: 2 hours = 7200).
    seed:
        Master seed: session randomness and telemetry noise derive from
        it, so two strategies at the same seed face identical workloads.
    server:
        Server model; default one GPU (the paper pins co-located pairs
        to a device) at 100 % capacity per dimension.
    utilization_cap:
        The allocator budget (paper: 95 %).
    max_concurrent:
        Concurrent runs allowed per game.
    fps_model:
        QoS model (default γ = 1.5, floor 30 FPS).
    interference:
        Optional shared-resource contention model; when given, each
        session's demand is inflated by its co-runners' pressure before
        FPS/telemetry accounting (GAugur-style interference substrate).
    """

    def __init__(
        self,
        profiles: Dict[str, GameProfile],
        strategy: SchedulingStrategy,
        *,
        horizon: int = 7200,
        seed: Seed = 0,
        server: Optional[Server] = None,
        utilization_cap: float = 0.95,
        max_concurrent: int = 1,
        fps_model: Optional[FpsModel] = None,
        interference: Optional[InterferenceModel] = None,
    ):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.profiles = dict(profiles)
        self.strategy = strategy
        self.horizon = int(horizon)
        self._base_seed = seed if isinstance(seed, int) or seed is None else 0
        self.server = (
            server
            if server is not None
            else Server("server-0", gpus=[GPUDevice(name="gpu0")])
        )
        self.allocator = Allocator(self.server, utilization_cap=utilization_cap)
        self.telemetry = TelemetryRecorder(
            seed=derive_seed(self._base_seed, "telemetry")
        )
        self.qos = QoSTracker(fps_model)
        self.backlog = ContinuousBacklog(
            [p.spec for p in self.profiles.values()],
            seed=derive_seed(self._base_seed, "requests"),
            max_concurrent=max_concurrent,
        )
        self.interference = interference
        self._sessions: Dict[str, GameSession] = {}
        self._session_seeds = 0

    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Execute the experiment and aggregate the results."""
        strategy = self.strategy
        strategy.attach(self.allocator, self.profiles)
        interval = strategy.detect_interval
        cap = self.allocator.capped_capacity(0).array

        completed: Dict[str, int] = {name: 0 for name in self.profiles}
        total_usage = np.zeros((self.horizon, 4))
        colocated_seconds = 0
        over_cap_seconds = 0

        self._offer_requests(0.0)
        for t in range(self.horizon):
            # 1. Advance every hosted session one second.
            advanced = []
            for sid in list(self._sessions):
                session = self._sessions[sid]
                allocation = strategy.allocation_of(sid)
                tick = session.advance(allocation)
                advanced.append((sid, session, tick, allocation))
            # Shared-resource interference inflates each session's
            # effective demand by its co-runners' pressure.
            if self.interference is not None and len(advanced) > 1:
                usages = {
                    sid: tick.usage(alloc)
                    for sid, _s, tick, alloc in advanced
                }
                slowdowns = self.interference.slowdowns(usages)
            else:
                slowdowns = None
            for sid, session, tick, allocation in advanced:
                demand = tick.demand
                if slowdowns is not None:
                    demand = self.interference.inflate(demand, slowdowns[sid])
                self.telemetry.record(t, sid, demand, allocation)
                self.qos.record_second(
                    sid,
                    tick.nominal_fps,
                    demand,
                    allocation,
                    frame_lock=tick.frame_lock,
                )
                total_usage[t] += demand.minimum(allocation).array
                if tick.finished:
                    completed[session.spec.name] += 1
                    strategy.release(sid, time=t)
                    self.backlog.finished(session.spec.name)
                    del self._sessions[sid]
            if len(self._sessions) >= 2:
                colocated_seconds += 1
            if np.any(total_usage[t] > cap + 1e-6):
                over_cap_seconds += 1

            # 2. Control + admission every detection interval.
            if (t + 1) % interval == 0:
                strategy.control(t + 1, self.telemetry)
                self._offer_requests(float(t + 1))

        return self._aggregate(
            completed, total_usage, colocated_seconds, over_cap_seconds
        )

    # ------------------------------------------------------------------
    def _offer_requests(self, time: float) -> None:
        pending = self.backlog.pending(time)
        # Rotate the offer order so no game is systematically starved of
        # admission attempts when several compete for the same slot; the
        # strategy may then reorder (CoCG's length-aware §IV-C2 policy).
        self._offer_rotation = getattr(self, "_offer_rotation", 0) + 1
        k = self._offer_rotation % max(len(pending), 1)
        for request in self.strategy.order_requests(pending[k:] + pending[:k]):
            # The seed counter advances on every offer, rejected ones
            # included, so building only admitted sessions keeps seeds.
            self._session_seeds += 1
            seed = derive_seed(self._base_seed, "session", str(self._session_seeds))
            game = request.spec.name
            session = self.strategy.try_admit_lazy(
                f"{game}-r{request.request_id}",
                game,
                partial(request.make_session, seed),
                time=time,
            )
            if session is not None:
                self._sessions[session.session_id] = session
                self.backlog.started(request)

    def _aggregate(
        self,
        completed: Dict[str, int],
        total_usage: np.ndarray,
        colocated_seconds: int,
        over_cap_seconds: int,
    ) -> ExperimentResult:
        durations = {
            name: profile.spec.expected_duration()
            for name, profile in self.profiles.items()
        }
        fraction_of_best: Dict[str, float] = {}
        violation: Dict[str, float] = {}
        for name in self.profiles:
            fob_num = fob_den = 0.0
            vio_num = vio_den = 0
            for sid in self.qos.session_ids:
                if not sid.startswith(f"{name}-r"):
                    continue
                report = self.qos.report(sid)
                fob_num += report.fraction_of_best * report.seconds
                fob_den += report.seconds
                vio_num += report.violation_seconds
                vio_den += report.seconds
            fraction_of_best[name] = fob_num / fob_den if fob_den else float("nan")
            violation[name] = vio_num / vio_den if vio_den else float("nan")

        return ExperimentResult(
            strategy=self.strategy.name,
            horizon=self.horizon,
            completed_runs=completed,
            throughput=throughput_eq2(completed, durations),
            fraction_of_best=fraction_of_best,
            violation_fraction=violation,
            total_usage=total_usage,
            peak_total_usage=total_usage.max(axis=0),
            admissions=self.strategy.admissions,
            rejections=self.strategy.rejections,
            colocated_seconds=colocated_seconds,
            over_cap_seconds=over_cap_seconds,
            telemetry=self.telemetry,
            qos=self.qos,
        )
