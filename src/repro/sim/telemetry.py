"""The measurement plane: what the scheduler can actually see.

The real system observes per-process CPU via cgroups and GPU counters
via GPU-Z — noisy, ceiling-clipped *usage*, never the game's latent
demand.  :class:`TelemetryRecorder` enforces that separation: the
simulation records (demand, allocation) pairs, and consumers read
noise-perturbed usage ``min(demand, allocation) + ε``.  Ground-truth
demand stays available for evaluation but is marked as such.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.platform_.resources import (
    DIMENSIONS,
    N_DIMS,
    ResourceVector,
    clip_percent,
)
from repro.util.rng import Seed, as_rng
from repro.util.timeseries import ResourceSeries
from repro.util.validation import check_fraction, check_nonnegative

__all__ = [
    "FaultEvent",
    "GatewayEvent",
    "TelemetryPerturbation",
    "TelemetryRecorder",
]


@dataclass(frozen=True)
class FaultEvent:
    """One fault (or fault-handling) event, as seen by the data plane."""

    time: float
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class GatewayEvent:
    """One admission-gateway outcome (see :mod:`repro.serve.gateway`).

    ``outcome`` is the gateway's verdict (``admitted`` / ``queued`` /
    ``shed`` / ``dead-lettered`` / …); ``category`` the request's game
    category.  Gateway events are part of :meth:`TelemetryRecorder.digest`
    so shed/queue decisions are replay-checked exactly like usage.
    """

    time: float
    outcome: str
    category: str
    detail: str = ""


class TelemetryPerturbation:
    """A windowed measurement fault applied to matching samples.

    Installed by :class:`~repro.faults.injector.FaultInjector`; carries
    its own seeded generator so the perturbed samples are a pure
    function of ``(plan seed, fault index, record order)``.

    Parameters
    ----------
    kind:
        ``"dropout"`` (samples vanish with probability ``rate``) or
        ``"noise"`` (extra Gaussian noise ``std`` plus optional spikes).
    start / end:
        Active window ``[start, end)`` in simulation seconds.
    session / node:
        Targeting: ``session`` is a session-id prefix, ``node`` matches
        the ``…@<node>`` suffix of cluster session ids; ``"*"`` = all.
    """

    def __init__(
        self,
        *,
        kind: str,
        start: float,
        end: float = math.inf,
        rate: float = 1.0,
        std: float = 0.0,
        spike_prob: float = 0.0,
        spike_scale: float = 25.0,
        session: str = "*",
        node: str = "*",
        seed: Seed = 0,
    ):
        if kind not in ("dropout", "noise"):
            raise ValueError(f"unknown perturbation kind {kind!r}")
        check_nonnegative("start", start)
        check_fraction("rate", rate)
        check_nonnegative("std", std)
        check_fraction("spike_prob", spike_prob)
        self.kind = kind
        self.start = float(start)
        self.end = float(end)
        self.rate = float(rate)
        self.std = float(std)
        self.spike_prob = float(spike_prob)
        self.spike_scale = float(spike_scale)
        self.session = session
        self.node = node
        self._rng = as_rng(seed)
        self.hits = 0  # samples this perturbation actually touched

    def applies(self, time: float, session_id: str) -> bool:
        """Whether a sample at ``time`` for ``session_id`` is in scope."""
        if not (self.start <= time < self.end):
            return False
        if self.session != "*" and not session_id.startswith(self.session):
            return False
        if self.node != "*" and not session_id.endswith(f"@{self.node}"):
            return False
        return True

    def apply(self, observed: np.ndarray) -> Optional[np.ndarray]:
        """Perturb one in-scope sample; ``None`` = the sample is dropped."""
        if self.kind == "dropout":
            if self._rng.random() < self.rate:
                self.hits += 1
                return None
            return observed
        perturbed = observed
        if self.std > 0:
            perturbed = perturbed + self._rng.normal(
                scale=self.std, size=N_DIMS
            )
            self.hits += 1
        if self.spike_prob > 0 and self._rng.random() < self.spike_prob:
            dim = int(self._rng.integers(N_DIMS))
            spiked = perturbed.copy()
            spiked[dim] += self.spike_scale
            perturbed = spiked
            self.hits += 1
        return perturbed


class _SessionTrack:
    """One session's recorded seconds, one list per column.

    ``demand``/``allocation`` hold the recorded vectors' read-only
    arrays (ground truth); ``observed`` the stored observation rows, NaN
    where a dropout fault lost the sample.
    """

    __slots__ = ("times", "demand", "allocation", "observed", "valid")

    def __init__(self) -> None:
        self.times: List[int] = []
        self.demand: List[np.ndarray] = []
        self.allocation: List[np.ndarray] = []
        self.observed: List[np.ndarray] = []
        self.valid: List[bool] = []

    def usage_rows(self) -> List[np.ndarray]:
        """True consumption per second: demand clipped at the ceiling."""
        return [np.minimum(d, a) for d, a in zip(self.demand, self.allocation)]


class TelemetryRecorder:
    """Accumulates per-session usage and serves it back as time series.

    Parameters
    ----------
    noise_std:
        Standard deviation (percentage points) of the additive sensor
        noise applied to *observed* usage.  Ground-truth series are not
        perturbed.
    seed:
        Noise stream seed.
    """

    def __init__(self, *, noise_std: float = 0.8, seed: Seed = 0):
        check_nonnegative("noise_std", noise_std)
        self.noise_std = float(noise_std)
        self._rng = as_rng(seed)
        self._tracks: Dict[str, _SessionTrack] = {}
        self._perturbations: List[TelemetryPerturbation] = []
        self.fault_events: List[FaultEvent] = []
        self.gateway_events: List[GatewayEvent] = []
        self.dropped_samples = 0

    # ------------------------------------------------------------------
    def add_perturbation(self, perturbation: TelemetryPerturbation) -> None:
        """Install a measurement fault (see :class:`TelemetryPerturbation`)."""
        self._perturbations.append(perturbation)

    def record_fault_event(
        self, time: float, kind: str, detail: str = ""
    ) -> None:
        """Append one fault event to the run's fault log."""
        self.fault_events.append(FaultEvent(float(time), kind, detail))

    def record_gateway_event(
        self, time: float, outcome: str, category: str, detail: str = ""
    ) -> None:
        """Append one admission-gateway outcome to the run's log."""
        self.gateway_events.append(
            GatewayEvent(float(time), outcome, category, detail)
        )

    # ------------------------------------------------------------------
    def record(
        self,
        time: int,
        session_id: str,
        demand: ResourceVector,
        allocation: ResourceVector,
    ) -> ResourceVector:
        """Record one second; returns the *observed* (noisy) usage.

        Active perturbations apply in installation order; a dropped
        sample is stored as a NaN row (masked out of
        :meth:`observed_window`) and the clean observation is returned —
        the sensor failed, not the game.
        """
        track = self._tracks.get(session_id)
        if track is None:
            track = self._tracks[session_id] = _SessionTrack()
        d = demand.array
        a = allocation.array
        track.times.append(int(time))
        track.demand.append(d)
        track.allocation.append(a)
        usage = np.minimum(d, a)
        # ``clipped``: the row is already in [0, 100], so the stored copy
        # needs no second clip unless a perturbation touches it.
        if self.noise_std > 0:
            noisy = usage + self._rng.normal(scale=self.noise_std, size=N_DIMS)
            observed = np.array(clip_percent(noisy.tolist()))
            clipped = True
        else:
            observed = usage
            clipped = False
        stored: Optional[np.ndarray] = observed
        for pert in self._perturbations:
            if pert.applies(time, session_id):
                stored = pert.apply(stored)
                clipped = False
                if stored is None:
                    break
        valid = stored is not None
        if stored is None:
            self.dropped_samples += 1
            stored = np.full(N_DIMS, np.nan)
        elif not clipped:
            stored = stored.clip(0.0, 100.0)
        track.observed.append(stored)
        track.valid.append(valid)
        return ResourceVector.from_array(observed)

    # ------------------------------------------------------------------
    @property
    def session_ids(self) -> List[str]:
        """Sessions with at least one recorded sample."""
        return list(self._tracks)

    def n_samples(self, session_id: str) -> int:
        """Number of recorded seconds for one session."""
        track = self._tracks.get(session_id)
        return len(track.times) if track is not None else 0

    def _track(self, session_id: str) -> _SessionTrack:
        track = self._tracks.get(session_id)
        if track is None:
            raise KeyError(f"no telemetry for session {session_id!r}")
        return track

    def _series(self, track: _SessionTrack, rows: List[np.ndarray]) -> ResourceSeries:
        return ResourceSeries(
            np.stack(rows), DIMENSIONS, period=1.0, start=float(track.times[0])
        )

    def observed_series(self, session_id: str) -> ResourceSeries:
        """Noisy usage telemetry of one session (what the profiler sees).

        Samples lost to a dropout fault appear as NaN rows.
        """
        track = self._track(session_id)
        return self._series(track, track.observed)

    def observed_window(
        self, session_id: str, seconds: int
    ) -> Optional[np.ndarray]:
        """Mean observed usage over the last ``seconds`` samples.

        Returns ``None`` when fewer samples exist (a frame needs a full
        window) or when every sample in the window was dropped; samples
        lost to a dropout fault are masked out of the mean.
        """
        track = self._tracks.get(session_id)
        if track is None or len(track.observed) < seconds:
            return None
        window = track.observed[-seconds:]
        flags = track.valid[-seconds:]
        kept = [row for row, ok in zip(window, flags) if ok]
        if not kept:
            return None
        return np.mean(kept, axis=0)

    def valid_fraction(self, session_id: str) -> float:
        """Fraction of a session's samples that survived dropout."""
        flags = self._track(session_id).valid
        return float(sum(flags)) / len(flags)

    def true_demand_series(self, session_id: str) -> ResourceSeries:
        """Ground-truth demand (evaluation only — invisible in a real
        deployment)."""
        track = self._track(session_id)
        return self._series(track, track.demand)

    def true_usage_series(self, session_id: str) -> ResourceSeries:
        """Ground-truth clipped usage (demand ∧ allocation, no noise)."""
        track = self._track(session_id)
        return self._series(track, track.usage_rows())

    def allocation_series(self, session_id: str) -> ResourceSeries:
        """Granted ceilings over time (the Fig-10 'allocated' line)."""
        track = self._track(session_id)
        return self._series(track, track.allocation)

    # ------------------------------------------------------------------
    def total_usage_matrix(self, horizon: int) -> np.ndarray:
        """Server-wide true usage summed over sessions, shape ``(horizon, 4)``.

        Seconds with no running session contribute zero.
        """
        total = np.zeros((int(horizon), N_DIMS))
        for track in self._tracks.values():
            for t, usage in zip(track.times, track.usage_rows()):
                if 0 <= t < horizon:
                    total[t] += usage
        return total

    def peak_total_usage(self, horizon: int) -> np.ndarray:
        """Per-dimension max of the summed usage (Fig-9's headline)."""
        return self.total_usage_matrix(horizon).max(axis=0)

    # ------------------------------------------------------------------
    def digest(self) -> str:
        """SHA-256 over every observed sample, valid flag and fault event.

        Two runs with the same seeds and the same
        :class:`~repro.faults.plan.FaultPlan` must produce byte-identical
        digests — the replay property the chaos CI job asserts.  Dropped
        samples hash as a sentinel so dropout placement is covered too.
        """
        h = hashlib.sha256()
        for sid in sorted(self._tracks):
            track = self._tracks[sid]
            h.update(sid.encode())
            h.update(np.asarray(track.times, dtype=np.int64).tobytes())
            h.update(np.asarray(track.valid, dtype=np.bool_).tobytes())
            for row, ok in zip(track.observed, track.valid):
                h.update(
                    np.round(row, 6).tobytes() if ok else b"<dropped>"
                )
        for ev in self.fault_events:
            h.update(f"{ev.time:.6f}|{ev.kind}|{ev.detail}\n".encode())
        # Gateway outcomes extend the digest without perturbing it for
        # runs that have none (the pre-serve digests stay valid).
        for gev in self.gateway_events:
            h.update(
                f"gw|{gev.time:.6f}|{gev.outcome}|{gev.category}|"
                f"{gev.detail}\n".encode()
            )
        return h.hexdigest()
