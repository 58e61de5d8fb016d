"""Micro-batched Algorithm-1 dispatch.

Naive per-request admission evaluates Algorithm 1 from scratch for every
``request × node`` pair: each evaluation re-sums the node's current
co-consumption and re-rolls every running session's predictor
``horizon`` iterations.  Within one scheduling tick none of that depends
on the candidate, so a tick's pending requests form a natural
*micro-batch*: each node's admission snapshot
(``CoCGScheduler.admission_snapshot``, one
:class:`~repro.core.distributor.BatchEvaluation` per node and simulated
instant) answers every candidate from a single shared rollout pass.

Outcome equivalence is by construction, not by luck:

* candidates are walked in exactly the order naive dispatch uses —
  requests in queue order, nodes via
  :meth:`~repro.cluster.fleet.ClusterScheduler.candidate_order` (the
  round-robin cursor advances identically);
* the pre-screen evaluates the same ``(entry_min, steady)`` terms
  (``CoCGScheduler.admission_terms``) against the same running views as
  the node's own ``try_admit`` would, so it rejects exactly when the
  node would reject — the node is simply never asked, and no
  :class:`~repro.games.session.GameSession` is built for it;
* a node that passes the pre-screen still goes through the authoritative
  ``node.try_admit`` (placement can fail under the cap even when
  Algorithm 1 passes), which reads the same snapshot; an admission
  drops it, since the node's running set just changed.

Nodes whose strategy does not expose a CoCG scheduler (baselines) fall
back to plain ``try_admit`` — the batcher degrades to naive dispatch for
them instead of guessing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.naming import BATCHER_EVENTS

if TYPE_CHECKING:  # pragma: no cover - cluster imports nothing from here
    from repro.cluster.fleet import ClusterScheduler, FleetNode
    from repro.serve.gateway import QueuedRequest

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Per-tick shared Algorithm-1 evaluation across a fleet's nodes.

    One instance lives inside an
    :class:`~repro.serve.gateway.AdmissionGateway`; the gateway calls
    :meth:`begin_round` once per pump and :meth:`dispatch_one` per due
    request.  Counters expose how much work batching saved; they live in
    ``registry`` (the gateway's shared one, or a private registry when
    ``None``) as ``serve_batcher_events_total{event=...}``, with the
    historical attribute names kept as read-only views.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        events = registry.counter(
            BATCHER_EVENTS,
            "Micro-batcher activity by event kind.",
            ("event",),
        )
        self._c_rounds = events.labels(event="rounds")
        #: Pre-screen Algorithm-1 evaluations (shared-rollout path).
        self._c_evaluations = events.labels(event="evaluations")
        #: Candidates the pre-screen rejected — no session was built
        #: and the node's ``try_admit`` was never entered.
        self._c_prescreen_rejects = events.labels(event="prescreen_rejects")
        self._c_admissions = events.labels(event="admissions")
        #: Candidate probes that fell back to plain ``try_admit``
        #: (non-CoCG strategy or unknown game profile).
        self._c_fallback_probes = events.labels(event="fallback_probes")

    # ------------------------------------------------------------------
    # Counter views (kept for compatibility with pre-registry callers)
    # ------------------------------------------------------------------
    @property
    def rounds(self) -> int:
        """Batch rounds begun (registry-backed view)."""
        return int(self._c_rounds.value)

    @property
    def evaluations(self) -> int:
        """Pre-screen Algorithm-1 evaluations (registry-backed view)."""
        return int(self._c_evaluations.value)

    @property
    def prescreen_rejects(self) -> int:
        """Candidates rejected before ``try_admit`` (registry-backed)."""
        return int(self._c_prescreen_rejects.value)

    @property
    def admissions(self) -> int:
        """Batched dispatches that stuck (registry-backed view)."""
        return int(self._c_admissions.value)

    @property
    def fallback_probes(self) -> int:
        """Probes that fell back to plain ``try_admit`` (registry view)."""
        return int(self._c_fallback_probes.value)

    # ------------------------------------------------------------------
    def begin_round(self) -> None:
        """Count one batch round (a gateway pump)."""
        self._c_rounds.inc()

    @staticmethod
    def _probe(node: "FleetNode"):
        """The node's CoCG scheduler, if its strategy exposes one."""
        sched = getattr(node.strategy, "scheduler", None)
        if sched is None:
            return None
        if not (
            hasattr(sched, "admission_snapshot")
            and hasattr(sched, "admission_terms")
        ):
            return None
        return sched

    def dispatch_one(
        self,
        cluster: "ClusterScheduler",
        entry: "QueuedRequest",
        *,
        time: float,
        seed_for,
    ) -> Optional["FleetNode"]:
        """Place one request using the nodes' shared admission snapshots.

        Mirrors :meth:`ClusterScheduler.dispatch` (same candidate order,
        same ``dispatched``/``deferred`` accounting) with the Algorithm-1
        pre-screen in front of each node's ``try_admit``.
        """
        request = entry.request
        for node in cluster.candidate_order(request):
            sched = self._probe(node)
            profile = (
                node.profiles.get(request.spec.name)
                if sched is not None
                else None
            )
            if sched is not None and profile is not None:
                entry_min, steady = sched.admission_terms(profile)
                self._c_evaluations.inc(time=time)
                snapshot = sched.admission_snapshot(time)
                if not snapshot.evaluate(entry_min, steady).admitted:
                    self._c_prescreen_rejects.inc(time=time)
                    continue
            else:
                self._c_fallback_probes.inc(time=time)
            if node.try_admit(
                request,
                time=time,
                seed=seed_for(request, entry.incarnation),
                incarnation=entry.incarnation,
            ):
                self._c_admissions.inc(time=time)
                cluster.note_dispatch("dispatched", time=time)
                return node
        cluster.note_dispatch("deferred", time=time)
        return None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counters as a flat dict (for benchmark artifacts)."""
        return {
            "rounds": self.rounds,
            "evaluations": self.evaluations,
            "prescreen_rejects": self.prescreen_rejects,
            "admissions": self.admissions,
            "fallback_probes": self.fallback_probes,
        }
