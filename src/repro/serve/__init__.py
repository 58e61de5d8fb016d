"""The serving subsystem: the front door between players and the fleet.

``repro.serve`` models what the paper leaves implicit — how "heavy
traffic from millions of users" reaches the distributor at all:

* :mod:`~repro.serve.gateway` — bounded per-category queues, token-bucket
  rate limiting, explicit shed/dead-letter outcomes in the telemetry
  digest;
* :mod:`~repro.serve.batching` — one shared Algorithm-1 pass per node
  per scheduling tick instead of per request×node;
* :mod:`~repro.serve.slo` — per-category time-in-queue percentiles;
* :mod:`~repro.serve.loadgen` — deterministic open/closed-loop request
  generation at ≥100k-request scale.

Everything runs on simulation time and seeded randomness: same seed ⇒
same queue contents, same shed set, same digest.  See ``docs/SERVE.md``.
"""

from repro.serve.batching import MicroBatcher
from repro.serve.gateway import (
    AdmissionGateway,
    AdmissionOutcome,
    GatewayConfig,
    QueuedRequest,
    TokenBucket,
)
from repro.serve.loadgen import ClosedLoopLoadGen, OpenLoopLoadGen
from repro.serve.slo import CategorySlo, SloTracker, percentile_nearest_rank

__all__ = [
    "AdmissionGateway",
    "AdmissionOutcome",
    "GatewayConfig",
    "QueuedRequest",
    "TokenBucket",
    "MicroBatcher",
    "SloTracker",
    "CategorySlo",
    "percentile_nearest_rank",
    "OpenLoopLoadGen",
    "ClosedLoopLoadGen",
]
