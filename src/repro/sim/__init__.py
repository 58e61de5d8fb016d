"""Discrete-time simulation core.

* :mod:`~repro.sim.engine` — a small discrete-event scheduler (integer
  second resolution) used by the co-location experiment driver for
  arrivals, control ticks, and timers.
* :mod:`~repro.sim.telemetry` — the measurement plane: per-session
  demand/usage/allocation recording with optional sensor noise, frame
  aggregation, and utilisation totals (what GPU-Z + cgroups gave the
  paper's authors).
"""

from repro.sim.engine import Event, SimulationEngine, run_partitioned
from repro.sim.telemetry import TelemetryRecorder

__all__ = ["SimulationEngine", "Event", "run_partitioned",
           "TelemetryRecorder"]
