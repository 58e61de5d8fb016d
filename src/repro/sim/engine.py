"""A compact discrete-event simulation engine.

Time is a float in seconds (the co-location experiments use integer
ticks).  The heap holds ``(time, priority, seq, event)`` tuples — the
unique ``seq`` settles every tie, so the heap compares plain numbers and
never an :class:`Event` — and callbacks may schedule further events.
The engine is deliberately minimal — deterministic ordering and
cancellation are the two features the schedulers rely on.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Tuple

__all__ = ["Event", "SimulationEngine", "run_partitioned"]


@dataclass
class Event:  # lint: disable=CG013 -- engine-internal handle, not telemetry
    """A scheduled callback.  Fires in order of time, then priority,
    then scheduling order (FIFO)."""

    time: float
    priority: int
    seq: int
    callback: Callable[["SimulationEngine"], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    _done: bool = field(default=False, compare=False, repr=False)
    _on_cancel: Optional[Callable[[], None]] = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Mark the event so the engine skips it (idempotent; a no-op
        once the event has fired)."""
        if self.cancelled or self._done:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()


class SimulationEngine:
    """Event loop with deterministic tie-breaking.

    Events at equal times fire in (priority, insertion) order, so a
    control tick scheduled with a lower priority number always observes
    the same state regardless of scheduling order in user code.
    """

    def __init__(self, *, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._processed = 0
        self._live = 0

    def _note_cancel(self) -> None:
        self._live -= 1

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events.

        O(1): a live counter maintained on schedule/cancel/fire, so
        per-tick health checks never rescan the heap.
        """
        return self._live

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        callback: Callable[["SimulationEngine"], None],
        *,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` (≥ now)."""
        if time < self._now - 1e-9:
            raise ValueError(f"cannot schedule at {time} < now ({self._now})")
        event = Event(
            float(time), int(priority), next(self._seq), callback,
            _on_cancel=self._note_cancel,
        )
        heapq.heappush(
            self._heap, (event.time, event.priority, event.seq, event)
        )
        self._live += 1
        return event

    def after(
        self,
        delay: float,
        callback: Callable[["SimulationEngine"], None],
        *,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.at(self._now + delay, callback, priority=priority)

    def every(
        self,
        interval: float,
        callback: Callable[["SimulationEngine"], None],
        *,
        priority: int = 0,
        start_delay: Optional[float] = None,
    ) -> Callable[[], None]:
        """Run ``callback`` every ``interval`` seconds until cancelled.

        Returns a cancel function.
        """
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        state = {"event": None, "stopped": False}

        def fire(engine: "SimulationEngine") -> None:
            if state["stopped"]:
                return
            callback(engine)
            if not state["stopped"]:
                state["event"] = engine.after(interval, fire, priority=priority)

        first_delay = interval if start_delay is None else start_delay
        state["event"] = self.after(first_delay, fire, priority=priority)

        def cancel() -> None:
            state["stopped"] = True
            if state["event"] is not None:
                state["event"].cancel()

        return cancel

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                continue
            event._done = True  # cancel() after this point is a no-op
            self._live -= 1
            self._now = event.time
            event.callback(self)
            self._processed += 1
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run events with ``time <= end_time``; advance the clock to it."""
        while self._heap:
            head = self._heap[0][3]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if head.time > end_time + 1e-9:
                break
            self.step()
        self._now = max(self._now, float(end_time))

    def run(self) -> None:
        """Run until the queue drains."""
        while self.step():
            pass


def run_partitioned(
    streams: Mapping[str, Callable[[], object]],
) -> "dict[str, object]":
    """Execute independent per-partition event streams, canonically.

    ``streams`` maps a partition name (a regional shard) to a thunk that
    runs that partition's entire simulation and returns its result.
    Partitions are executed in sorted-name order — today sequentially,
    but nothing a thunk does may depend on that: each partition owns its
    own :class:`SimulationEngine`, RNG namespace, and telemetry, so the
    result of the whole call is a pure function of the set of thunks,
    not of execution order.  ``tests/test_fleet.py::TestShardIsolation``
    holds this seam to that contract by running the regional shards in
    reverse order and each one alone in a fresh interpreter, and
    requiring every region's digest to come back unchanged.

    Returns the results keyed by partition name.  Raises ``ValueError``
    on an empty mapping or a non-identifier-unfriendly name containing
    ``:`` (reserved for shard-group family spelling).
    """
    names = sorted(streams)
    if not names:
        raise ValueError("run_partitioned needs at least one stream")
    for name in names:
        if not name or ":" in name:
            raise ValueError(
                f"partition name must be non-empty and ':'-free, "
                f"got {name!r}"
            )
    return {name: streams[name]() for name in names}

