"""Host-speed probe: times measured at a fixed reference host speed.

The benchmark shares a host whose speed drifts by half within seconds:
the same fleet set-up took 0.29 s and 0.45 s a minute apart on a 2-vCPU
KVM guest, and two sets of ten runs once differed by a third in their
median set-up time.  CPU time drifts with it (the guest is slowed, not
descheduled), so :class:`HostClock` instead interleaves a short fixed
workload, :func:`probe`, with every timed phase: at the phase's ends and
every ``period`` seconds inside it.  Each stretch of wall time between
two probes is scaled by ``REFERENCE_S`` over the mean of those probes,
and probe time itself is left out.

The probe does the kind of work the simulator does (attribute access on
small objects, dict updates, float arithmetic, small numpy arrays
converted back to floats) and runs no ``repro`` code, so a change to the
program never changes the probe.
"""

from __future__ import annotations

import functools
import gc
import time
from typing import Callable, List, Tuple

import numpy as np

__all__ = ["REFERENCE_S", "HostClock", "probe", "scale", "ticking"]

#: The probe's median wall time on the baseline host (a 2-vCPU KVM guest
#: on an Intel Xeon, CPython 3.11, numpy 2).  Scaled times are seconds
#: at that host's median speed.
REFERENCE_S = 0.008


class _Row:
    __slots__ = ("cpu", "gpu", "mem", "step")

    def __init__(self, cpu: float, gpu: float, mem: float, step: int):
        self.cpu = cpu
        self.gpu = gpu
        self.mem = mem
        self.step = step


def _work(steps: int) -> float:
    vector = np.array([0.1, 0.2, 0.3, 0.4])
    table: dict = {}
    rows: List[_Row] = []
    total = 0.0
    for step in range(steps):
        vector = np.clip(vector * (1.0 + (step % 5) * 1e-3), 0.0, 1.0)
        row = _Row(float(vector[0]), float(vector[1]), float(vector[2]), step)
        rows.append(row)
        table[step % 61] = row
        total += row.cpu * row.gpu + row.mem + len(table)
        if len(rows) > 256:
            rows.clear()
        total += len(str(step))
    return total


def probe(steps: int = 1600) -> float:
    """Run the reference workload once; return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work(steps)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` at reference speed, given the probes around it."""
    return wall * REFERENCE_S * 2.0 / (before + after)


class HostClock:
    """Times phases in raw and reference-speed seconds, probing as it goes.

    ``start()`` begins a phase and ``stop()`` ends it, returning its raw
    and scaled seconds.  ``tick()`` is cheap; called often from inside a
    phase, it probes once ``period`` seconds have passed since the last
    probe.  Time spent outside phases and inside probes is not counted.
    """

    def __init__(self, period: float = 0.25):
        self.period = period
        self.raw_total = 0.0
        self.scaled_total = 0.0
        self._raw = self._scaled = 0.0
        self._probe = probe()
        self._since = time.perf_counter()

    def _sample(self, now: float) -> None:
        wall = now - self._since
        after = probe()
        self._raw += wall
        self._scaled += scale(wall, self._probe, after)
        self._probe = after
        self._since = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._since >= self.period:
            self._sample(now)

    def start(self) -> None:
        if time.perf_counter() - self._since >= self.period:
            self._probe = probe()
        self._raw = self._scaled = 0.0
        self._since = time.perf_counter()

    def stop(self) -> Tuple[float, float]:
        self._sample(time.perf_counter())
        self.raw_total += self._raw
        self.scaled_total += self._scaled
        return self._raw, self._scaled


def ticking(fn: Callable, tick: Callable[[], None]) -> Callable:
    """``fn`` with ``tick()`` called before each call."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tick()
        return fn(*args, **kwargs)

    return wrapper
