"""In-memory span recorder for the benchmark's outside-in trace.

A span is ``(name, start, end, parent)``: the wall-clock interval of one
call into a layer and the index of the span that was open when the call
began (``-1`` for a root).  The simulator is single-threaded, so spans
nest and never overlap their siblings; a span's *self time* is its
duration minus the summed durations of its direct children, and the
self times of all spans add up to the summed duration of the roots.

The recorder only wraps callables handed to it (:meth:`SpanRecorder.span`,
:meth:`SpanRecorder.count`, :meth:`SpanRecorder.collect`); installing the
wrappers on the program's classes is :class:`Patches`' job, and undoing
them restores the exact original attributes.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

__all__ = ["SpanRecorder", "Patches"]


class SpanRecorder:
    """Records spans, call counts and constructed instances in memory.

    ``clock`` is any zero-argument callable returning seconds; tests pass
    a scripted clock so self times come out exact.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent]`` per span, in open order.
        self.spans: List[list] = []
        #: Calls of counted (unspanned) callables, by counter name.
        self.counts: Counter = Counter()
        #: Instances built while collecting, by kind.
        self.instances: Dict[str, list] = defaultdict(list)
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        """Start a span as a child of the innermost open one."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the innermost open span, which must be ``index``."""
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(
                f"span {self.spans[index][0]!r} closed while "
                f"{self.spans[top][0]!r} was innermost"
            )
        self.spans[index][2] = self.clock()

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records a span ``name``.

        The span closes even when ``fn`` raises.  ``functools.wraps``
        carries the original's attributes (docstring, ``__qualname__``,
        decorator markers) over to the wrapper.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(index)

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call bumps counter ``name``.

        For callables too frequent to span individually.
        """
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def collect(self, kind: str, init: Callable) -> Callable:
        """An ``__init__`` wrapper that keeps every built instance."""
        bucket = self.instances[kind]

        @functools.wraps(init)
        def collecting(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            bucket.append(obj)

        return collecting

    # ------------------------------------------------------------------
    def _check_closed(self) -> None:
        if self._stack:
            raise RuntimeError(
                f"{len(self._stack)} span(s) still open: "
                f"{[self.spans[i][0] for i in self._stack]}"
            )

    def self_times(self) -> Dict[str, float]:
        """Summed self time (seconds) per span name."""
        self._check_closed()
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start) - covered[index]
        return dict(out)

    def calls(self) -> Counter:
        """Number of spans recorded per name."""
        return Counter(span[0] for span in self.spans)

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in open order."""
        self._check_closed()
        return [end - start for n, start, end, _ in self.spans if n == name]

    def unattributed(self, wall: float) -> float:
        """The part of ``wall`` no span accounts for.

        Equals ``wall`` minus the sum of all self times (which is the
        summed duration of the root spans).
        """
        return wall - sum(self.self_times().values())


class Patches:
    """Replaces attributes of classes and modules, then restores them.

    ``replace(owner, attr, make)`` installs ``make(original)`` in place
    of ``owner.attr``; a ``staticmethod`` stays a ``staticmethod``.
    :meth:`restore` puts every original back, newest first.
    """

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(
        self, owner: object, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            new: object = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Optional[object]) -> None:
        self.restore()
