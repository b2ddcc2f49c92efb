"""Nested tracing spans over a pluggable clock.

The default clock is the **simulation clock** — integer minutes advanced
by :meth:`repro.obs.instrument.Instrumentation.set_time` — so span
records are a pure function of the seed and serialize byte-identically
across same-seed runs. Real-time measurement happens outside the
library, in perfbench (see ``docs/OBSERVABILITY.md`` for the policy).

Every finished span feeds its duration into a ``span.<name>`` histogram
of the attached :class:`~repro.obs.metrics.MetricsRegistry`, so stage
timing quantiles survive even after the bounded span ring buffer has
rotated old records out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from ..errors import ObservabilityError
from .metrics import MetricsRegistry

#: Finished span records a :class:`Tracer` retains (ring buffer).
MAX_SPANS = 10_000


class SimClock:
    """Mutable holder for the current simulation time (minutes)."""

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    name: str
    index: int
    parent: Optional[int]
    depth: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ActiveSpan:
    """Context-manager handle for one in-flight span."""

    __slots__ = ("_tracer", "name", "index", "parent", "depth", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self.name = name
        self.index = -1
        self.parent: Optional[int] = None
        self.depth = 0
        self.start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._begin(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._finish(self)


class Tracer:
    """Produces nested spans and aggregates their durations.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time. Defaults to a
        fresh :class:`SimClock` (deterministic simulation minutes).
    registry:
        Optional metrics registry; when given, every finished span
        observes its duration into the ``span.<name>`` histogram.

    At most :data:`MAX_SPANS` finished :class:`SpanRecord` objects are
    retained (a ring buffer); the aggregate histograms are unaffected by
    rotation.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.clock: Callable[[], float] = clock if clock is not None else SimClock()
        self.registry = registry
        self.n_started = 0
        self.n_finished = 0
        self._stack: List[_ActiveSpan] = []
        self._finished: Deque[SpanRecord] = deque(maxlen=MAX_SPANS)

    def span(self, name: str) -> _ActiveSpan:
        """Create a span handle; the span starts on ``__enter__``."""
        return _ActiveSpan(self, name)

    def _begin(self, handle: _ActiveSpan) -> None:
        handle.index = self.n_started
        handle.parent = self._stack[-1].index if self._stack else None
        handle.depth = len(self._stack)
        handle.start = self.clock()
        self.n_started += 1
        self._stack.append(handle)

    def _finish(self, handle: _ActiveSpan) -> None:
        if not self._stack or self._stack[-1] is not handle:
            raise ObservabilityError(
                f"span {handle.name!r} closed out of order; spans must "
                "nest strictly (use the context-manager form)"
            )
        self._stack.pop()
        end = self.clock()
        record = SpanRecord(
            name=handle.name,
            index=handle.index,
            parent=handle.parent,
            depth=handle.depth,
            start=handle.start,
            end=end,
        )
        self._finished.append(record)
        self.n_finished += 1
        if self.registry is not None:
            self.registry.histogram(f"span.{handle.name}").observe(
                record.duration
            )

    @property
    def active_depth(self) -> int:
        return len(self._stack)

    def spans(self, name: Optional[str] = None) -> List[SpanRecord]:
        """Retained finished spans, oldest first, optionally by name."""
        if name is None:
            return list(self._finished)
        return [record for record in self._finished if record.name == name]
