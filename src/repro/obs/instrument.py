"""The :class:`Instrumentation` facade threaded through the pipeline.

One object bundles the two observability channels — a
:class:`~repro.obs.metrics.MetricsRegistry` and an
:class:`~repro.obs.events.EventLog` — plus the current simulation time,
so instrumented components take a single optional parameter instead of
two. The facade is output-only: components write to it and never read a
result back.

Two implementations share the surface:

* :class:`Instrumentation` — the real thing: deterministic, with events
  stamped in simulation minutes;
* :class:`NullInstrumentation` — every operation is a no-op returning a
  shared singleton, so the uninstrumented hot path costs one attribute
  lookup and allocates nothing. Use the module-level
  :data:`NULL_INSTRUMENTATION` instead of constructing new ones.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from .events import Event, EventLog
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, Number

#: Identifier every telemetry document carries in its ``schema`` key.
TELEMETRY_SCHEMA_ID = "repro.obs/telemetry.v2"


class Instrumentation:
    """Live metrics + events for one instrumented run."""

    #: Event times are simulation minutes; exports record it.
    mode = "sim"

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.events = EventLog()
        #: Current simulation time in minutes (stamped on every event).
        self.now = 0.0

    def set_time(self, now: float) -> None:
        """Advance the simulation clock that events are stamped with."""
        self.now = now

    # -- metric conveniences --------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.metrics.histogram(name)

    def count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).inc(amount)

    def observe(self, name: str, value: Number) -> None:
        self.metrics.histogram(name).observe(value)

    # -- events ---------------------------------------------------------------

    def emit(self, kind: str, **fields) -> Optional[Event]:
        """Emit a structured event stamped with the simulation time."""
        return self.events.emit(kind, self.now, **fields)

    # -- export ---------------------------------------------------------------

    def telemetry(self, include_events: bool = True) -> dict:
        """Full snapshot as a JSON-ready dict.

        The snapshot is a pure function of the seed: two same-seed
        campaigns serialize byte-identically.
        """
        events: dict = {
            "emitted": self.events.n_emitted,
            "by_kind": self.events.counts_by_kind(),
        }
        if include_events:
            events["items"] = [event.to_dict() for event in self.events.events()]
        return {
            "schema": TELEMETRY_SCHEMA_ID,
            "mode": self.mode,
            "metrics": self.metrics.snapshot(),
            "events": events,
        }

    def telemetry_json(self, include_events: bool = True) -> str:
        """Canonical JSON serialization (sorted keys, 2-space indent)."""
        return json.dumps(
            self.telemetry(include_events=include_events),
            sort_keys=True, indent=2,
        ) + "\n"


class _NullCounter:
    __slots__ = ()
    name = ""
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = ""
    value = 0.0

    def set(self, value: Number) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = ""
    count = 0
    total = 0.0
    min = None
    max = None
    mean = None

    def observe(self, value: Number) -> None:
        pass

    def quantile(self, q: float) -> None:
        return None

    def quantiles(self, qs: Iterable[float]) -> List[None]:
        return [None for _ in qs]

    def snapshot(self) -> Dict[str, Optional[float]]:
        return {"count": 0, "sum": 0.0, "min": None, "max": None,
                "p50": None, "p90": None, "p99": None}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class _NullMetricsRegistry:
    __slots__ = ()

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, growth: float = 1.02,
                  min_value: float = 1e-9) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def counters(self) -> Dict[str, int]:
        return {}

    def gauges(self) -> Dict[str, float]:
        return {}

    def histograms(self) -> Dict[str, Histogram]:
        return {}

    def snapshot(self) -> Dict[str, dict]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def __len__(self) -> int:
        return 0


class _NullEventLog:
    __slots__ = ()
    n_emitted = 0

    def subscribe(self, sink):
        return sink

    def unsubscribe(self, sink) -> None:
        pass

    def emit(self, kind: str, time: float, **fields) -> None:
        return None

    def events(self, kind: Optional[str] = None) -> List[Event]:
        return []

    def counts_by_kind(self) -> Dict[str, int]:
        return {}

    def __len__(self) -> int:
        return 0


class NullInstrumentation(Instrumentation):
    """Allocation-free no-op implementation of the facade surface.

    Every accessor returns a shared singleton, so the uninstrumented
    pipeline path performs no per-call allocation. Prefer the module-level
    :data:`NULL_INSTRUMENTATION` over constructing instances.
    """

    mode = "null"
    now = 0.0

    def __init__(self) -> None:
        self.metrics = _NullMetricsRegistry()
        self.events = _NullEventLog()

    def set_time(self, now: float) -> None:
        pass

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def observe(self, name: str, value: Number) -> None:
        pass

    def emit(self, kind: str, **fields) -> None:
        return None


#: Shared no-op instance: the default for every instrumented component.
NULL_INSTRUMENTATION = NullInstrumentation()
