"""Metric primitives: counters, gauges, and streaming histograms.

A :class:`MetricsRegistry` is the single mutable store every instrumented
component writes into. All three metric kinds are deliberately minimal:

* :class:`Counter` — a monotonically increasing integer;
* :class:`Gauge` — a last-write-wins float;
* :class:`Histogram` — a *streaming* quantile sketch over non-negative
  magnitudes (durations, sizes). Samples land in log-spaced buckets, so
  p50/p90/p99 are answerable at any time without storing samples, with a
  relative error bounded by the bucket growth factor (~1% at the default
  ``growth=1.02``).

Everything here is a pure function of the observations fed in: snapshots
iterate names in sorted order and contain no wall-clock timestamps, so a
registry filled from a seeded simulation serializes byte-identically
across runs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Union

from ..errors import ObservabilityError

Number = Union[int, float]


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: Number) -> None:
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Streaming log-bucketed histogram with bounded-error quantiles.

    Values are assigned to buckets whose bounds grow geometrically by
    ``growth``; bucket ``i`` covers ``(min_value * growth**(i-1),
    min_value * growth**i]``. A quantile query walks the sparse bucket
    table and returns the geometric midpoint of the bucket holding the
    requested rank, clamped to the exact observed ``[min, max]`` — so a
    histogram fed a constant reports that constant exactly, and any
    quantile is within a factor ``sqrt(growth)`` of the true order
    statistic. Memory is O(occupied buckets), never O(samples).

    Values at or below ``min_value`` (including exact zeros, common for
    latencies served inside one simulated minute) share a dedicated zero
    bucket.
    """

    __slots__ = (
        "name", "growth", "min_value", "count", "total",
        "_log_growth", "_min", "_max", "_zero_count", "_buckets",
    )

    def __init__(self, name: str, growth: float = 1.02,
                 min_value: float = 1e-9) -> None:
        if growth <= 1.0:
            raise ObservabilityError("histogram growth factor must exceed 1")
        if min_value <= 0.0:
            raise ObservabilityError("histogram min_value must be positive")
        self.name = name
        self.growth = growth
        self.min_value = min_value
        self._log_growth = math.log(growth)
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._zero_count = 0
        self._buckets: Dict[int, int] = {}

    def observe(self, value: Number) -> None:
        value = float(value)
        if value < 0.0:
            raise ObservabilityError(
                f"histogram {self.name!r} observes non-negative magnitudes, "
                f"got {value}"
            )
        self.count += 1
        self.total += value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        if value <= self.min_value:
            self._zero_count += 1
            return
        index = math.ceil(math.log(value / self.min_value) / self._log_growth)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def _bucket_estimate(self, index: int) -> float:
        return self.min_value * self.growth ** (index - 0.5)

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``0 <= q <= 1``); None when empty."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must lie in [0, 1], got {q}")
        if self.count == 0 or self._min is None or self._max is None:
            return None
        # Nearest-rank position over the sorted sample, 0-indexed.
        position = q * (self.count - 1)
        cumulative = self._zero_count
        if cumulative - 1 >= position:
            # Rank falls among the sub-``min_value`` samples; the true
            # order statistic is within ``min_value`` of the observed min.
            return self._min
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative - 1 >= position:
                estimate = self._bucket_estimate(index)
                return min(max(estimate, self._min), self._max)
        return self._max

    def quantiles(self, qs: Iterable[float]) -> List[Optional[float]]:
        return [self.quantile(q) for q in qs]

    def snapshot(self) -> Dict[str, Optional[float]]:
        """Summary dict used by exporters (deterministic key order)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self._min,
            "max": self._max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Name-keyed store of all metrics produced by one instrumented run.

    Metric names are flat dotted strings (``"framework.detections"``,
    ``"classify.batch.size"``). Accessors are get-or-create, and a
    name registered as one kind can never be re-registered as another.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_kind(self, name: str, kind: str) -> None:
        for existing_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if existing_kind != kind and name in table:
                raise ObservabilityError(
                    f"metric {name!r} already registered as a "
                    f"{existing_kind}, cannot reuse it as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_kind(name, "counter")
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_kind(name, "gauge")
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, growth: float = 1.02,
                  min_value: float = 1e-9) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_kind(name, "histogram")
            metric = self._histograms[name] = Histogram(
                name, growth=growth, min_value=min_value
            )
        return metric

    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> Dict[str, float]:
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def histograms(self) -> Dict[str, Histogram]:
        return dict(sorted(self._histograms.items()))

    def snapshot(self) -> Dict[str, dict]:
        """Deterministic full snapshot (sorted names, no timestamps)."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
