"""Deterministic observability: metrics and structured events.

The paper's model-selection argument (§4.2) is about *runtime* — a median
2.8 s classification keeps FreePhish real-time — so the reproduction
needs runtime visibility that does not break determinism. This package
provides it:

* :class:`MetricsRegistry` — counters, gauges, and streaming histograms
  (p50/p90/p99 without storing samples);
* :class:`EventLog` — structured events replacing ad-hoc prints
  (reprolint RP203 now forbids ``print`` in library code);
* :class:`Instrumentation` — the facade threaded through
  :class:`~repro.sim.world.CampaignWorld`, with
  :data:`NULL_INSTRUMENTATION` as the allocation-free opt-out.

The channel is output-only: nothing the simulation returns is read back
from it, so a run wired to :data:`NULL_INSTRUMENTATION` returns the same
results as a live one. See ``docs/OBSERVABILITY.md`` for the metric and
event catalogue and the wall-clock policy.
"""

from .events import ConsoleSink, Event, EventLog, render_event
from .export import load_telemetry, render_telemetry, write_telemetry_json
from .instrument import (
    NULL_INSTRUMENTATION,
    TELEMETRY_SCHEMA_ID,
    Instrumentation,
    NullInstrumentation,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "ConsoleSink",
    "Event",
    "EventLog",
    "render_event",
    "TELEMETRY_SCHEMA_ID",
    "load_telemetry",
    "render_telemetry",
    "write_telemetry_json",
    "NULL_INSTRUMENTATION",
    "Instrumentation",
    "NullInstrumentation",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
