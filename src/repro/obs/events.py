"""Structured event log replacing ad-hoc ``print`` narration.

Components emit :class:`Event` records (a kind, a simulation timestamp,
and flat key/value fields) into an :class:`EventLog`. Consumers either
subscribe a sink — :class:`ConsoleSink` renders events as text the way
``CampaignWorld.run(verbose=True)`` used to ``print`` them — or read the
bounded in-memory buffer afterwards for export.

Events carry *simulation* time only, so the log of a seeded campaign is
deterministic and participates in byte-identical telemetry exports.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, TextIO

#: Field values are restricted to JSON-scalar types so every event is
#: exportable verbatim.
FieldValue = object

Sink = Callable[["Event"], None]

#: Events an :class:`EventLog` retains (ring buffer); ``n_emitted`` keeps
#: counting past it.
MAX_EVENTS = 50_000


class Event:
    """One structured event."""

    __slots__ = ("kind", "time", "fields")

    def __init__(self, kind: str, time: float, fields: Dict[str, FieldValue]) -> None:
        self.kind = kind
        self.time = time
        self.fields = fields

    def to_dict(self) -> Dict[str, FieldValue]:
        """JSON-ready dict with deterministic key order."""
        return {
            "kind": self.kind,
            "time": self.time,
            "fields": {key: self.fields[key] for key in sorted(self.fields)},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.kind!r}, t={self.time}, {self.fields!r})"


def render_event(event: Event) -> str:
    """One-line text rendering: ``[t=  1440m] campaign.day day=1 ...``."""
    parts = [f"[t={int(event.time):>7d}m] {event.kind}"]
    for key in sorted(event.fields):
        parts.append(f"{key}={event.fields[key]}")
    return " ".join(parts)


class ConsoleSink:
    """Sink that renders each event as one text line to a stream."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stdout

    def __call__(self, event: Event) -> None:
        self.stream.write(render_event(event) + "\n")


class EventLog:
    """Bounded buffer of events plus a fan-out to subscribed sinks."""

    def __init__(self) -> None:
        self.n_emitted = 0
        self._events: Deque[Event] = deque(maxlen=MAX_EVENTS)
        self._sinks: List[Sink] = []

    def subscribe(self, sink: Sink) -> Sink:
        """Attach a sink; returns it for later :meth:`unsubscribe`."""
        self._sinks.append(sink)
        return sink

    def unsubscribe(self, sink: Sink) -> None:
        self._sinks = [existing for existing in self._sinks if existing is not sink]

    def emit(self, kind: str, time: float, **fields: FieldValue) -> Event:
        event = Event(kind, time, fields)
        self._events.append(event)
        self.n_emitted += 1
        for sink in self._sinks:
            sink(event)
        return event

    def events(self, kind: Optional[str] = None) -> List[Event]:
        """Retained events, oldest first, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    def counts_by_kind(self) -> Dict[str, int]:
        """Retained-event counts per kind, sorted by kind."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    def __len__(self) -> int:
        return len(self._events)
