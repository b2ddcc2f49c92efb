"""VirusTotal-style aggregation of the engine fleet.

FreePhish scans every URL through VirusTotal every 10 minutes for up to a
week (§4.4), counting how many of the 76 engines flag it at each point.
A scan at time ``t`` reports the engines whose (cached) detection time has
passed — detections accumulate over the week, producing Figures 7 and 8.

Each URL's verdicts are fixed at first sight, so the aggregator keeps one
*schedule* per URL (the detecting engines and their detection times, from
the compiled :class:`~repro.ecosystem.fleet.EngineFleet`) and answers every
scan from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import _stable_hash
from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from ..simnet.url import URL
from .engines import DetectionEngine
from .fleet import MIN_DETECTION_LATENCY, EngineFleet, Schedule
from .intel import IntelService, signal_vector


@dataclass
class ScanReport:
    """Result of one VirusTotal scan of one URL."""

    url: URL
    scanned_at: int
    positives: int
    total_engines: int
    engines: List[str] = field(default_factory=list)

    @property
    def detection_ratio(self) -> float:
        return self.positives / self.total_engines if self.total_engines else 0.0


class VirusTotal:
    """Aggregator over the detection-engine fleet.

    A URL's schedule is computed lazily: first sight records the URL's
    intel signals, and the first scan late enough that an engine could have
    fired (``MIN_DETECTION_LATENCY`` after first sight) schedules every URL
    still waiting, in one batched fleet call.
    """

    def __init__(
        self,
        engines: Sequence[DetectionEngine],
        intel_service: IntelService,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.engines = list(engines)
        self.fleet = EngineFleet(self.engines)
        self.intel_service = intel_service
        #: URL -> first time VT ever saw it (engines date latencies from it).
        self._first_seen: Dict[str, int] = {}
        self._schedules: Dict[str, Schedule] = {}
        #: URL -> (signal vector, URL hash) of URLs seen but not scheduled.
        self._pending: Dict[str, Tuple[List[float], int]] = {}
        instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._c_scans = instr.counter("vt.scans")
        self._c_urls = instr.counter("vt.urls_registered")

    @property
    def n_engines(self) -> int:
        return len(self.engines)

    def _register(self, url: URL, key: str, now: int) -> None:
        self._first_seen[key] = now
        signals = signal_vector(self.intel_service.intel_for(url, now))
        if signals is None:
            self._schedules[key] = ()
        else:
            self._pending[key] = (signals, _stable_hash(key))
        self._c_urls.inc()

    def _schedule_pending(self) -> None:
        keys = list(self._pending)
        signals, url_hashes = zip(*self._pending.values())
        schedules = self.fleet.schedules(
            np.array(signals), url_hashes, [self._first_seen[key] for key in keys]
        )
        self._schedules.update(zip(keys, schedules))
        self._pending.clear()

    def scan(self, url: URL, now: int) -> ScanReport:
        """Scan ``url`` and report current engine positives."""
        self._c_scans.inc()
        key = str(url)
        if key not in self._first_seen:
            self._register(url, key, now)
        schedule = self._schedules.get(key)
        if schedule is None:
            if now < self._first_seen[key] + MIN_DETECTION_LATENCY:
                schedule = ()
            else:
                self._schedule_pending()
                schedule = self._schedules[key]
        names = self.fleet.names
        positives = [names[engine] for engine, detected_at in schedule
                     if detected_at <= now]
        return ScanReport(
            url=url,
            scanned_at=now,
            positives=len(positives),
            total_engines=self.n_engines,
            engines=positives,
        )
