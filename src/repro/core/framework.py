"""The assembled FreePhish framework (paper Figure 4).

``FreePhish.step`` executes one 10-minute cycle: poll both social streams,
snapshot and featurize every new URL, classify, report the positives to the
hosting service, and enrol them in longitudinal monitoring. :class:`~repro.sim.world.CampaignWorld` drives the cycle.

Every stage writes ``framework.*`` and ``classify.batch.*`` counters to
the :mod:`repro.obs` instrumentation layer. Telemetry is output-only: the
results a caller reads (``detections``, ``observations``) are held here,
so a framework wired to :data:`~repro.obs.NULL_INSTRUMENTATION` returns
the same results as a live one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from .classifier import FreePhishClassifier
from .monitor import AnalysisModule
from .preprocess import Preprocessor, ProcessedPage
from .reporting import ReportingModule
from .streaming import StreamingModule, StreamObservation


@dataclass
class DetectionRecord:
    """One classifier-positive URL, with its provenance."""

    observation: StreamObservation
    probability: float
    detected_at: int


class FreePhish:
    """Streaming → preprocessing → classification → reporting → analysis."""

    def __init__(
        self,
        streaming: StreamingModule,
        preprocessor: Preprocessor,
        classifier: FreePhishClassifier,
        reporting: ReportingModule,
        analysis: AnalysisModule,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.streaming = streaming
        self.preprocessor = preprocessor
        self.classifier = classifier
        self.reporting = reporting
        self.analysis = analysis
        self.detections: List[DetectionRecord] = []
        #: Stream observations polled across every cycle.
        self.observations = 0
        self.instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        metrics = self.instr.metrics
        self._c_polls = metrics.counter("framework.polls")
        self._c_observations = metrics.counter("framework.observations")
        self._c_fwb_observations = metrics.counter("framework.fwb_observations")
        self._c_unreachable = metrics.counter("framework.unreachable")
        self._c_detections = metrics.counter("framework.detections")
        self._c_reports_filed = metrics.counter("framework.reports_filed")
        self._c_batch_calls = metrics.counter("classify.batch.calls")
        self._c_batch_rows = metrics.counter("classify.batch.rows")
        self._h_batch_size = self.instr.histogram("classify.batch.size")

    def step(self, now: int) -> List[DetectionRecord]:
        """One polling cycle at time ``now``; returns fresh detections.

        The cycle is batched: one preprocessing pass collects every
        reachable page, the classifier scores them as a **single** feature
        matrix (one ``predict_proba`` call per tick), and the positives are
        then reported in arrival order. Batch scoring is elementwise per
        row, and reports only take effect at daily housekeeping, so
        detections and probabilities are identical to the sequential
        per-observation cycle.
        """
        instr = self.instr
        instr.set_time(now)
        fresh: List[DetectionRecord] = []
        observations = self.streaming.poll(now)
        self.observations += len(observations)
        self._c_polls.inc()
        self._c_observations.inc(len(observations))

        pages: List[ProcessedPage] = []
        kept: List[StreamObservation] = []
        for observation in observations:
            if observation.is_fwb:
                self._c_fwb_observations.inc()
            page = self.preprocessor.process(observation.url, now)
            if page is None:
                self._c_unreachable.inc()
                continue
            pages.append(page)
            kept.append(observation)

        predictions = self.classifier.classify_pages(pages)
        if pages:
            self._c_batch_calls.inc()
            self._c_batch_rows.inc(len(pages))
            self._h_batch_size.observe(len(pages))

        for observation, prediction in zip(kept, predictions):
            if prediction.label != 1:
                continue
            record = DetectionRecord(
                observation=observation,
                probability=prediction.probability,
                detected_at=now,
            )
            self.detections.append(record)
            fresh.append(record)
            self._c_detections.inc()
            instr.emit(
                "framework.detection",
                url=str(observation.url),
                platform=observation.platform,
                fwb=observation.fwb_name,
                probability=round(float(prediction.probability), 6),
            )
            self.reporting.report(observation, now)
            self._c_reports_filed.inc()
            self.analysis.track(observation)
        return fresh

    def detected_urls(self) -> List[str]:
        return [str(record.observation.url) for record in self.detections]
