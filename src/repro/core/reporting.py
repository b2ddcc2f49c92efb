"""Reporting module (paper §4.3).

URLs the classifier flags as phishing are reported immediately to the
hosting FWB service's abuse desk. The paper's reports carry an evidence
bundle (full URL, screenshot, spoofed organization); the simulated abuse
desk acts on the URL alone, so that is what a report files. The
record names the social platform and post the URL was found on, but a
platform takes no direct action on a report: the post rides the
platform's own moderation pipeline
(:meth:`~repro.social.platform.SocialPlatform.scan`). Blocklists are
deliberately **not** notified: community lists ingest reports unverified,
which would contaminate the longitudinal measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ecosystem.takedown import AbuseDesk, ReportOutcome, TakedownTicket
from ..errors import ReportingError
from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from .streaming import StreamObservation


@dataclass
class AbuseReport:
    """One filed report and what became of it."""

    url: str
    fwb_name: Optional[str]
    platform: str
    post_id: str
    reported_at: int
    fwb_outcome: Optional[ReportOutcome] = None


class ReportingModule:
    """Files reports with FWB abuse desks."""

    def __init__(
        self,
        abuse_desks: Dict[str, AbuseDesk],
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.abuse_desks = dict(abuse_desks)
        self.reports: List[AbuseReport] = []
        instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._c_filed = instr.counter("reporting.filed")
        self._c_fwb = instr.counter("reporting.fwb_reports")

    def report(self, observation: StreamObservation, now: int) -> AbuseReport:
        """Report one detected phishing URL everywhere it should go."""
        report = AbuseReport(
            url=str(observation.url),
            fwb_name=observation.fwb_name,
            platform=observation.platform,
            post_id=observation.post.post_id,
            reported_at=now,
        )
        if observation.fwb_name is not None:
            desk = self.abuse_desks.get(observation.fwb_name)
            if desk is None:
                raise ReportingError(
                    f"no abuse desk registered for FWB {observation.fwb_name!r}"
                )
            ticket: TakedownTicket = desk.receive_report(observation.url, now)
            report.fwb_outcome = ticket.outcome
            self._c_fwb.inc()
        self.reports.append(report)
        self._c_filed.inc()
        return report

    # -- §5.3 "Response to reporting" aggregation ------------------------------

    def response_rates_by_fwb(self) -> Dict[str, Dict[str, float]]:
        """Per-FWB shares of no-response / acknowledged / resolved reports."""
        counts: Dict[str, Dict[str, int]] = {}
        for report in self.reports:
            if report.fwb_name is None or report.fwb_outcome is None:
                continue
            bucket = counts.setdefault(
                report.fwb_name,
                {outcome.value: 0 for outcome in ReportOutcome},
            )
            bucket[report.fwb_outcome.value] += 1
        rates: Dict[str, Dict[str, float]] = {}
        for fwb, bucket in counts.items():
            total = sum(bucket.values())
            rates[fwb] = {key: value / total for key, value in bucket.items()}
        return rates
