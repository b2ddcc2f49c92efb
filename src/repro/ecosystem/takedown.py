"""Abuse desks: FWB takedown handling and registrar takedowns.

FreePhish reports every detected URL to its hosting service (§4.3); §5.3
measures how each FWB responds. The paper finds wildly varying behaviour —
Weebly/000webhost/Wix remove ~60% of reported sites within a couple of
hours, while WordPress/GoDaddy/Firebase never even acknowledge reports.

:class:`AbuseDesk` realises each service's
:class:`~repro.simnet.fwb.FWBPolicy`; :class:`RegistrarDesk` models
takedowns of self-hosted phishing domains (Table 3's "Hosting domain" row:
77.5% / median 3h47m for self-hosted attacks). Registrar action is
suspicion-gated like every other entity — an obvious kit on a fresh cheap
domain dies quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

import numpy as np

from ..config import SeedBank
from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from ..simnet.fwb import ReportResponsiveness
from ..simnet.hosting import FWBHostingProvider, SelfHostingProvider
from ..simnet.url import URL
from ..simnet.web import Web
from .intel import IntelService


class ReportOutcome(str, Enum):
    """How an abuse desk reacted to a report (paper §5.3 categories)."""

    NO_RESPONSE = "no_response"
    ACKNOWLEDGED = "acknowledged"            # ticket opened, no follow-up
    RESOLVED = "resolved"                    # follow-up + site removal


@dataclass
class TakedownTicket:
    """Tracking record for one reported URL."""

    url: str
    reported_at: int
    outcome: ReportOutcome
    removal_at: Optional[int] = None


class AbuseDesk:
    """The abuse-handling function of one FWB service."""

    def __init__(
        self,
        provider: FWBHostingProvider,
        web: Web,
        rng: np.random.Generator,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.provider = provider
        self.web = web
        self.rng = rng
        self.tickets: Dict[str, TakedownTicket] = {}
        self._pending: List[TakedownTicket] = []
        instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        # Aggregated across desks; per-FWB response splits live in
        # ReportingModule.response_rates_by_fwb().
        self._c_reports = instr.counter("takedown.reports")
        self._c_scheduled = instr.counter("takedown.removals_scheduled")
        self._c_removed = instr.counter("takedown.removals_applied")

    @property
    def policy(self):
        return self.provider.service.policy

    def receive_report(self, url: URL, now: int) -> TakedownTicket:
        """Process an abuse report; idempotent per URL."""
        key = str(url)
        existing = self.tickets.get(key)
        if existing is not None:
            return existing
        self._c_reports.inc()
        policy = self.policy
        removes = self.rng.random() < policy.removal_rate
        if removes:
            delay = self.rng.lognormal(
                np.log(max(policy.median_removal_minutes, 2)), 0.9
            )
            removal_at = now + max(2, int(round(delay)))
            outcome = (
                ReportOutcome.RESOLVED
                if policy.responsiveness == ReportResponsiveness.RESPONSIVE
                and self.rng.random() < policy.response_rate
                else ReportOutcome.ACKNOWLEDGED
                if self.rng.random() < policy.response_rate
                else ReportOutcome.NO_RESPONSE
            )
        else:
            removal_at = None
            outcome = (
                ReportOutcome.ACKNOWLEDGED
                if self.rng.random() < policy.response_rate
                else ReportOutcome.NO_RESPONSE
            )
        ticket = TakedownTicket(
            url=key, reported_at=now, outcome=outcome, removal_at=removal_at
        )
        self.tickets[key] = ticket
        if removal_at is not None:
            self._pending.append(ticket)
            self._c_scheduled.inc()
        return ticket

    def apply_takedowns(self, now: int) -> int:
        """Execute removals whose time has come; returns count removed."""
        fired = 0
        remaining: List[TakedownTicket] = []
        for ticket in self._pending:
            if ticket.removal_at is not None and ticket.removal_at <= now:
                from ..simnet.url import parse_url

                url = parse_url(ticket.url)
                if self.web.take_down(url, ticket.removal_at):
                    fired += 1
            else:
                remaining.append(ticket)
        self._pending = remaining
        self._c_removed.inc(fired)
        return fired


#: Registrar behaviour calibrated to Table 3's self-hosted "Hosting domain"
#: row: share of domains acted on (scaled by suspicion ** gamma), the
#: removal-delay median at full suspicion, how it stretches as suspicion
#: falls, and the lognormal spread of the delay.
REGISTRAR_REACH = 0.93
REGISTRAR_GAMMA = 1.0
REGISTRAR_BASE_MEDIAN_MINUTES = 160.0
REGISTRAR_STRETCH = 1.0
REGISTRAR_SIGMA = 1.1


class RegistrarDesk:
    """Registrar/host takedowns of self-hosted phishing domains.

    Unlike FWB desks, registrars act on their own monitoring plus abuse
    feeds, so action is suspicion-gated rather than report-gated:
    ``observe`` decides the domain's fate the moment the ecosystem first
    sees it.
    """

    def __init__(
        self,
        provider: SelfHostingProvider,
        web: Web,
        intel_service: IntelService,
        seed: int,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.provider = provider
        self.web = web
        self.intel_service = intel_service
        self._seeds = SeedBank(seed)
        self._decisions: Dict[str, Optional[int]] = {}
        self._pending: List[tuple] = []
        instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._c_observed = instr.counter("registrar.observed")
        self._c_scheduled = instr.counter("registrar.removals_scheduled")
        self._c_removed = instr.counter("registrar.removals_applied")

    def observe(self, url: URL, now: int) -> None:
        key = str(url)
        if key in self._decisions:
            return
        self._c_observed.inc()
        score = self.intel_service.suspicion(url, now)
        rng = self._seeds.fresh(key)
        probability = REGISTRAR_REACH * max(score, 0.0) ** REGISTRAR_GAMMA
        if rng.random() >= probability:
            self._decisions[key] = None
            return
        median = (
            REGISTRAR_BASE_MEDIAN_MINUTES
            * (1.0 / max(score, 0.05)) ** REGISTRAR_STRETCH
        )
        delay = rng.lognormal(np.log(median), REGISTRAR_SIGMA)
        removal_at = now + max(5, int(round(delay)))
        self._decisions[key] = removal_at
        self._pending.append((url, removal_at))
        self._c_scheduled.inc()

    def removal_time(self, url: URL) -> Optional[int]:
        return self._decisions.get(str(url))

    def apply_takedowns(self, now: int) -> int:
        fired = 0
        remaining = []
        for url, removal_at in self._pending:
            if removal_at <= now:
                if self.web.take_down(url, removal_at):
                    fired += 1
            else:
                remaining.append((url, removal_at))
        self._pending = remaining
        self._c_removed.inc(fired)
        return fired
