"""Profiles of the 17 Free Website Building services the paper studies.

Each :class:`FWBService` captures the properties that matter to the paper's
analysis:

* the hosting domain and whether it carries a **premium .com TLD** (14 of the
  17 do — §3 "Premium TLDs");
* the shared wildcard **OV/EV certificate** every customer site inherits
  (§3 "Immediate SSL Certification");
* the **domain age** — FWB domains are many years old, so WHOIS-age
  heuristics read FWB phishing pages as ancient (§3 "Longer Domain Age");
* whether free sites carry a **service banner** that phishers obfuscate
  (§4.2 "Obfuscating FWB Footer");
* whether the builder allows **custom HTML / credential forms**, which
  determines the mix of direct credential-phishing vs. the evasive
  variants of §5.5 (two-step link-outs, i-frames, drive-by downloads);
* the **abuse-handling policy** (:class:`FWBPolicy`) — how often and how
  fast the service removes reported phishing sites, and how it responds to
  reports. Policy parameters are calibrated from Table 4 / §5.3 of the
  paper and drive the *takedown behaviour model*, not the reported numbers
  directly: measured coverage in our benchmarks emerges from simulation.
* the **attacker popularity weight**: the per-FWB URL counts of Table 4
  (they sum to exactly the paper's 31,405).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from .tls import ValidationLevel
from .url import URL

MINUTES_PER_YEAR = 365 * 24 * 60


class ReportResponsiveness:
    """How an FWB abuse desk reacts to external phishing reports (§5.3)."""

    #: Never acknowledges reports (WordPress, GoDaddySites, Firebase, ...).
    SILENT = "silent"
    #: Opens a ticket for some reports but rarely follows through.
    ACKNOWLEDGES = "acknowledges"
    #: Responds, follows up, and removes site + account (Weebly, Wix, ...).
    RESPONSIVE = "responsive"


@dataclass(frozen=True)
class FWBPolicy:
    """Abuse-handling behaviour model for one FWB service.

    ``removal_rate`` is the long-run probability a *reported* phishing site
    is ever removed; ``median_removal_minutes`` sets the scale of the
    removal-delay distribution (log-normal around the median, as takedown
    delays are heavy-tailed). ``response_rate`` is the fraction of reports
    that receive any acknowledgement.
    """

    removal_rate: float
    median_removal_minutes: int
    responsiveness: str
    response_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.removal_rate <= 1.0:
            raise ConfigError("removal_rate must lie in [0, 1]")
        if self.median_removal_minutes < 0:
            raise ConfigError("median_removal_minutes cannot be negative")
        if not 0.0 <= self.response_rate <= 1.0:
            raise ConfigError("response_rate must lie in [0, 1]")


@dataclass(frozen=True)
class FWBService:
    """Static profile of one Free Website Building service."""

    name: str
    domain: str
    organization: str
    founded_years_before_epoch: float
    cert_level: ValidationLevel
    has_banner: bool
    allows_custom_html: bool
    allows_credential_forms: bool
    #: Relative frequency with which attackers pick this FWB (Table 4 counts).
    attacker_weight: int
    policy: FWBPolicy
    #: Probability that a phishing site on this FWB is one of the §5.5
    #: evasive variants rather than a direct credential page.
    evasive_share: float = 0.0
    #: Mix over evasive variants (two_step, iframe, driveby); must sum to 1
    #: when ``evasive_share > 0``.
    evasive_mix: Tuple[float, float, float] = (0.34, 0.33, 0.33)
    #: How heavily blocklists scrutinise this service's subdomains, relative
    #: to 1.0 =average. Heavily-abused services (Weebly, 000webhost, Wix)
    #: attract dedicated detection rules (§5.1).
    scrutiny: float = 1.0

    def __post_init__(self) -> None:
        if self.attacker_weight < 0:
            raise ConfigError("attacker_weight cannot be negative")
        if not 0.0 <= self.evasive_share <= 1.0:
            raise ConfigError("evasive_share must lie in [0, 1]")
        if self.evasive_share > 0:
            total = sum(self.evasive_mix)
            if abs(total - 1.0) > 1e-9:
                raise ConfigError("evasive_mix must sum to 1")
        if self.scrutiny <= 0:
            raise ConfigError("scrutiny must be positive")

    @property
    def tld(self) -> str:
        return self.domain.rsplit(".", 1)[-1]

    @property
    def offers_com_tld(self) -> bool:
        return self.tld == "com"

    @property
    def registered_at(self) -> int:
        """Registration time in minutes relative to the simulation epoch."""
        return -int(self.founded_years_before_epoch * MINUTES_PER_YEAR)

    def site_host(self, site_name: str) -> str:
        """The fully-qualified host an FWB customer site receives."""
        return f"{site_name}.{self.domain}"

    def owns_url(self, url: URL) -> bool:
        """Is ``url`` hosted on this FWB (i.e. a customer subdomain)?"""
        return url.registered_domain == self.domain and url.has_subdomain


def _policy(rate: float, median_hhmm: str, responsiveness: str, response: float) -> FWBPolicy:
    hours, minutes = median_hhmm.split(":")
    return FWBPolicy(
        removal_rate=rate,
        median_removal_minutes=int(hours) * 60 + int(minutes),
        responsiveness=responsiveness,
        response_rate=response,
    )


def default_fwb_services() -> List[FWBService]:
    """The paper's 17 FWB services with Table-4-calibrated behaviour models.

    The epoch is November 2022 (start of the six-month measurement), so
    ``founded_years_before_epoch`` approximates each platform's real age at
    that point. Attacker weights are the exact per-FWB URL counts of
    Table 4 (sum = 31,405).
    """
    services = [
        FWBService(
            name="weebly", domain="weebly.com", organization="Weebly, Inc.",
            founded_years_before_epoch=16.5, cert_level=ValidationLevel.EV,
            has_banner=True, allows_custom_html=True, allows_credential_forms=True,
            attacker_weight=7031,
            policy=_policy(0.5856, "01:39", ReportResponsiveness.RESPONSIVE, 0.716),
            evasive_share=0.02, scrutiny=1.9,
        ),
        FWBService(
            name="000webhost", domain="000webhostapp.com", organization="Hostinger",
            founded_years_before_epoch=15.0, cert_level=ValidationLevel.OV,
            has_banner=True, allows_custom_html=True, allows_credential_forms=True,
            attacker_weight=5934,
            policy=_policy(0.5904, "00:45", ReportResponsiveness.RESPONSIVE, 0.827),
            evasive_share=0.02, scrutiny=1.9,
        ),
        FWBService(
            name="blogspot", domain="blogspot.com", organization="Google LLC",
            founded_years_before_epoch=23.0, cert_level=ValidationLevel.OV,
            has_banner=True, allows_custom_html=True, allows_credential_forms=True,
            attacker_weight=3156,
            policy=_policy(0.0852, "06:51", ReportResponsiveness.ACKNOWLEDGES, 0.283),
            evasive_share=0.37, evasive_mix=(0.38, 0.31, 0.31), scrutiny=0.55,
        ),
        FWBService(
            name="wix", domain="wixsite.com", organization="Wix.com Ltd.",
            founded_years_before_epoch=16.0, cert_level=ValidationLevel.EV,
            has_banner=True, allows_custom_html=True, allows_credential_forms=True,
            attacker_weight=2338,
            policy=_policy(0.6455, "02:16", ReportResponsiveness.RESPONSIVE, 0.653),
            evasive_share=0.02, scrutiny=1.5,
        ),
        FWBService(
            name="google_sites", domain="sites-google.com", organization="Google LLC",
            founded_years_before_epoch=14.5, cert_level=ValidationLevel.OV,
            has_banner=True, allows_custom_html=False, allows_credential_forms=False,
            attacker_weight=2247,
            policy=_policy(0.0776, "12:22", ReportResponsiveness.ACKNOWLEDGES, 0.152),
            evasive_share=0.72, evasive_mix=(0.34, 0.27, 0.39), scrutiny=0.35,
        ),
        FWBService(
            name="github_io", domain="github.io", organization="GitHub, Inc.",
            founded_years_before_epoch=14.7, cert_level=ValidationLevel.OV,
            has_banner=False, allows_custom_html=True, allows_credential_forms=True,
            attacker_weight=942,
            policy=_policy(0.0916, "20:34", ReportResponsiveness.ACKNOWLEDGES, 0.374),
            evasive_share=0.08, scrutiny=0.75,
        ),
        FWBService(
            name="firebase", domain="firebaseapp.com", organization="Google LLC",
            founded_years_before_epoch=11.0, cert_level=ValidationLevel.OV,
            has_banner=False, allows_custom_html=True, allows_credential_forms=True,
            attacker_weight=1416,
            policy=_policy(0.0722, "14:15", ReportResponsiveness.SILENT, 0.0),
            evasive_share=0.08, scrutiny=0.8,
        ),
        FWBService(
            name="squareup", domain="square.site", organization="Block, Inc.",
            founded_years_before_epoch=13.5, cert_level=ValidationLevel.EV,
            has_banner=True, allows_custom_html=False, allows_credential_forms=True,
            attacker_weight=1736,
            policy=_policy(0.1875, "10:11", ReportResponsiveness.ACKNOWLEDGES, 0.237),
            evasive_share=0.10, scrutiny=0.9,
        ),
        FWBService(
            name="zoho_forms", domain="zohopublic.com", organization="Zoho Corporation",
            founded_years_before_epoch=17.0, cert_level=ValidationLevel.OV,
            has_banner=True, allows_custom_html=False, allows_credential_forms=True,
            attacker_weight=498,
            policy=_policy(0.2457, "07:11", ReportResponsiveness.RESPONSIVE, 0.704),
            evasive_share=0.05, scrutiny=0.7,
        ),
        FWBService(
            name="wordpress", domain="wordpress.com", organization="Automattic Inc.",
            founded_years_before_epoch=17.5, cert_level=ValidationLevel.OV,
            has_banner=True, allows_custom_html=True, allows_credential_forms=True,
            attacker_weight=786,
            policy=_policy(0.0509, "20:50", ReportResponsiveness.SILENT, 0.0),
            evasive_share=0.06, scrutiny=0.8,
        ),
        FWBService(
            name="google_forms", domain="forms-google.com", organization="Google LLC",
            founded_years_before_epoch=14.5, cert_level=ValidationLevel.OV,
            has_banner=True, allows_custom_html=False, allows_credential_forms=True,
            attacker_weight=1397,
            policy=_policy(0.1196, "06:17", ReportResponsiveness.ACKNOWLEDGES, 0.20),
            evasive_share=0.45, evasive_mix=(0.55, 0.15, 0.30), scrutiny=0.45,
        ),
        FWBService(
            name="sharepoint", domain="sharepoint.com", organization="Microsoft Corporation",
            founded_years_before_epoch=21.5, cert_level=ValidationLevel.EV,
            has_banner=False, allows_custom_html=False, allows_credential_forms=False,
            attacker_weight=2181,
            policy=_policy(0.0764, "05:07", ReportResponsiveness.SILENT, 0.0),
            evasive_share=0.78, evasive_mix=(0.20, 0.10, 0.70), scrutiny=0.4,
        ),
        FWBService(
            name="yolasite", domain="yolasite.com", organization="Yola, Inc.",
            founded_years_before_epoch=14.0, cert_level=ValidationLevel.OV,
            has_banner=True, allows_custom_html=True, allows_credential_forms=True,
            attacker_weight=601,
            policy=_policy(0.0752, "07:05", ReportResponsiveness.SILENT, 0.0),
            evasive_share=0.03, scrutiny=0.55,
        ),
        FWBService(
            name="godaddysites", domain="godaddysites.com", organization="GoDaddy Inc.",
            founded_years_before_epoch=6.0, cert_level=ValidationLevel.OV,
            has_banner=True, allows_custom_html=False, allows_credential_forms=True,
            attacker_weight=418,
            policy=_policy(0.0584, "04:58", ReportResponsiveness.SILENT, 0.0),
            evasive_share=0.04, scrutiny=0.5,
        ),
        FWBService(
            name="mailchimp", domain="mailchimpsites.com", organization="Intuit Inc.",
            founded_years_before_epoch=21.0, cert_level=ValidationLevel.OV,
            has_banner=True, allows_custom_html=False, allows_credential_forms=True,
            attacker_weight=183,
            policy=_policy(0.2367, "18:11", ReportResponsiveness.ACKNOWLEDGES, 0.15),
            evasive_share=0.05, scrutiny=0.5,
        ),
        FWBService(
            name="glitch", domain="glitch.me", organization="Fastly, Inc.",
            founded_years_before_epoch=8.5, cert_level=ValidationLevel.OV,
            has_banner=False, allows_custom_html=True, allows_credential_forms=True,
            attacker_weight=480,
            policy=_policy(0.2131, "34:47", ReportResponsiveness.ACKNOWLEDGES, 0.10),
            evasive_share=0.06, scrutiny=0.55,
        ),
        FWBService(
            name="hpage", domain="hpage.com", organization="hPage GmbH",
            founded_years_before_epoch=12.0, cert_level=ValidationLevel.OV,
            has_banner=True, allows_custom_html=True, allows_credential_forms=True,
            attacker_weight=61,
            policy=_policy(0.1960, "11:45", ReportResponsiveness.ACKNOWLEDGES, 0.12),
            evasive_share=0.03, scrutiny=0.4,
        ),
    ]
    total = sum(s.attacker_weight for s in services)
    if total != 31405:
        raise ConfigError(
            f"attacker weights must sum to the paper's 31,405 (got {total})"
        )
    if len(services) != 17:
        raise ConfigError(
            f"expected the paper's 17 FWB services, got {len(services)}"
        )
    return services


def fwb_by_name(name: str, services: Optional[List[FWBService]] = None) -> FWBService:
    """Look up a service profile by name."""
    for service in services if services is not None else default_fwb_services():
        if service.name == name:
            return service
    raise ConfigError(f"unknown FWB service: {name!r}")


def fwb_domain_index(services: Optional[List[FWBService]] = None) -> Dict[str, FWBService]:
    """Map registrable domain → service, for URL attribution."""
    return {s.domain: s for s in (services if services is not None else default_fwb_services())}
