"""Anti-phishing ecosystem: engines, blocklists, aggregators, abuse desks.

Detection here is **emergent**: every entity scores URLs through
:mod:`repro.ecosystem.intel` signals (domain age, TLD, CT-log presence,
credential fields, banner obfuscation, iframes, ...) that FWB hosting
systematically weakens — reproducing the paper's coverage and response-time
gaps from mechanism rather than from hard-coded outcomes.
"""

from .intel import UrlIntel, IntelService, suspicion_score
from .engines import DetectionEngine, default_engine_fleet
from .fleet import EngineFleet
from .virustotal import VirusTotal, ScanReport
from .blocklists import Blocklist, default_blocklists
from .takedown import AbuseDesk, RegistrarDesk, ReportOutcome
from .feeds import FeedLink, FeedNetwork, sharing_experiment
from .crawlers import (
    CTLogMonitor,
    DiscoveredHost,
    DiscoveryReport,
    SearchIndexCrawler,
    measure_discovery,
)

__all__ = [
    "UrlIntel",
    "IntelService",
    "suspicion_score",
    "DetectionEngine",
    "default_engine_fleet",
    "EngineFleet",
    "VirusTotal",
    "ScanReport",
    "Blocklist",
    "default_blocklists",
    "AbuseDesk",
    "RegistrarDesk",
    "ReportOutcome",
    "CTLogMonitor",
    "DiscoveredHost",
    "DiscoveryReport",
    "SearchIndexCrawler",
    "measure_discovery",
    "FeedLink",
    "FeedNetwork",
    "sharing_experiment",
]
