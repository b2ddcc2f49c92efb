"""Observable threat-intel signals and the canonical suspicion score.

Every anti-phishing entity in the simulation — VirusTotal engines,
blocklists, platform moderation, registrar desks — evaluates URLs through
the signals gathered here. The signals are exactly the heuristics the paper
says the ecosystem leans on, and exactly the ones FWB hosting subverts:

==========================  ==============================  ================
signal                      self-hosted phishing            FWB phishing
==========================  ==============================  ================
domain age                  days (fresh registration)       years (FWB apex)
TLD                         cheap (.xyz/.top/...)           .com (14 of 17)
CT-log appearance           yes (fresh DV cert)             no (shared cert)
certificate level           DV or none                      OV / EV
search-index presence       often                           4.1% only
credential fields           on-page                         often displaced
kit markup signature        yes                             builder template
==========================  ==============================  ================

``suspicion_score`` folds the signals into [0, 1]; entity behaviour models
map that score to (detect?, delay) outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import FetchError
from ..simnet.browser import PageSource
from ..simnet.tls import ValidationLevel
from ..simnet.url import URL, count_sensitive_words
from ..simnet.web import Web
from ..sitegen.names import CHEAP_TLDS


@dataclass
class UrlIntel:
    """Signals an anti-phishing entity can observe about one URL."""

    url: URL
    reachable: bool = False
    domain_age_days: Optional[float] = None
    cheap_tld: bool = False
    com_tld: bool = False
    https: bool = False
    cert_level: Optional[ValidationLevel] = None
    in_ct_log: bool = False
    indexed: bool = False
    has_credential_form: bool = False
    n_credential_inputs: int = 0
    sensitive_url_words: int = 0
    brand_title_mismatch: bool = False
    hidden_elements: bool = False
    noindex: bool = False
    external_iframe: bool = False
    malicious_download: bool = False
    download_detections: int = 0
    linkout_button: bool = False
    kit_markup: bool = False
    is_fwb: bool = False
    fwb_name: Optional[str] = None
    fwb_scrutiny: float = 1.0


#: Weights for the canonical suspicion score. Positive values raise
#: suspicion; negative values are the trust signals FWB attacks inherit.
DEFAULT_WEIGHTS: Dict[str, float] = {
    "fresh_domain": 0.34,       # age < 30 days
    "young_domain": 0.18,       # age < 365 days
    "cheap_tld": 0.22,
    "no_https": 0.10,
    "dv_cert": 0.10,
    "in_ct_log": 0.08,
    "credential_form": 0.30,
    "brand_title_mismatch": 0.22,
    "sensitive_url_words": 0.05,  # per word, capped at 3
    "kit_markup": 0.18,
    "malicious_download": 0.26,
    "external_iframe": 0.07,
    "linkout_button": 0.10,
    "hidden_elements": 0.08,
    "old_domain_trust": -0.30,  # age > 5 years
    "ov_ev_cert_trust": -0.12,
    "indexed_trust": -0.02,
}


def gather_intel(web: Web, pages: PageSource, url: URL, now: int) -> UrlIntel:
    """Collect everything an external scanner can observe about ``url``."""
    intel = UrlIntel(url=url)
    whois = web.whois.lookup(url, now)
    if whois is not None:
        intel.domain_age_days = whois.age_days
    intel.cheap_tld = url.tld in CHEAP_TLDS
    intel.com_tld = url.tld == "com"
    intel.https = url.scheme == "https"
    intel.in_ct_log = web.ct_log.contains_host(url.host)
    intel.indexed = web.search_index.is_indexed(url)
    service = web.fwb_for(url)
    if service is not None:
        intel.is_fwb = True
        intel.fwb_name = service.name
        intel.fwb_scrutiny = service.scrutiny

    try:
        snapshot = pages.snapshot(url, now)
    except FetchError:
        return intel
    intel.reachable = True
    if snapshot.certificate is not None:
        intel.cert_level = snapshot.certificate.level

    facts = snapshot.facts
    intel.n_credential_inputs = facts.n_credential_inputs
    intel.has_credential_form = facts.has_credential_fields
    intel.sensitive_url_words = count_sensitive_words(url)
    intel.hidden_elements = facts.n_hidden > 0
    intel.noindex = facts.noindex
    intel.external_iframe = any(
        src.host != url.host for src, _markup in snapshot.iframe_contents
    )
    if snapshot.downloads:
        detections = max(asset.vt_detections for asset in snapshot.downloads)
        intel.download_detections = detections
        intel.malicious_download = detections >= 4
    intel.kit_markup = (
        "kit-panel" in snapshot.markup or "gate.php" in snapshot.markup
    )
    # Two-step shape: a page without credential fields whose main content
    # is an outbound call-to-action button.
    if not intel.has_credential_form and snapshot.outbound_links:
        intel.linkout_button = any(
            anchor.button
            and anchor.href.startswith(("http://", "https://"))
            and url.host not in anchor.href
            for anchor in facts.anchors
        )

    title = facts.title.lower()
    # Crude but effective: a sign-in title naming an organization whose
    # name does not appear in the serving host.
    if ("sign in" in title or "login" in title) and title:
        head_token = title.split()[0].strip(".,-")
        if len(head_token) >= 4 and head_token not in url.registered_domain:
            intel.brand_title_mismatch = True
    return intel


#: The signals of the suspicion score, in the order ``suspicion_score``
#: adds their weights. The age signals are alternatives, as are the two
#: certificate signals.
SIGNAL_ORDER = (
    "fresh_domain", "young_domain", "old_domain_trust", "cheap_tld",
    "no_https", "dv_cert", "ov_ev_cert_trust", "in_ct_log", "indexed_trust",
    "credential_form", "brand_title_mismatch", "sensitive_url_words",
    "kit_markup", "malicious_download", "external_iframe", "linkout_button",
    "hidden_elements",
)
_SIGNAL_INDEX = {name: i for i, name in enumerate(SIGNAL_ORDER)}


def signal_vector(intel: UrlIntel) -> Optional[List[float]]:
    """Multiplier of each ``SIGNAL_ORDER`` weight in ``suspicion_score``.

    1.0 for an active signal, 0.0 for an inactive one, and the capped word
    count for ``sensitive_url_words``; ``None`` for an unreachable URL,
    which scores 0 under any weights. These are the only copy of the
    suspicion rules: the score and the engine fleet both sum over them.
    """
    if not intel.reachable:
        return None
    vector = [0.0] * len(SIGNAL_ORDER)

    def on(name: str) -> None:
        vector[_SIGNAL_INDEX[name]] = 1.0

    age = intel.domain_age_days
    if age is not None:
        if age < 30:
            on("fresh_domain")
        elif age < 365:
            on("young_domain")
        elif age > 5 * 365:
            on("old_domain_trust")
    if intel.cheap_tld:
        on("cheap_tld")
    if not intel.https:
        on("no_https")
    if intel.cert_level is ValidationLevel.DV:
        on("dv_cert")
    elif intel.cert_level in (ValidationLevel.OV, ValidationLevel.EV):
        on("ov_ev_cert_trust")
    if intel.in_ct_log:
        on("in_ct_log")
    if intel.indexed:
        on("indexed_trust")
    if intel.has_credential_form:
        on("credential_form")
    if intel.brand_title_mismatch:
        on("brand_title_mismatch")
    vector[_SIGNAL_INDEX["sensitive_url_words"]] = float(min(intel.sensitive_url_words, 3))
    if intel.kit_markup:
        on("kit_markup")
    if intel.malicious_download:
        on("malicious_download")
    if intel.external_iframe:
        on("external_iframe")
    if intel.linkout_button:
        on("linkout_button")
    if intel.hidden_elements:
        on("hidden_elements")
    return vector


def suspicion_score(
    intel: UrlIntel, weights: Optional[Dict[str, float]] = None
) -> float:
    """Fold intel signals into a suspicion score in [0, 1].

    Unreachable URLs score 0 (nothing to analyse). The raw score is a base
    rate of 0.05 plus ``weight * multiplier`` over :func:`signal_vector`,
    added in ``SIGNAL_ORDER``; an inactive signal adds a signed zero, which
    changes no sum. The raw score is then saturated into [0, 1].
    """
    signals = signal_vector(intel)
    if signals is None:
        return 0.0
    w = DEFAULT_WEIGHTS if weights is None else weights
    score = 0.05  # base prior: the URL arrived via an abuse-prone channel
    for name, multiplier in zip(SIGNAL_ORDER, signals):
        score += w.get(name, 0.0) * multiplier
    # Soft saturation: additive evidence has diminishing returns, so a
    # loaded kit lands around 0.8-0.9 rather than pinning the scale.
    if score <= 0.0:
        return 0.0
    return float(1.0 - np.exp(-1.35 * score))


#: Width of the time bucket intel is cached for: one simulated day.
INTEL_BUCKET_MINUTES = 24 * 60


class IntelService:
    """Caches intel per (url, coarse time bucket) for the ecosystem."""

    def __init__(self, web: Web, pages: PageSource) -> None:
        self.web = web
        self.pages = pages
        self._cache: Dict[tuple, UrlIntel] = {}

    def intel_for(self, url: URL, now: int) -> UrlIntel:
        key = (str(url), now // INTEL_BUCKET_MINUTES)
        cached = self._cache.get(key)
        if cached is None:
            cached = gather_intel(self.web, self.pages, url, now)
            self._cache[key] = cached
        return cached

    def suspicion(self, url: URL, now: int) -> float:
        return suspicion_score(self.intel_for(url, now))
