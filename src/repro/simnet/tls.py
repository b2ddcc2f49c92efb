"""Simulated TLS certificates and the Certificate Transparency log.

Two properties from the paper drive this module's design (§3, "Immediate SSL
Certification" and "Increased Difficulty of Discovery"):

* Every site created on an FWB **inherits the FWB's own wildcard EV/OV
  certificate** — the phishing page at ``scam.weebly.com`` presents the same
  certificate (same common name, organization, validity window, fingerprint)
  as ``weebly.com`` itself. Figure 3 of the paper shows a Google Sites
  phishing page sharing YouTube's certificate.
* Because no *new* certificate is issued, FWB phishing sites **never appear
  in Certificate Transparency logs**, defeating the CT-monitoring crawlers
  many anti-phishing pipelines rely on. Self-hosted phishing sites, in
  contrast, obtain fresh DV certificates (Let's Encrypt-style) that are
  logged at issuance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set

from ..errors import CertificateError
from .url import URL


class ValidationLevel(str, Enum):
    """Certificate validation tiers, in increasing rigor."""

    DV = "domain-validated"
    OV = "organization-validated"
    EV = "extended-validation"


#: DV certificates (Let's Encrypt / ZeroSSL) are valid for 90 days.
DV_VALIDITY_MINUTES = 90 * 24 * 60
#: OV/EV certificates typically run for a year.
OV_EV_VALIDITY_MINUTES = 365 * 24 * 60


@dataclass(frozen=True)
class Certificate:
    """An issued certificate.

    ``wildcard`` certificates cover every first-level subdomain of
    ``common_name`` (``*.weebly.com``), which is how FWB sites inherit their
    host's certificate.
    """

    common_name: str
    organization: str
    level: ValidationLevel
    issued_at: int
    expires_at: int
    wildcard: bool = False
    issuer: str = "SimCA"

    @property
    def fingerprint(self) -> str:
        """Stable SHA-256 fingerprint of the certificate's identity fields."""
        payload = "|".join(
            [
                self.common_name,
                self.organization,
                self.level.value,
                str(self.issued_at),
                str(self.expires_at),
                str(self.wildcard),
                self.issuer,
            ]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def covers(self, host: str) -> bool:
        """Does this certificate authenticate ``host``?"""
        host = host.lower()
        if host == self.common_name:
            return True
        if self.wildcard and host.endswith("." + self.common_name):
            # A classic wildcard covers one additional label only.
            extra = host[: -(len(self.common_name) + 1)]
            return "." not in extra
        return False

    def valid_at(self, now: int) -> bool:
        return self.issued_at <= now < self.expires_at


@dataclass
class CTLogEntry:
    """One Certificate Transparency log entry."""

    certificate: Certificate
    logged_at: int


class CTLog:
    """Append-only Certificate Transparency log.

    Anti-phishing CT monitors scan entries appended since their last poll for
    suspicious common names. FWB phishing sites never generate entries.
    """

    def __init__(self) -> None:
        self._entries: List[CTLogEntry] = []
        #: Every logged common name, for ``contains_host``.
        self._common_names: Set[str] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, certificate: Certificate, now: int) -> None:
        self._entries.append(CTLogEntry(certificate=certificate, logged_at=now))
        self._common_names.add(certificate.common_name)

    def entries_since(self, since: int) -> List[CTLogEntry]:
        return [e for e in self._entries if e.logged_at >= since]

    def entries_from(self, index: int) -> List[CTLogEntry]:
        """Entries appended at or after position ``index`` (monitor cursor).

        The log is append-only, so index-based cursors never miss an entry
        even when certificates are back-dated relative to wall-clock polls.
        """
        return list(self._entries[max(index, 0):])

    def contains_host(self, host: str) -> bool:
        """Is there an entry whose common name is exactly ``host``?

        Wildcard parents do **not** count: the point of the FWB evasion is
        that the phishing host itself never shows up.
        """
        return host.lower() in self._common_names


class CertificateAuthority:
    """Issues certificates and (for non-wildcard reuse) logs them to CT.

    ``issue_dv`` mimics Let's Encrypt: instant issuance, 90-day validity,
    logged to CT. ``issue_shared`` creates the long-lived wildcard OV/EV
    certificates the FWB services deploy; these are logged once — for the FWB
    itself — and then silently cover every customer subdomain.
    """

    def __init__(self, ct_log: Optional[CTLog] = None) -> None:
        self.ct_log = ct_log if ct_log is not None else CTLog()
        self._by_host: Dict[str, Certificate] = {}

    def issue_dv(self, host: str, now: int, organization: str = "") -> Certificate:
        cert = Certificate(
            common_name=host.lower(),
            organization=organization or host.lower(),
            level=ValidationLevel.DV,
            issued_at=now,
            expires_at=now + DV_VALIDITY_MINUTES,
            wildcard=False,
            issuer="SimEncrypt",
        )
        self._by_host[cert.common_name] = cert
        self.ct_log.append(cert, now)
        return cert

    def issue_shared(
        self,
        domain: str,
        organization: str,
        now: int,
        level: ValidationLevel = ValidationLevel.OV,
    ) -> Certificate:
        if level is ValidationLevel.DV:
            raise CertificateError("shared FWB certificates are OV or EV")
        cert = Certificate(
            common_name=domain.lower(),
            organization=organization,
            level=level,
            issued_at=now,
            expires_at=now + OV_EV_VALIDITY_MINUTES,
            wildcard=True,
        )
        self._by_host[cert.common_name] = cert
        self.ct_log.append(cert, now)
        return cert

    def certificate_for(self, url: URL) -> Optional[Certificate]:
        """The certificate a TLS client would be presented for ``url``.

        Exact host match wins; otherwise walk up the label chain looking for
        a covering wildcard (the FWB inheritance path).
        """
        host = url.host
        cert = self._by_host.get(host)
        if cert is not None:
            return cert
        labels = host.split(".")
        for i in range(1, len(labels) - 1):
            parent = ".".join(labels[i:])
            candidate = self._by_host.get(parent)
            if candidate is not None and candidate.covers(host):
                return candidate
        return None
