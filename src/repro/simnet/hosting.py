"""Hosting providers and hosted sites.

Two hosting models exist in the study:

* **FWB hosting** (:class:`FWBHostingProvider`): the attacker or a benign
  user claims a free subdomain under the service's domain. The site
  instantly inherits the service's shared wildcard certificate (no CT-log
  entry), the service's domain age, and — for most services — a ``.com``
  TLD. The provider's abuse desk follows the service's
  :class:`~repro.simnet.fwb.FWBPolicy` when phishing is reported.
* **Self-hosting** (:class:`SelfHostingProvider`): the attacker registers a
  fresh domain (typically on a cheap TLD), obtains a DV certificate — which
  *is* CT-logged — and serves the kit there. Domain age is ~0 at attack
  time, and registrars take these down comparatively quickly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, Optional

from ..errors import DomainTakenError, FetchError, UnknownDomainError
from .dns import DomainRegistry
from .fwb import FWBService
from .tls import Certificate, CertificateAuthority
from .url import URL, parse_url


class SiteStatus(str, Enum):
    ACTIVE = "active"
    REMOVED = "removed"
    ABANDONED = "abandoned"


@dataclass
class FileAsset:
    """A downloadable file hosted by a site (the §5.5 drive-by vector)."""

    filename: str
    malicious: bool
    #: Number of VirusTotal engines that flag the file when scanned; the
    #: paper marks files with >= 4 detections as malware.
    vt_detections: int = 0
    size_bytes: int = 0


@dataclass
class HostedSite:
    """One website: a bundle of pages and file assets under a single host."""

    root_url: URL
    created_at: int
    owner: str
    pages: Dict[str, str] = field(default_factory=dict)
    files: Dict[str, FileAsset] = field(default_factory=dict)
    status: SiteStatus = SiteStatus.ACTIVE
    removed_at: Optional[int] = None
    #: Free-form labels the generators attach (is_phishing, brand, variant...).
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def host(self) -> str:
        return self.root_url.host

    def add_page(self, path: str, html: str) -> None:
        if not path.startswith("/"):
            raise FetchError(f"page path must start with '/': {path!r}")
        self.pages[path] = html

    def add_file(self, path: str, asset: FileAsset) -> None:
        if not path.startswith("/"):
            raise FetchError(f"file path must start with '/': {path!r}")
        self.files[path] = asset

    def is_active(self, now: int) -> bool:
        return self.status is SiteStatus.ACTIVE or (
            self.removed_at is not None and now < self.removed_at
        )

    def remove(self, now: int, status: SiteStatus = SiteStatus.REMOVED) -> None:
        if self.status is SiteStatus.ACTIVE:
            self.status = status
            self.removed_at = now

    def page_for(self, url: URL) -> Optional[str]:
        return self.pages.get(url.path)

    def file_for(self, url: URL) -> Optional[FileAsset]:
        return self.files.get(url.path)


class HostingProvider:
    """Base class: a collection of hosted sites keyed by host name."""

    def __init__(self, name: str, registry: DomainRegistry) -> None:
        self.name = name
        self.registry = registry
        self._sites: Dict[str, HostedSite] = {}

    def __len__(self) -> int:
        return len(self._sites)

    def site_for_host(self, host: str) -> Optional[HostedSite]:
        return self._sites.get(host.lower())

    def iter_sites(self) -> Iterator[HostedSite]:
        return iter(self._sites.values())

    def take_down(self, host: str, now: int) -> bool:
        """Remove a site; returns ``True`` if it was active."""
        site = self._sites.get(host.lower())
        if site is None or not site.is_active(now):
            return False
        site.remove(now)
        return True

    def _store(self, site: HostedSite) -> HostedSite:
        key = site.host
        if key in self._sites and self._sites[key].is_active(site.created_at):
            raise DomainTakenError(f"host already serving a site: {key}")
        self._sites[key] = site
        return site


class FWBHostingProvider(HostingProvider):
    """Hosting provider for one FWB service.

    ``ensure_registered`` must run once (the world-builder does it) so the
    service's apex domain, shared certificate and WHOIS record exist before
    customer sites are created.
    """

    def __init__(
        self,
        service: FWBService,
        registry: DomainRegistry,
        ca: CertificateAuthority,
    ) -> None:
        super().__init__(name=service.name, registry=registry)
        self.service = service
        self.ca = ca
        self.shared_certificate: Optional[Certificate] = None

    def ensure_registered(self) -> None:
        if self.service.domain not in self.registry:
            self.registry.register(
                self.service.domain,
                registered_at=self.service.registered_at,
                registrant=self.service.name,
            )
        if self.shared_certificate is None:
            self.shared_certificate = self.ca.issue_shared(
                domain=self.service.domain,
                organization=self.service.organization,
                now=self.service.registered_at,
                level=self.service.cert_level,
            )

    def create_site(self, site_name: str, owner: str, now: int) -> HostedSite:
        """Claim ``site_name`` and return the (empty) hosted site.

        No certificate is issued and no CT entry appears: the site rides the
        provider's shared wildcard certificate.
        """
        if self.shared_certificate is None:
            raise UnknownDomainError(
                f"provider {self.name} not registered; call ensure_registered()"
            )
        host = self.service.site_host(site_name)
        self.registry.add_subdomain(self.service.domain, host)
        site = HostedSite(
            root_url=parse_url(f"https://{host}/"),
            created_at=now,
            owner=owner,
        )
        site.metadata["fwb"] = self.service.name
        return self._store(site)

    def take_down(self, host: str, now: int) -> bool:
        removed = super().take_down(host, now)
        if removed:
            self.registry.remove_subdomain(self.service.domain, host)
        return removed


class SelfHostingProvider(HostingProvider):
    """Attacker- (or user-) registered standalone domains.

    Each ``create_site`` registers a brand-new domain and requests a DV
    certificate, which lands in the CT log immediately — the discovery
    channel FWB attacks avoid.
    """

    def __init__(self, registry: DomainRegistry, ca: CertificateAuthority) -> None:
        super().__init__(name="self-hosted", registry=registry)
        self.ca = ca

    def create_site(
        self,
        domain: str,
        owner: str,
        now: int,
        registered_at: Optional[int] = None,
        https: bool = True,
    ) -> HostedSite:
        """Register ``domain`` outright and return its hosted site.

        ``registered_at`` defaults to ``now`` (fresh registration); benign
        long-lived sites pass an older timestamp.
        """
        self.registry.register(
            domain, registered_at=now if registered_at is None else registered_at,
            registrant=owner,
        )
        scheme = "https" if https else "http"
        if https:
            self.ca.issue_dv(domain, now=now, organization=owner)
        site = HostedSite(
            root_url=parse_url(f"{scheme}://{domain}/"),
            created_at=now,
            owner=owner,
        )
        site.metadata["fwb"] = None
        return self._store(site)

    def take_down(self, host: str, now: int) -> bool:
        removed = super().take_down(host, now)
        if removed and host in self.registry:
            self.registry.drop(host)
        return removed
