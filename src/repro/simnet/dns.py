"""Simulated domain registration and resolution.

The registry tracks registered (registrable) domains and the subdomains
allocated under them. It is the ground truth consulted by the WHOIS service
(domain age), hosting providers (subdomain allocation for FWB sites), and
anti-phishing engines (existence checks).

Times are integer minutes relative to the simulation epoch; domains that
pre-date the simulation (the FWB services themselves, benign infrastructure)
carry negative registration times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..errors import DomainTakenError, UnknownDomainError
from .url import URL


@dataclass
class DomainRecord:
    """Registration record for one registrable domain.

    Attributes
    ----------
    domain:
        Registrable domain, e.g. ``weebly.com``.
    registered_at:
        Minutes relative to the simulation epoch (negative = before).
    registrant:
        Owner label (an FWB service name, ``attacker``, ``benign``...).
    subdomains:
        Set of fully-qualified subdomain hosts allocated under this domain.
    """

    domain: str
    registered_at: int
    registrant: str
    subdomains: Set[str] = field(default_factory=set)

    def age_minutes(self, now: int) -> int:
        """Domain age at simulation time ``now`` (clamped at zero)."""
        return max(0, now - self.registered_at)

    def age_days(self, now: int) -> float:
        return self.age_minutes(now) / (24 * 60)


class DomainRegistry:
    """Authoritative registry of domains and subdomains.

    The registry answers three questions the ecosystem cares about:

    * Does this host exist? (``resolve``)
    * When was the *registrable* domain registered? (``record_for`` → WHOIS)
    * Which subdomains live under a domain? (FWB abuse-desk views)
    """

    def __init__(self) -> None:
        self._records: Dict[str, DomainRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, domain: str) -> bool:
        return domain.lower() in self._records

    def register(self, domain: str, registered_at: int, registrant: str) -> DomainRecord:
        """Register a new registrable domain.

        Raises :class:`~repro.errors.DomainTakenError` if already present.
        """
        key = domain.lower()
        if key in self._records:
            raise DomainTakenError(f"domain already registered: {domain}")
        record = DomainRecord(domain=key, registered_at=registered_at, registrant=registrant)
        self._records[key] = record
        return record

    def drop(self, domain: str) -> None:
        """Remove a domain entirely (registrar-level takedown)."""
        key = domain.lower()
        if key not in self._records:
            raise UnknownDomainError(f"unknown domain: {domain}")
        del self._records[key]

    def record_for(self, domain: str) -> DomainRecord:
        key = domain.lower()
        try:
            return self._records[key]
        except KeyError:
            raise UnknownDomainError(f"unknown domain: {domain}") from None

    def add_subdomain(self, domain: str, host: str) -> None:
        """Allocate fully-qualified ``host`` under ``domain``.

        FWB site creation calls this; duplicate allocation is an error (two
        users cannot claim the same site name).
        """
        record = self.record_for(domain)
        host = host.lower()
        if not host.endswith("." + record.domain):
            raise UnknownDomainError(
                f"host {host!r} does not belong to domain {record.domain!r}"
            )
        if host in record.subdomains:
            raise DomainTakenError(f"subdomain already allocated: {host}")
        record.subdomains.add(host)

    def remove_subdomain(self, domain: str, host: str) -> None:
        record = self.record_for(domain)
        record.subdomains.discard(host.lower())

    def resolve(self, url: URL) -> Optional[DomainRecord]:
        """Resolve a URL's host to its domain record.

        Returns the record if the registrable domain is registered *and*
        either the host equals the registrable domain or the subdomain has
        been allocated. Returns ``None`` otherwise (NXDOMAIN).
        """
        try:
            record = self._records[url.registered_domain]
        except KeyError:
            return None
        if url.host == record.domain or url.host in record.subdomains:
            return record
        return None

    def domains_of(self, registrant: str) -> List[DomainRecord]:
        return [r for r in self._records.values() if r.registrant == registrant]
