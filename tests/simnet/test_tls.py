"""Certificate issuance, inheritance, and CT-log visibility."""

import pytest

from repro.errors import CertificateError
from repro.simnet.tls import (
    Certificate,
    CertificateAuthority,
    CTLog,
    DV_VALIDITY_MINUTES,
    ValidationLevel,
)
from repro.simnet.url import parse_url


@pytest.fixture()
def ca():
    return CertificateAuthority()


class TestIssuance:
    def test_dv_certificate_logged_to_ct(self, ca):
        ca.issue_dv("fresh-scam.xyz", now=100)
        assert ca.ct_log.contains_host("fresh-scam.xyz")

    def test_dv_validity_window(self, ca):
        cert = ca.issue_dv("a.example.com", now=0)
        assert cert.valid_at(0)
        assert cert.valid_at(DV_VALIDITY_MINUTES - 1)
        assert not cert.valid_at(DV_VALIDITY_MINUTES)

    def test_shared_cert_rejects_dv_level(self, ca):
        with pytest.raises(CertificateError):
            ca.issue_shared("weebly.com", "Weebly", now=0, level=ValidationLevel.DV)

    def test_shared_cert_is_wildcard(self, ca):
        cert = ca.issue_shared("weebly.com", "Weebly, Inc.", now=0)
        assert cert.wildcard
        assert cert.covers("anything.weebly.com")
        assert cert.covers("weebly.com")
        assert not cert.covers("a.b.weebly.com")  # single-label wildcard
        assert not cert.covers("weebly.com.evil.org")


class TestInheritance:
    def test_fwb_site_presents_shared_certificate(self, ca):
        """Figure 3's observation: phishing page and FWB share one cert."""
        shared = ca.issue_shared("weebly.com", "Weebly, Inc.", now=0,
                                 level=ValidationLevel.EV)
        presented = ca.certificate_for(parse_url("https://scam.weebly.com/"))
        assert presented is not None
        assert presented.fingerprint == shared.fingerprint
        assert presented.level is ValidationLevel.EV

    def test_fwb_subdomain_not_individually_logged(self, ca):
        """The CT-log invisibility that defeats CT monitors (§3)."""
        ca.issue_shared("weebly.com", "Weebly, Inc.", now=0)
        assert not ca.ct_log.contains_host("scam.weebly.com")
        assert ca.ct_log.contains_host("weebly.com")

    def test_exact_match_preferred_over_wildcard(self, ca):
        ca.issue_shared("weebly.com", "Weebly", now=0)
        own = ca.issue_dv("special.weebly.com", now=5)
        presented = ca.certificate_for(parse_url("https://special.weebly.com/"))
        assert presented.fingerprint == own.fingerprint

    def test_unknown_host_has_no_certificate(self, ca):
        assert ca.certificate_for(parse_url("https://nowhere.example.io/")) is None


class TestCTLog:
    def test_entries_since(self):
        log = CTLog()
        cert = Certificate(
            common_name="a.example.com", organization="a",
            level=ValidationLevel.DV, issued_at=0, expires_at=100,
        )
        log.append(cert, now=50)
        assert len(log.entries_since(0)) == 1
        assert len(log.entries_since(51)) == 0

    def test_contains_host_exact_common_name_only(self):
        log = CTLog()
        assert not log.contains_host("weebly.com")
        log.append(Certificate(
            common_name="weebly.com", organization="Weebly",
            level=ValidationLevel.OV, issued_at=0, expires_at=100, wildcard=True,
        ), now=0)
        assert log.contains_host("weebly.com")
        # A wildcard parent does not log its subdomains.
        assert not log.contains_host("scam.weebly.com")
        assert not log.contains_host("com")

    def test_contains_host_lowercases_the_query(self, ca):
        ca.issue_dv("Fresh-Scam.XYZ", now=0)
        assert ca.ct_log.contains_host("fresh-scam.xyz")
        assert ca.ct_log.contains_host("FRESH-scam.xyz")

    def test_contains_host_matches_common_name_verbatim(self):
        """Queries are lowercased but logged names are not: a mixed-case
        common name (never issued by the CA) matches no query."""
        log = CTLog()
        log.append(Certificate(
            common_name="Mixed.Example.com", organization="m",
            level=ValidationLevel.DV, issued_at=0, expires_at=100,
        ), now=0)
        assert not log.contains_host("Mixed.Example.com")
        assert not log.contains_host("mixed.example.com")

    def test_contains_host_sees_every_append(self, ca):
        for i in range(50):
            ca.issue_dv(f"host{i}.xyz", now=i)
        assert all(ca.ct_log.contains_host(f"host{i}.xyz") for i in range(50))
        assert not ca.ct_log.contains_host("host50.xyz")

    def test_fingerprint_stability(self):
        kwargs = dict(
            common_name="x.example.com", organization="x",
            level=ValidationLevel.OV, issued_at=1, expires_at=2,
        )
        assert Certificate(**kwargs).fingerprint == Certificate(**kwargs).fingerprint
        other = Certificate(**{**kwargs, "organization": "y"})
        assert other.fingerprint != Certificate(**kwargs).fingerprint
