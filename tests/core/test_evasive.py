"""§5.5 evasive-vector heuristics."""

from repro.core.evasive import EvasiveVector, classify_evasive
from repro.simnet import Browser
from repro.sitegen.phishing import PhishingVariant


def _snapshot_for(web, phishing_generator, rng, service, variant, target=None):
    provider = web.fwb_providers[service]
    spec = phishing_generator.sample_spec(
        provider.service, rng, variant=variant, target_url=target
    )
    spec.cloaked = False
    site = phishing_generator.create_site(provider, 0, rng, spec=spec)
    return Browser(web).snapshot(site.root_url, now=10)


class TestHeuristics:
    def test_credential_page_is_not_evasive(self, web, phishing_generator, rng):
        snap = _snapshot_for(
            web, phishing_generator, rng, "weebly", PhishingVariant.CREDENTIAL
        )
        assert snap.facts.has_credential_fields
        assert classify_evasive(snap, Browser(web)) is None

    def test_two_step_classified(self, web, phishing_generator, rng, parse_calls):
        target = web.self_hosting.create_site("target-kit.xyz", "attacker", 0)
        target.add_page(
            "/", "<html><body><form><input type=password></form></body></html>"
        )
        snap = _snapshot_for(
            web, phishing_generator, rng, "google_sites",
            PhishingVariant.TWO_STEP, target="https://target-kit.xyz/",
        )
        del parse_calls[:]
        assert classify_evasive(snap, Browser(web)) is EvasiveVector.TWO_STEP
        # Only the browser's snapshots of the two workflow hops parse; the
        # hop's credential check reads the document already parsed.
        assert len(parse_calls) == 2

    def test_two_step_with_dead_target_still_classified(
        self, web, phishing_generator, rng
    ):
        snap = _snapshot_for(
            web, phishing_generator, rng, "google_sites",
            PhishingVariant.TWO_STEP, target="https://removed-target.xyz/",
        )
        assert classify_evasive(snap, Browser(web)) is EvasiveVector.TWO_STEP

    def test_iframe_classified(self, web, phishing_generator, rng):
        snap = _snapshot_for(
            web, phishing_generator, rng, "blogspot",
            PhishingVariant.IFRAME, target="https://framed-attack.xyz/inner",
        )
        assert classify_evasive(snap, Browser(web)) is EvasiveVector.IFRAME

    def test_driveby_classified(self, web, phishing_generator, rng):
        snap = _snapshot_for(
            web, phishing_generator, rng, "sharepoint", PhishingVariant.DRIVEBY
        )
        assert classify_evasive(snap, Browser(web)) is EvasiveVector.DRIVEBY

    def test_benign_page_not_evasive(self, web, benign_generator, rng):
        site = benign_generator.create_fwb_site(web.fwb_providers["weebly"], 0, rng)
        snap = Browser(web).snapshot(site.root_url, now=5)
        vector = classify_evasive(snap, Browser(web))
        # Benign pages may have nav links but never a cross-domain CTA
        # button, external iframe, or malicious download.
        assert vector is None
