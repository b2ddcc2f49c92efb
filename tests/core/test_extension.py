"""Extension edge cases: redirect chains, iframes, precedence, UNREACHABLE.

These exercise the awkward corners of the navigation guard now that it
routes through ``repro.serve``: multi-hop attacks that cross FWB hosts,
phishing content reachable only through an iframe, the feed-beats-
classifier precedence rule, and unreachable-page handling.
"""

import pytest

from repro.core.extension import FreePhishExtension, NavigationVerdict
from repro.serve.service import ServedFrom
from repro.simnet.browser import Browser, follow_workflow
from repro.sitegen.phishing import PhishingVariant


@pytest.fixture()
def world_extension(campaign_world_and_result):
    world, _result = campaign_world_and_result
    return world, FreePhishExtension(world.web, world.classifier)


def _credential_site(world, rng, provider="wix"):
    generator = world.attacker.phishing_generator
    fwb_provider = world.web.fwb_providers[provider]
    spec = generator.sample_spec(fwb_provider.service, rng)
    spec.variant = PhishingVariant.CREDENTIAL
    spec.target_url = None
    return generator.create_site(fwb_provider, now=10 ** 6, rng=rng, spec=spec)


def _linked_site(world, rng, variant, target_url, provider="weebly"):
    generator = world.attacker.phishing_generator
    fwb_provider = world.web.fwb_providers[provider]
    spec = generator.sample_spec(fwb_provider.service, rng)
    spec.variant = variant
    spec.target_url = target_url
    return generator.create_site(fwb_provider, now=10 ** 6, rng=rng, spec=spec)


class TestRedirectChains:
    def test_two_step_chain_crosses_into_second_fwb_host(self, world_extension, rng):
        world, ext = world_extension
        credential = _credential_site(world, rng, provider="wix")
        landing = _linked_site(
            world, rng, PhishingVariant.TWO_STEP, str(credential.root_url)
        )
        chain = follow_workflow(Browser(world.web), landing.root_url, now=10 ** 6 + 5)
        assert len(chain) >= 2
        assert chain[1].url.host == credential.root_url.host
        assert chain[0].url.host != chain[1].url.host

    def test_extension_blocks_terminal_hop_once_fed(self, world_extension, rng):
        world, ext = world_extension
        credential = _credential_site(world, rng, provider="wix")
        landing = _linked_site(
            world, rng, PhishingVariant.TWO_STEP, str(credential.root_url)
        )
        ext.update_feed([str(credential.root_url)])
        chain = follow_workflow(Browser(world.web), landing.root_url, now=10 ** 6 + 5)
        verdicts = [ext.check(snapshot.url, 10 ** 6 + 6) for snapshot in chain]
        # Wherever the user bails mid-chain, the terminal phish never renders.
        assert verdicts[-1] is NavigationVerdict.BLOCKED_FEED
        result = ext.navigate(credential.root_url, 10 ** 6 + 7)
        assert result.blocked and result.fetch is None


class TestIframeEmbedding:
    def test_snapshot_resolves_framed_phishing_content(self, world_extension, rng):
        world, _ext = world_extension
        credential = _credential_site(world, rng, provider="wix")
        wrapper = _linked_site(
            world, rng, PhishingVariant.IFRAME, str(credential.root_url)
        )
        snapshot = Browser(world.web).snapshot(wrapper.root_url, now=10 ** 6 + 5)
        sources = [str(src) for src, _markup in snapshot.iframe_contents]
        assert str(credential.root_url) in sources
        framed = dict(
            (str(src), markup) for src, markup in snapshot.iframe_contents
        )[str(credential.root_url)]
        assert framed  # client-side content was actually resolved

    def test_framed_url_blocked_even_when_wrapper_is_not_fed(
        self, world_extension, rng
    ):
        world, ext = world_extension
        credential = _credential_site(world, rng, provider="wix")
        wrapper = _linked_site(
            world, rng, PhishingVariant.IFRAME, str(credential.root_url)
        )
        ext.update_feed([str(credential.root_url)])
        assert ext.check(credential.root_url, 10 ** 6 + 5) is (
            NavigationVerdict.BLOCKED_FEED
        )
        # The wrapper itself is outside the feed: the local model decides.
        wrapper_verdict = ext.check(wrapper.root_url, 10 ** 6 + 5)
        assert wrapper_verdict in (
            NavigationVerdict.ALLOWED, NavigationVerdict.BLOCKED_CLASSIFIER,
        )


class TestVerdictPrecedence:
    def test_feed_overrides_cached_classifier_allow(self, world_extension, rng):
        world, ext = world_extension
        site = world.benign_users.generator.create_fwb_site(
            world.web.fwb_providers["wix"], now=10 ** 6, rng=rng
        )
        first = ext.check_served(site.root_url, 10 ** 6 + 1)
        assert first.verdict is NavigationVerdict.ALLOWED
        # The backend later confirms it: the cached allow must not survive.
        ext.update_feed([str(site.root_url)])
        second = ext.check_served(site.root_url, 10 ** 6 + 2)
        assert second.verdict is NavigationVerdict.BLOCKED_FEED
        assert second.served_from is ServedFrom.FEED

    def test_feed_hit_never_reaches_classifier(self, world_extension, rng):
        world, ext = world_extension
        site = _credential_site(world, rng)
        ext.update_feed([str(site.root_url)])
        served = ext.check_served(site.root_url, 10 ** 6 + 1)
        assert served.served_from is ServedFrom.FEED
        assert served.probability is None  # no model ran

    def test_allowlist_overrides_everything(self, world_extension, rng):
        world, ext = world_extension
        site = _credential_site(world, rng)
        ext.update_feed([str(site.root_url)])
        ext.allow_anyway(site.root_url)
        served = ext.check_served(site.root_url, 10 ** 6 + 1)
        assert served.verdict is NavigationVerdict.ALLOWED
        assert served.served_from is ServedFrom.ALLOWLIST


class TestUnreachable:
    def test_unreachable_fwb_page_not_sticky(self, world_extension, rng):
        world, ext = world_extension
        site = _credential_site(world, rng)
        world.web.take_down(site.root_url, now=10 ** 6 + 1)
        first = ext.check(site.root_url, 10 ** 6 + 2)
        assert first is NavigationVerdict.UNREACHABLE
        # UNREACHABLE is never cached: the next check re-resolves instead
        # of replaying a stale availability answer.
        assert ext.service.cache.lookup(site.root_url, 10 ** 6 + 2) is None
        assert ext.check(site.root_url, 10 ** 6 + 3) is (
            NavigationVerdict.UNREACHABLE
        )

    def test_unreachable_does_not_count_as_blocked(self, world_extension, rng):
        world, ext = world_extension
        site = _credential_site(world, rng)
        world.web.take_down(site.root_url, now=10 ** 6 + 1)
        before = ext.stats["blocked"]
        ext.check(site.root_url, 10 ** 6 + 2)
        assert ext.stats["blocked"] == before
