"""Exact outputs of every page reader, pinned by hash.

Feature extraction, intel gathering, the evasive-vector heuristics and the
browser's link/iframe/download collection all read the same few facts from
a page; the visual baselines read its rendered signatures and
PhishIntention's dynamic phase follows its call-to-action chain. Each test runs one reader over a fixed corpus and compares the
sha256 of its outputs with a recorded digest, so a refactor of how pages
are read that changes any value on any page changes a digest.

The corpus is a ``build_ground_truth`` set, one site of every
:class:`~repro.sitegen.phishing.PhishingVariant` with each banner-hiding
style, self-hosted kit and benign sites, and a few hand-written pages for
rules the generators never exercise, both hosted and as raw markup. The
intel, evasive and credential-interface readers run again after the
external targets are taken down.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.baselines import PhishIntentionDetector
from repro.core.evasive import classify_evasive
from repro.core.features import FeatureExtractor
from repro.core.preprocess import ProcessedPage
from repro.ecosystem.intel import gather_intel
from repro.sim import build_ground_truth
from repro.simnet import Browser
from repro.simnet.hosting import FileAsset
from repro.simnet.url import parse_url
from repro.sitegen import (
    LegitimateSiteGenerator,
    PhishingKitGenerator,
    PhishingSiteGenerator,
)
from repro.sitegen.phishing import PhishingVariant
from repro.webdoc.render import region_signatures

BEFORE, TAKEDOWN, AFTER = 10, 100, 500

#: Pages whose rules the generators do not reach: stylesheet and bare
#: ``hidden`` hiding, robots/googlebot/element ``noindex``, credential
#: inputs by name or placeholder, download links by attribute or extension,
#: empty, internal and external anchors, and external form actions.
HAND_WRITTEN = (
    "<html><head><title> Sign in to PayPal </title>"
    "<style>.fwb-banner{display:none} #ad { visibility : hidden }</style></head>"
    "<body><div class='fwb-banner'>Powered by Weebly</div><div id='ad'>x</div>"
    "<a href='#'>a</a><a href=''>b</a><a href='javascript:void(0)'>c</a>"
    "<a href='/in'>d</a><a href='https://other.example.org/x'>e</a>"
    "<a class='btn primary' href='https://login.example.net/'>Continue</a>"
    "<form action='https://collect.example.xyz/gate.php'>"
    "<input name='user_email'><input placeholder='Card number'>"
    "<input type='submit'></form></body></html>",
    "<html><head><meta name='GoogleBot' content='NOINDEX, follow'></head>"
    "<body><footer hidden>Create your own free website</footer>"
    "<a download href='/f'>file</a><a href='/setup.EXE'>setup</a>"
    "<iframe src='https://frame.example.org/p'></iframe><img src='a.png'>"
    "<form><input type='password'></form></body></html>",
    "<html><body><noindex></noindex><span hidden='hidden'>made with</span>"
    "<div style='display: none'><p>report abuse</p></div>"
    "<input type='TEL'><input name='nickname'><iframe></iframe>"
    "<a class='button' href='http://sub.host.weebly.com/x'>go</a></body></html>",
    "<p>no structure at all",
    "",
)


@pytest.fixture()
def corpus():
    """(web, [root URLs]), fresh per test: the intel test takes sites down."""
    gt = build_ground_truth(n_per_class=40, seed=5)
    web = gt.web
    urls = [page.url for page in gt.pages]
    rng = np.random.default_rng(21)
    phish_gen = PhishingSiteGenerator()
    kit_gen = PhishingKitGenerator()
    benign_gen = LegitimateSiteGenerator()
    for provider_name in ("weebly", "google_sites", "github_io"):
        provider = web.fwb_providers[provider_name]
        for variant in PhishingVariant:
            for style in ("inline", "stylesheet"):
                spec = phish_gen.sample_spec(provider.service, rng, variant=variant)
                spec.obfuscate_banner = provider.service.has_banner
                spec.obfuscation_style = style
                if variant in (PhishingVariant.TWO_STEP, PhishingVariant.IFRAME):
                    target = kit_gen.create_site(
                        web.self_hosting, now=0, rng=rng, brand=spec.brand
                    )
                    target.metadata["linked_only"] = True
                    spec.target_url = str(target.root_url)
                urls.append(phish_gen.create_site(provider, 0, rng, spec=spec).root_url)
    for _ in range(4):
        urls.append(kit_gen.create_site(web.self_hosting, now=0, rng=rng).root_url)
        urls.append(benign_gen.create_self_hosted_site(web.self_hosting, now=0, rng=rng).root_url)
    for markup in HAND_WRITTEN:
        site = benign_gen.create_self_hosted_site(web.self_hosting, now=0, rng=rng)
        site.add_page("/", markup)
        site.add_file("/setup.EXE", FileAsset("setup.exe", True, vt_detections=9))
        urls.append(site.root_url)
    return web, urls


def _take_down_targets(web):
    for site in web.self_hosting.iter_sites():
        if site.metadata.get("linked_only"):
            site.remove(TAKEDOWN)


def _digest(rows):
    digest = hashlib.sha256()
    for row in rows:
        digest.update(json.dumps(row, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


#: The :class:`UrlIntel` fields read from the page itself.
PAGE_INTEL_FIELDS = (
    "reachable", "has_credential_form", "n_credential_inputs",
    "sensitive_url_words", "brand_title_mismatch", "hidden_elements",
    "noindex", "external_iframe", "malicious_download",
    "download_detections", "linkout_button", "kit_markup",
)


def test_feature_values_digest(corpus):
    web, urls = corpus
    browser = Browser(web)
    extractor = FeatureExtractor()
    rows = [
        sorted(extractor.extract(url, browser.snapshot(url, BEFORE)).values.items())
        for url in urls
    ]
    base = parse_url("https://host.weebly.com/login")
    rows += [
        sorted(extractor.extract(base, markup).values.items())
        for markup in HAND_WRITTEN
    ]
    assert _digest(rows) == (
        "b4df2509f17a50e53286f4461ca8a680a3b95187b8a9f6e9dab7c984af8659c7"
    )


def test_snapshot_collections_digest(corpus):
    web, urls = corpus
    browser = Browser(web)
    rows = []
    for url in urls:
        snapshot = browser.snapshot(url, BEFORE)
        rows.append([
            [str(link) for link in snapshot.outbound_links],
            [repr(asset) for asset in snapshot.downloads],
            [[str(src), markup] for src, markup in snapshot.iframe_contents],
        ])
    assert _digest(rows) == (
        "5f6014a41fcc3202beb3fc006dd7d04aaa87b2fdbfa7632cf28951eebb271142"
    )


def test_intel_and_evasive_digests(corpus):
    web, urls = corpus
    browser = Browser(web)

    def observe(now):
        intel = [
            [getattr(gather_intel(web, browser, url, now), name)
             for name in PAGE_INTEL_FIELDS]
            for url in urls
        ]
        evasive = []
        for url in urls:
            vector = classify_evasive(browser.snapshot(url, now), browser)
            evasive.append(None if vector is None else vector.value)
        return intel, evasive

    intel_before, evasive_before = observe(BEFORE)
    _take_down_targets(web)
    intel_after, evasive_after = observe(AFTER)
    assert _digest(intel_before + intel_after) == (
        "b6a9cb4f5c90b1d33bc723c40851e58077cb238c44fa154ff3481f84f799db0c"
    )
    assert _digest([evasive_before, evasive_after]) == (
        "3f49ddd99642a72bcab78e9f8e3f32c3e15f124999a77afe7701a492edb9962c"
    )


def test_visual_signatures_digest(corpus):
    web, urls = corpus
    browser = Browser(web)
    rows = []
    for url in urls:
        snapshot = browser.snapshot(url, BEFORE)
        rows.append([
            snapshot.signature.vector.tolist(),
            [region.vector.tolist()
             for region in region_signatures(snapshot.document, max_regions=12)],
        ])
    assert _digest(rows) == (
        "26facc6722b02809d405372bb36c7dcf289c2adb0866dd990ebb913efc63353a"
    )


def test_credential_interface_digest(corpus):
    """PhishIntention's dynamic phase, with a browser as its page source."""
    web, urls = corpus
    browser = Browser(web)
    extractor = FeatureExtractor()
    detector = PhishIntentionDetector(browser)

    def observe(now):
        outcomes = []
        for url in urls:
            snapshot = browser.snapshot(url, now)
            page = ProcessedPage(url, snapshot, extractor.extract(url, snapshot), None)
            outcomes.append(detector._credential_interface(page, now))
        return outcomes

    before = observe(BEFORE)
    _take_down_targets(web)
    after = observe(AFTER)
    assert _digest([before, after]) == (
        "0f38e1702f0461b662bc8f07fb059e77f94f83f463e8d280b23febf3aacd5148"
    )
