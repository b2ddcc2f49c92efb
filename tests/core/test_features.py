"""Feature extraction (§4.2): the 20-feature vectors."""

import pytest

from repro.core.features import (
    BASE_FEATURE_NAMES,
    FWB_FEATURE_NAMES,
    FeatureExtractor,
)
from repro.errors import FeatureError
from repro.simnet.url import parse_url


@pytest.fixture(scope="module")
def extractor():
    return FeatureExtractor()


PHISH_MARKUP = """
<html><head><title>PayPaul - Sign In</title>
<meta name="robots" content="noindex"></head><body>
<div class="fwb-banner" style="visibility:hidden"><a href="https://weebly.com/">Powered by Weebly</a></div>
<form method="post" action="/submit">
  <input type="email" name="email"><input type="password" name="password">
</form>
<a href="#">empty</a>
<a href="https://elsewhere.example.com/x">ext</a>
<a href="/local">int</a>
</body></html>
"""

BENIGN_MARKUP = """
<html><head><title>Sunny Bakery</title></head><body>
<nav><ul><li><a href="/">Home</a></li><li><a href="/about">About</a></li></ul></nav>
<p>Fresh bread daily.</p><img src="/shop.jpg" alt="storefront">
</body></html>
"""


class TestFeatureSets:
    def test_base_has_20_features(self):
        assert len(BASE_FEATURE_NAMES) == 20

    def test_fwb_has_20_features(self):
        assert len(FWB_FEATURE_NAMES) == 20

    def test_fwb_swaps_exactly_two(self):
        base, fwb = set(BASE_FEATURE_NAMES), set(FWB_FEATURE_NAMES)
        assert base - fwb == {"has_https", "n_tld_tokens"}
        assert fwb - base == {"obfuscated_fwb_banner", "has_noindex"}


class TestExtraction:
    def test_phishing_page_features(self, extractor):
        url = parse_url("https://paypaul-login-verify.weebly.com/")
        features = extractor.extract(url, PHISH_MARKUP)
        values = features.values
        assert values["has_login_form"] == 1.0
        assert values["n_password_fields"] == 1.0
        assert values["brand_in_url"] == 1.0
        assert values["n_sensitive_words"] >= 2
        assert values["obfuscated_fwb_banner"] == 1.0
        assert values["has_noindex"] == 1.0
        assert values["title_brand_mismatch"] == 1.0
        assert values["n_empty_links"] == 1.0
        assert values["n_external_links"] == 1.0
        # The banner link points to weebly.com which is same-registered-host.
        assert values["n_internal_links"] >= 1

    def test_benign_page_features(self, extractor):
        url = parse_url("https://sunny-bakery.weebly.com/")
        values = extractor.extract(url, BENIGN_MARKUP).values
        assert values["has_login_form"] == 0.0
        assert values["brand_in_url"] == 0.0
        assert values["obfuscated_fwb_banner"] == 0.0
        assert values["has_noindex"] == 0.0
        assert values["title_brand_mismatch"] == 0.0

    def test_title_mismatch_absent_on_brand_domain(self, extractor):
        url = parse_url("https://paypaul.com/login")
        values = extractor.extract(url, PHISH_MARKUP).values
        assert values["title_brand_mismatch"] == 0.0

    def test_external_form_action(self, extractor):
        markup = (
            '<html><body><form action="https://collector.example.net/gate">'
            '<input type="password"></form></body></html>'
        )
        url = parse_url("https://x.weebly.com/")
        assert extractor.extract(url, markup).values["external_form_action"] == 1.0

    def test_vector_orders_match_names(self, extractor):
        url = parse_url("https://x.weebly.com/")
        features = extractor.extract(url, PHISH_MARKUP)
        base = features.base_vector
        assert base[BASE_FEATURE_NAMES.index("has_https")] == 1.0
        fwb = features.fwb_vector
        assert fwb[FWB_FEATURE_NAMES.index("has_noindex")] == 1.0
        assert len(base) == len(fwb) == 20

    def test_unknown_feature_requested(self, extractor):
        url = parse_url("https://x.weebly.com/")
        features = extractor.extract(url, BENIGN_MARKUP)
        with pytest.raises(FeatureError):
            features.vector(["no_such_feature"])  # reprolint: disable=RP301 — deliberately unknown name; asserts FeatureError

    def test_unsupported_page_type(self, extractor):
        with pytest.raises(FeatureError):
            extractor.extract(parse_url("https://x.weebly.com/"), 12345)
