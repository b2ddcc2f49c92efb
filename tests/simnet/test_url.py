"""URL parsing and lexical-feature tests."""

import copy
import pickle

import pytest

from repro.errors import URLError
from repro.simnet.url import (
    URL,
    URLStringStats,
    count_sensitive_words,
    count_suspicious_symbols,
    extract_urls,
    parse_url,
)


class TestParseUrl:
    def test_basic_https(self):
        url = parse_url("https://mysite.weebly.com/login")
        assert url.scheme == "https"
        assert url.host == "mysite.weebly.com"
        assert url.path == "/login"
        assert url.query == ""

    def test_defaults_root_path(self):
        assert parse_url("http://example.com").path == "/"

    def test_query_parsing(self):
        url = parse_url("https://a.example.com/p?x=1&y=2")
        assert url.query == "x=1&y=2"
        assert url.path == "/p"

    def test_query_without_path(self):
        url = parse_url("https://example.com?token=abc")
        assert url.path == "/"
        assert url.query == "token=abc"

    def test_fragment_stripped(self):
        assert parse_url("https://example.com/page#frag").path == "/page"

    def test_host_lowercased(self):
        assert parse_url("https://MySite.WEEBLY.com/").host == "mysite.weebly.com"

    def test_port_stripped(self):
        assert parse_url("https://example.com:8443/x").host == "example.com"

    def test_deceptive_userinfo_stripped(self):
        url = parse_url("https://paypal.com@evil.example.com/")
        assert url.host == "evil.example.com"

    @pytest.mark.parametrize("bad", [
        "", "not a url", "ftp://example.com/", "https://", "https://nohost",
        "https://bad_label.com/", "https://.leading.dot/",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(URLError):
            parse_url(bad)

    def test_str_roundtrip(self):
        text = "https://mysite.weebly.com/login?x=1"
        assert str(parse_url(text)) == text


class TestUrlStructure:
    def test_second_level_domain_identifies_fwb(self):
        url = parse_url("https://mywebsite.000webhostapp.com/")
        assert url.second_level_domain == "000webhostapp"
        assert url.registered_domain == "000webhostapp.com"
        assert url.subdomain == "mywebsite"

    def test_multi_label_suffix(self):
        url = parse_url("https://shop.example.co.uk/")
        assert url.tld == "co.uk"
        assert url.registered_domain == "example.co.uk"
        assert url.subdomain == "shop"

    def test_no_subdomain(self):
        url = parse_url("https://example.com/")
        assert not url.has_subdomain
        assert url.subdomain == ""

    def test_depth(self):
        assert parse_url("https://a.com/x/y/z").depth == 3
        assert parse_url("https://a.com/").depth == 0

    def test_bare_suffix_rejected(self):
        with pytest.raises(URLError):
            _ = parse_url("https://co.uk/").registered_domain

    def test_with_path_and_root(self):
        url = parse_url("https://a.example.com/deep/page?q=1")
        assert str(url.root()) == "https://a.example.com/"
        assert url.with_path("/other").path == "/other"


class TestRenderedMemo:
    """``str(url)`` is formatted once per object and kept on it."""

    TEXTS = ("https://a.weebly.com/login", "https://a.weebly.com/login?next=%2F")

    def test_memo_does_not_enter_equality_or_hash(self):
        rendered = URL("https", "a.weebly.com", "/login")
        fresh = URL("https", "a.weebly.com", "/login")
        assert str(rendered) == "https://a.weebly.com/login"
        assert "_text" in vars(rendered) and "_text" not in vars(fresh)
        assert rendered == fresh and fresh == rendered
        assert hash(rendered) == hash(fresh)
        assert len({rendered, fresh}) == 1

    @pytest.mark.parametrize("text", TEXTS)
    @pytest.mark.parametrize("rendered_first", [False, True])
    def test_str_survives_copy_and_pickle(self, text, rendered_first):
        url = parse_url(text)
        if rendered_first:
            assert str(url) == text
        for twin in (copy.copy(url), copy.deepcopy(url),
                     pickle.loads(pickle.dumps(url))):
            assert twin == url and hash(twin) == hash(url)
            assert str(twin) == text
        assert str(url) == text

    @pytest.mark.parametrize("text", TEXTS)
    def test_derived_urls_render_themselves(self, text):
        url = parse_url(text)
        assert str(url) == text  # memoize on the source first
        query = text.partition("?")[2]
        assert str(url.with_path("/other")) == (
            "https://a.weebly.com/other" + (f"?{query}" if query else "")
        )
        assert str(url.root()) == "https://a.weebly.com/"
        assert str(url) == text


class TestExtraction:
    def test_extracts_urls_from_post_text(self):
        urls = extract_urls(
            "check this https://scam.weebly.com/login and http://x.example.org!"
        )
        assert [u.host for u in urls] == ["scam.weebly.com", "x.example.org"]

    def test_trailing_punctuation_stripped(self):
        (url,) = extract_urls("go to https://a.example.com/page.")
        assert url.path == "/page"

    def test_no_urls(self):
        assert extract_urls("nothing to see here") == []
        assert extract_urls("") == []


class TestLexicalFeatures:
    def test_sensitive_words_counted(self):
        url = parse_url("https://paypal-login-verify.weebly.com/account")
        assert count_sensitive_words(url) >= 3  # login, verify, account

    def test_suspicious_symbols(self):
        url = parse_url("https://a-b.example.com/x_y?t=%20")
        assert count_suspicious_symbols(url) >= 3

    def test_stats_snapshot(self):
        stats = URLStringStats.of(parse_url("https://ab1.example.com/p?x=1"))
        assert stats.length == len("https://ab1.example.com/p?x=1")
        assert stats.n_digits == 2
        assert stats.has_query
        assert stats.subdomain_labels == 1
