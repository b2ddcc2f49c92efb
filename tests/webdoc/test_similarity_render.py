"""Levenshtein/Appendix-A similarity and visual-signature rendering."""

import pytest

from repro.webdoc import (
    levenshtein,
    levenshtein_ratio,
    parse_html,
    render_signature,
    tag_sequence,
    website_similarity,
)
from repro.webdoc.render import SIGNATURE_DIM, region_signatures
from repro.webdoc.similarity import median_pairwise_similarity


class TestLevenshtein:
    @pytest.mark.parametrize("a,b,expected", [
        ("kitten", "sitting", 3),
        ("", "", 0),
        ("abc", "", 3),
        ("", "xyz", 3),
        ("same", "same", 0),
        ("abc", "acb", 2),
        ("flaw", "lawn", 2),
    ])
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_symmetry(self):
        assert levenshtein("abcdef", "azced") == levenshtein("azced", "abcdef")

    def test_ratio_bounds(self):
        assert levenshtein_ratio("", "") == 1.0
        assert levenshtein_ratio("abc", "abc") == 1.0
        assert levenshtein_ratio("abc", "xyz") == 0.0


class TestWebsiteSimilarity:
    def test_identical_pages(self):
        markup = "<html><body><div class='a'>x</div></body></html>"
        assert website_similarity(markup, markup) == pytest.approx(1.0)

    def test_symmetric(self):
        a = "<html><body><div class='a'>one</div><p>text</p></body></html>"
        b = "<html><body><span id='z'>different</span></body></html>"
        assert website_similarity(a, b) == pytest.approx(website_similarity(b, a))

    def test_templated_pages_more_similar_than_unrelated(self):
        shell = (
            "<html><head><style>.wrap{{margin:0}}</style></head>"
            "<body><div class='wrap'><div class='col'>{content}</div></div></body></html>"
        )
        a = shell.format(content="<h1>Bakery</h1><p>We bake bread.</p>")
        b = shell.format(content="<h1>Sign In</h1><form><input type='password'></form>")
        unrelated = "<html><body><table><tr><td>totally</td></tr></table></body></html>"
        assert website_similarity(a, b) > website_similarity(a, unrelated)

    def test_tag_sequence_covers_all_elements(self):
        doc = parse_html("<body><div><p>x</p></div></body>")
        tags = tag_sequence(doc)
        assert any(t.startswith("<div") for t in tags)
        assert any(t.startswith("<p") for t in tags)

    def test_median_pairwise(self, rng):
        group = ["<html><body><p>a</p></body></html>"] * 3
        value = median_pairwise_similarity(group, group, rng, max_pairs=5)
        assert value == pytest.approx(1.0)
        assert median_pairwise_similarity([], group, rng) == 0.0


class TestVisualSignature:
    def test_dimension(self):
        sig = render_signature("<html><body><p>x</p></body></html>")
        assert sig.vector.shape == (SIGNATURE_DIM,)

    def test_identical_pages_zero_distance(self):
        markup = "<html><head><title>T</title></head><body><form><input type='password'></form></body></html>"
        a, b = render_signature(markup), render_signature(markup)
        assert a.distance(b) == 0.0
        assert a.similarity(b) == 1.0

    def test_same_brand_pages_closer_than_different_layouts(self):
        login_a = (
            "<html><head><title>Acme - Sign In</title></head><body>"
            "<h1>Acme</h1><form><input type='email'><input type='password'>"
            "<button>Sign In</button></form></body></html>"
        )
        login_b = login_a.replace("Acme", "Acme Corp")
        blog = (
            "<html><head><title>My travel blog</title></head><body>"
            "<p>a</p><p>b</p><p>c</p><p>d</p><ul><li>x</li><li>y</li></ul>"
            "</body></html>"
        )
        a, b, c = map(render_signature, (login_a, login_b, blog))
        assert a.distance(b) < a.distance(c)

    def test_region_signatures_nonempty_for_structured_page(self):
        markup = (
            "<html><body><div><h1>t</h1><p>x</p></div>"
            "<div><form><input><input></form><p>y</p></div></body></html>"
        )
        regions = region_signatures(markup, max_regions=8)
        assert 1 <= len(regions) <= 8
        assert all(r.vector.shape == (SIGNATURE_DIM,) for r in regions)

    def test_region_cap_respected(self):
        markup = "<html><body>" + "<div><p>a</p><p>b</p></div>" * 50 + "</body></html>"
        assert len(region_signatures(markup, max_regions=10)) == 10
