"""The indexed DOM answers every query exactly as a fresh recursive walk.

``Document`` walks its tree once and filters the memoized pre-order tuple
for every query, and ``FeatureExtractor`` featurizes a page through those
queries. The reference below is the recursive walk the library
used before; each test asserts identical element order, query results and
feature values against it.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.webdoc.render as render_module
from repro.core.features import BASE_FEATURE_NAMES, FWB_FEATURE_NAMES, FeatureExtractor
from repro.simnet import Browser, Web
from repro.simnet.url import parse_url
from repro.sitegen import (
    LegitimateSiteGenerator,
    PhishingKitGenerator,
    PhishingSiteGenerator,
)
from repro.sitegen.phishing import PhishingMixture, PhishingVariant
from repro.webdoc import Document, Element, TextNode, parse_html
from repro.webdoc.dom import (
    VOID_TAGS,
    is_credential_input,
    is_download_link,
    is_password_input,
)

# -- the recursive reference ---------------------------------------------------


def ref_iter(element):
    yield element
    for child in element.children:
        if isinstance(child, Element):
            yield from ref_iter(child)


def ref_find_all(root, tag=None, predicate=None):
    return [
        element for element in ref_iter(root)
        if (tag is None or element.tag == tag)
        and (predicate is None or predicate(element))
    ]


def ref_text_content(node):
    if isinstance(node, TextNode):
        return node.text
    return "".join(ref_text_content(child) for child in node.children)


def ref_to_html(node):
    if isinstance(node, TextNode):
        return node.text
    attrs = "".join(
        f' {name}="{value}"' if value != "" else f" {name}"
        for name, value in node.attrs.items()
    )
    if node.tag in VOID_TAGS:
        return f"<{node.tag}{attrs}>"
    inner = "".join(ref_to_html(child) for child in node.children)
    return f"<{node.tag}{attrs}>{inner}</{node.tag}>"


_REF_HIDDEN_RULE = re.compile(
    r"([.#][\w-]+)\s*\{[^}]*(?:display\s*:\s*none|"
    r"visibility\s*:\s*hidden)[^}]*\}",
    re.IGNORECASE,
)


def ref_hidden_selectors(root):
    return [
        match.group(1)[1:]
        for style in ref_find_all(root, "style")
        for match in _REF_HIDDEN_RULE.finditer(ref_text_content(style))
    ]


def ref_is_element_hidden(root, element):
    selectors = ref_hidden_selectors(root)
    return element.is_hidden() or bool(
        set(element.classes) & set(selectors)
        or (element.id and element.id in selectors)
    )


def ref_has_noindex(root):
    for meta in ref_find_all(root, "meta"):
        if meta.get("name").lower() in ("robots", "googlebot") and (
            "noindex" in meta.get("content").lower()
        ):
            return True
    return bool(ref_find_all(root, "noindex"))


def ref_title(root):
    titles = ref_find_all(root, "title")
    return ref_text_content(titles[0]).strip() if titles else ""


_BANNER_HINTS = (
    "powered by", "create your own", "create a free website", "made with",
    "report abuse", "blog at", "free website",
)


def ref_html_features(extractor, url, root, markup):
    """The per-feature query version of the HTML featurizer."""
    internal = external = empty = 0
    for anchor in ref_find_all(root, "a"):
        href = anchor.get("href").strip()
        if not href or href in ("#", "javascript:void(0)"):
            empty += 1
        elif href.startswith(("http://", "https://")):
            target_host = href.split("//", 1)[1].split("/", 1)[0].lower()
            if target_host.endswith(url.registered_domain):
                internal += 1
            else:
                external += 1
        else:
            internal += 1
    forms = ref_find_all(root, "form")
    password_fields = ref_find_all(root, "input", is_password_input)
    credential_inputs = ref_find_all(root, "input", is_credential_input)
    has_login_form = external_action = 0.0
    for form in forms:
        types = {i.get("type").lower() for i in ref_find_all(form, "input")}
        if "password" in types or len(credential_inputs) >= 2:
            has_login_form = 1.0
        action = form.get("action").strip()
        if action.startswith(("http://", "https://")) and url.host not in action:
            external_action = 1.0
    mismatch = 0.0
    brand_hit = extractor._brand_token_in(ref_title(root).lower())
    if brand_hit is not None and brand_hit[1].split(".")[0] not in url.registered_domain:
        mismatch = 1.0

    def looks_like_banner(element):
        if "fwb-banner" in element.classes or element.id == "fwb-banner":
            return True
        if element.tag in ("div", "footer"):
            text = ref_text_content(element).lower()
            return any(hint in text for hint in _BANNER_HINTS)
        return False

    obfuscated = any(
        ref_is_element_hidden(root, banner)
        for banner in ref_find_all(root, predicate=looks_like_banner)
    )
    return {
        "n_internal_links": float(internal),
        "n_external_links": float(external),
        "n_empty_links": float(empty),
        "has_login_form": has_login_form,
        "n_password_fields": float(len(password_fields)),
        "n_credential_inputs": float(len(credential_inputs)),
        "html_length": float(len(markup)),
        "n_iframes": float(len(ref_find_all(root, "iframe"))),
        "n_forms": float(len(forms)),
        "n_images": float(len(ref_find_all(root, "img"))),
        "external_form_action": external_action,
        "title_brand_mismatch": mismatch,
        "obfuscated_fwb_banner": 1.0 if obfuscated else 0.0,
        "has_noindex": 1.0 if ref_has_noindex(root) else 0.0,
    }


# -- assertions ----------------------------------------------------------------


def _ids(elements):
    return [id(element) for element in elements]


def assert_queries_match(document):
    root = document.root
    assert _ids(document.elements) == _ids(ref_iter(root))
    assert _ids(root.iter()) == _ids(ref_iter(root))
    assert _ids(document.find_all()) == _ids(ref_iter(root))
    for tag in {element.tag for element in document.elements} | {"a", "noindex"}:
        expected = ref_find_all(root, tag)
        assert _ids(document.find_all(tag)) == _ids(expected)
        assert _ids(root.find_all(tag)) == _ids(expected)
        found = document.find(tag)
        assert found is (expected[0] if expected else None)
    queries = {
        "links": ("a", None),
        "forms": ("form", None),
        "inputs": ("input", None),
        "iframes": ("iframe", None),
        "meta_tags": ("meta", None),
        "password_inputs": ("input", is_password_input),
        "credential_inputs": ("input", is_credential_input),
        "download_links": ("a", is_download_link),
    }
    for name, (tag, predicate) in queries.items():
        assert _ids(getattr(document, name)()) == _ids(ref_find_all(root, tag, predicate)), name
    assert document.title == ref_title(root)
    assert document.stylesheet_hidden_selectors() == ref_hidden_selectors(root)
    assert document.has_noindex() == ref_has_noindex(root)
    ref_hidden = [e for e in ref_iter(root) if ref_is_element_hidden(root, e)]
    assert _ids(document.hidden_elements()) == _ids(ref_hidden)
    assert document.has_hidden_elements() == bool(ref_hidden)
    for element in document.elements:
        assert element.text_content() == ref_text_content(element)
        assert document.is_element_hidden(element) == ref_is_element_hidden(root, element)
    assert document.text_content() == ref_text_content(root)
    assert document.to_html() == "<!DOCTYPE html>" + ref_to_html(root)


def assert_features_match(extractor, url, page, document, markup):
    features = extractor.extract(url, page)
    expected = extractor._url_features(url)
    expected.update(ref_html_features(extractor, url, document.root, markup))
    assert features.values == expected
    for names in (BASE_FEATURE_NAMES, FWB_FEATURE_NAMES):
        assert np.array_equal(
            features.vector(names), np.asarray([expected[name] for name in names])
        )


# -- corpora -------------------------------------------------------------------


def test_ground_truth_corpus_matches_reference(ground_truth):
    extractor = FeatureExtractor()
    for page in ground_truth.pages:
        snapshot = page.snapshot
        assert_queries_match(snapshot.document)
        assert_features_match(
            extractor, page.url, snapshot, snapshot.document, snapshot.markup
        )
        assert page.features.values == extractor.extract(page.url, snapshot).values


def _fwb_catalogue(web, rng):
    """Every FWB service, every phishing variant, both banner hiding styles,
    plus benign customer sites."""
    phish_gen = PhishingSiteGenerator(
        mixture=PhishingMixture(banner_obfuscation_rate=0.8)
    )
    benign_gen = LegitimateSiteGenerator()
    kit_gen = PhishingKitGenerator()
    urls = []
    for provider in web.fwb_providers.values():
        for variant in PhishingVariant:
            spec = phish_gen.sample_spec(provider.service, rng, variant=variant)
            if variant in (PhishingVariant.TWO_STEP, PhishingVariant.IFRAME):
                target = kit_gen.create_site(web.self_hosting, 0, rng, brand=spec.brand)
                spec.target_url = str(target.root_url)
                urls.append(target.root_url)
            urls.append(phish_gen.create_site(provider, 0, rng, spec=spec).root_url)
        urls.append(benign_gen.create_fwb_site(provider, 0, rng).root_url)
    return urls


def test_fwb_catalogue_matches_reference():
    web = Web()
    browser = Browser(web)
    extractor = FeatureExtractor()
    urls = _fwb_catalogue(web, np.random.default_rng(11))
    assert len(urls) > 100
    obfuscated = 0
    for url in urls:
        snapshot = browser.snapshot(url, 0)
        assert_queries_match(snapshot.document)
        assert_features_match(extractor, url, snapshot, snapshot.document, snapshot.markup)
        # Raw markup goes through parse_html inside extract().
        assert_features_match(
            extractor, url, snapshot.markup, parse_html(snapshot.markup), snapshot.markup
        )
        obfuscated += extractor.extract(url, snapshot).values["obfuscated_fwb_banner"]
    assert obfuscated > 0


# -- random trees ----------------------------------------------------------------

_TAGS = ("div", "footer", "span", "a", "input", "form", "iframe", "img",
         "title", "meta", "noindex", "style", "br", "p")
_ATTR_NAMES = ("class", "id", "style", "hidden", "type", "name", "placeholder",
               "href", "download", "action", "content", "src")
_ATTR_VALUES = ("", "fwb-banner", "x fwb-banner", "visibility:hidden",
                "display: none", "color:red", "password", "email", "robots",
                "noindex, nofollow", "https://evil.example.net/p", "/local",
                "#", "setup.exe", "username", "secret")
_TEXTS = ("Powered by Weebly", "made ", "with love", "hello", " ",
          ".fwb-banner{display:none}", "#secret { visibility: hidden }",
          "Acme Sign In", "create your own")

_attrs = st.dictionaries(
    st.sampled_from(_ATTR_NAMES), st.sampled_from(_ATTR_VALUES), max_size=3
)
_text = st.builds(TextNode, st.sampled_from(_TEXTS))
_tree = st.recursive(
    st.one_of(_text, st.builds(Element, st.sampled_from(_TAGS), _attrs)),
    lambda children: st.builds(
        Element, st.sampled_from(_TAGS), _attrs, st.lists(children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_tree, max_size=4))
def test_random_trees_match_reference(children):
    document = Document(root=Element("html", {}, list(children)))
    assert_queries_match(document)
    url = parse_url("https://acme-login.weebly.com/account")
    markup = document.to_html()
    assert_features_match(FeatureExtractor(), url, document, document, markup)


# -- subtree documents -------------------------------------------------------------


def test_region_documents_index_only_their_subtree(ground_truth, monkeypatch):
    rendered = []
    original = render_module.render_signature

    def capture(document):
        rendered.append(document)
        return original(document)

    monkeypatch.setattr(render_module, "render_signature", capture)
    page = ground_truth.pages[0].snapshot.document
    signatures = render_module.region_signatures(page)
    assert len(rendered) == len(signatures) > 1
    page_ids = _ids(page.elements)
    for region in rendered:
        assert region is not page
        assert _ids(region.elements) == _ids(ref_iter(region.root))
        start = page_ids.index(id(region.root))
        assert page_ids[start:start + len(region.elements)] == _ids(region.elements)
    assert any(len(region.elements) < len(page.elements) for region in rendered)


# -- deep nesting -------------------------------------------------------------------


@pytest.mark.parametrize("depth", [1200, 5000])
def test_deep_nesting_walks_without_recursion(depth):
    markup = "<div>" * depth + '<a href="/x">deep</a>' + "</div>" * depth
    document = parse_html(markup)
    assert len(document.links()) == 1
    assert len(document.find_all("div")) == depth
    assert document.text_content() == "deep"
    assert document.root.text_content() == "deep"
    html = document.to_html()
    assert html.count("<div>") == depth and html.count("</div>") == depth
    assert len(parse_html(html).find_all("div")) == depth


def test_banner_text_memory_stays_bounded():
    # Every level holds two children (text and a <div>), so each level's
    # text is a fresh string; only the hidden <div>'s text may be built.
    depth, size = 200, 100_000
    markup = (
        "<html><body><div hidden>" + "<div>x" * depth
        + "Powered by " + "y" * size + "</div>" * depth + "</div></body></html>"
    )
    url = parse_url("https://acme-login.weebly.com/")
    extractor = FeatureExtractor()
    tracemalloc.start()
    try:
        features = extractor.extract(url, markup)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert features.values["obfuscated_fwb_banner"] == 1.0
    assert peak < 10 * size
