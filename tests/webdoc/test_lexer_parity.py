"""``parse_html`` builds exactly the trees ``html.parser`` builds.

The lexer is only a faster route to :class:`html.parser.HTMLParser`'s
result, so every test compares ``parse_html`` against a parse with the
lexer switched off. The generated corpora must never leave the lexer's
subset (a fallback there costs the speed-up); CPython's own parser test
inputs must leave it at least once (the fallback path is exercised).
There is no runtime fallback counter: these tests pin the fallback rate.
"""

import dataclasses
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simnet import Web
from repro.sitegen import (
    LegitimateSiteGenerator,
    PhishingKitGenerator,
    PhishingSiteGenerator,
)
from repro.sitegen.phishing import PhishingVariant
from repro.webdoc import parser
from repro.webdoc.dom import VOID_TAGS
from repro.webdoc.lexer import OutsideSubset, lex

CPYTHON_CASES = json.loads(
    (Path(__file__).parent / "data" / "cpython_htmlparser_cases.json").read_text(encoding="utf-8")
)["cases"]


def stdlib_parse(markup):
    """``parse_html`` with the lexer refusing everything: HTMLParser alone."""
    with mock.patch.object(parser, "lex", side_effect=OutsideSubset):
        return parser.parse_html(markup)


def lexes(markup) -> bool:
    """Does the lexer, called directly, take ``markup`` without falling back?"""
    try:
        lex(markup, parser._DomBuilder())
    except OutsideSubset:
        return False
    return True


def _outcome(parse, markup):
    # Some malformed declarations make HTMLParser itself raise (an
    # AssertionError, or NotImplementedError on 3.9); the lexer must then
    # fall back and raise the same way.
    try:
        return parse(markup)
    except (AssertionError, NotImplementedError) as error:
        return ("raised", type(error), str(error))


def assert_parity(markups):
    for markup in markups:
        assert _outcome(parser.parse_html, markup) == _outcome(stdlib_parse, markup), markup


# -- generated corpora ------------------------------------------------------------


def _ground_truth_markups(ground_truth):
    markups = []
    for page in ground_truth.pages:
        markups.append(page.snapshot.markup)
        markups.extend(markup for _src, markup in page.snapshot.iframe_contents if markup)
    return markups


@pytest.fixture(scope="module")
def catalogue_markups():
    """Every page of a catalogue spanning all FWB services and variants."""
    web = Web()
    rng = np.random.default_rng(11)
    phish_gen, benign_gen, kit_gen = (
        PhishingSiteGenerator(), LegitimateSiteGenerator(), PhishingKitGenerator()
    )
    sites = []
    for provider in web.fwb_providers.values():
        for variant in PhishingVariant:
            for language, style in (("en", "inline"), ("es", "stylesheet"), ("zh", "inline")):
                target = kit_gen.create_site(web.self_hosting, now=0, rng=rng)
                spec = dataclasses.replace(
                    phish_gen.sample_spec(provider.service, rng, variant=variant),
                    language=language,
                    noindex=language != "zh",
                    obfuscate_banner=provider.service.has_banner,
                    obfuscation_style=style,
                    cloaked=variant is PhishingVariant.CREDENTIAL and language == "es",
                    target_url=str(target.root_url),
                )
                sites += [target, phish_gen.create_site(provider, now=0, rng=rng, spec=spec)]
        sites += [benign_gen.create_fwb_site(provider, now=0, rng=rng) for _ in range(4)]
    sites.append(benign_gen.create_self_hosted_site(web.self_hosting, now=0, rng=rng))
    return [markup for site in sites for markup in site.pages.values()]


def test_ground_truth_corpus_parity(ground_truth):
    markups = _ground_truth_markups(ground_truth)
    assert len(markups) > len(ground_truth.pages)  # iframe markup included
    assert_parity(markups)


def test_catalogue_parity(catalogue_markups):
    assert len(catalogue_markups) > 17 * len(PhishingVariant) * 3
    assert_parity(catalogue_markups)


def test_generated_pages_never_fall_back(ground_truth, catalogue_markups):
    fallbacks = [
        markup for markup in _ground_truth_markups(ground_truth) + catalogue_markups
        if not lexes(markup)
    ]
    assert fallbacks == []


# -- CPython's own parser test inputs ---------------------------------------------

#: Each input also goes inside every element whose content some parser
#: version reads as raw or escapable text.
_WRAPPERS = ("{}", "<body>{}</body>") + tuple(
    f"<{tag}>{{}}</{tag}>" for tag in ("script", "style", "title", "textarea", "iframe", "xmp")
)


def test_cpython_cases_parity():
    assert len(CPYTHON_CASES) > 100
    assert_parity(wrapper.format(case) for case in CPYTHON_CASES for wrapper in _WRAPPERS)


def test_cpython_cases_exercise_both_paths():
    lexed = [case for case in CPYTHON_CASES if lexes(case)]
    assert 0 < len(lexed) < len(CPYTHON_CASES)


# -- fuzz -------------------------------------------------------------------------

_NAMES = st.sampled_from(["div", "p", "a", "li", "ul", "span", "html", "body", "head",
                          "noindex", "br", "input", "DIV", "Form", "x-widget", "td", "tr"])
_ATTR_NAMES = st.sampled_from(["href", "class", "ID", "type", "data-x", "required", ":v", "a.b"])


def _strings(pieces, max_size=6):
    return st.lists(st.sampled_from(pieces), max_size=max_size).map("".join)


_SAFE_TEXT = _strings(list("ab &;#x3c<>\"'=/\n\t\x00é") + ["&amp;", "&lt", "&#60;"])


@st.composite
def _start_tags(draw):
    attrs = "".join(
        " " + draw(_ATTR_NAMES)
        + draw(st.sampled_from(["", '="{}"', "='{}'", "={}", ' = "{}"'])).format(
            draw(_SAFE_TEXT).replace('"', "").replace("'", "")
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    return "<{}{}{}>".format(draw(_NAMES), attrs, draw(st.sampled_from(["", " ", "/", " /"])))


_PIECES = st.one_of(
    _start_tags(),
    _NAMES.map("</{}>".format),
    _SAFE_TEXT,
    st.sampled_from([
        "<script>", "</script>", "<style>", "</style>", "<title>", "</title>",
        "<textarea>", "</textarea>", "<iframe>", "</iframe>", "<noscript>",
        "</noscript>", "<plaintext>", "<!DOCTYPE html>", "<!doctype html public>",
        "<!-- c -->", "<!---->", "<![CDATA[x]]>", "<?pi>", "</ div>", "</p x>",
        "</>", "<", "&", "<p", "</SCRIPT>", "<script/>", "<br/>",
    ]),
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_PIECES, max_size=14).map("".join))
def test_fuzzed_markup_parity(markup):
    assert_parity([markup])


@st.composite
def _subset_markup(draw):
    """Markup built only from constructs inside the lexer's subset."""
    text = _strings(list("ab &;>\n") + ["&amp;", "&#x41;", "é"])
    pieces = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["start", "end", "text", "raw"]))
        name = draw(_NAMES)
        if kind == "start":
            attrs = "".join(
                " " + draw(_ATTR_NAMES) + draw(st.sampled_from(["", '="{}"'])).format(draw(text))
                for _ in range(draw(st.integers(0, 3)))
            )
            closers = ["", " ", "/", " /"] if name.lower() in VOID_TAGS else ["", " "]
            pieces.append(f"<{name}{attrs}{draw(st.sampled_from(closers))}>")
        elif kind == "end":
            pieces.append(f"</{name.lower()}>")
        elif kind == "text":
            pieces.append(draw(text))
        else:
            tag = draw(st.sampled_from(["script", "style", "title", "textarea"]))
            pieces.append(f"<{tag}>{draw(text)}</{tag}>")
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(_subset_markup())
def test_subset_markup_lexes_with_parity(markup):
    assert lexes(markup)
    assert parser.parse_html(markup) == stdlib_parse(markup)
