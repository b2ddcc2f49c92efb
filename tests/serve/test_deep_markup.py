"""Hostile attacker markup must not take down a batch.

Tree walks used to recurse once per nesting level, so a single page of a
few thousand nested ``<div>``s raised ``RecursionError`` out of the
preprocessor and lost every other request queued in the same batch. A
marked section with an unknown keyword (``<![invalid]>``) made
``html.parser`` itself raise, with the same effect.
"""

import pytest

from repro.core.preprocess import Preprocessor
from repro.serve.service import ServedFrom, VerdictService

DEPTH = 5000


def _deep_markup(depth: int) -> str:
    return (
        "<html><head><title>Verify account</title></head><body>"
        + "<div>" * depth
        + '<a href="https://collector.example.net/login">Sign in</a>'
        + "<input type='password' name='pass'>"
        + "</div>" * depth
        + "</body></html>"
    )


_MARKED_SECTION_MARKUP = (
    "<html><head><title>Verify account</title></head><body>"
    "<p>a<![invalid]>b</p>"
    "<form><input type='password' name='pass'></form>"
    "</body></html>"
)


@pytest.fixture()
def urls(web, benign_generator, rng):
    attacker = web.fwb_providers["weebly"].create_site("deep-nest", "u", 0)
    attacker.add_page("/", _deep_markup(DEPTH))
    benign = benign_generator.create_fwb_site(web.fwb_providers["wix"], 0, rng)
    return attacker.root_url, benign.root_url


def test_preprocess_batch_keeps_every_page(web, urls):
    report = Preprocessor(web).process_batch_report(list(urls), now=0)
    assert report.skipped == []
    assert [page.url for page in report.pages] == list(urls)
    deep = report.pages[0].features.values
    assert deep["n_external_links"] == 1.0
    assert deep["n_password_fields"] == 1.0


@pytest.fixture()
def marked_urls(web, benign_generator, rng):
    attacker = web.fwb_providers["weebly"].create_site("marked-section", "u", 0)
    attacker.add_page("/", _MARKED_SECTION_MARKUP)
    benign = benign_generator.create_fwb_site(web.fwb_providers["wix"], 0, rng)
    return attacker.root_url, benign.root_url


def test_preprocess_batch_survives_unknown_marked_section(web, marked_urls):
    pre = Preprocessor(web)
    report = pre.process_batch_report(list(marked_urls), now=0)
    assert report.skipped == []
    assert [page.url for page in report.pages] == list(marked_urls)
    snapshot = pre.snapshot(marked_urls[0], now=5)
    # The section adds no element and no text; parsing carries on after it.
    assert snapshot.document.title == "Verify account"
    assert [p.text_content() for p in snapshot.document.find_all("p")] == ["ab"]
    assert len(snapshot.document.password_inputs()) == 1


def test_serve_drain_survives_unknown_marked_section(web, trained_classifier,
                                                     marked_urls):
    service = VerdictService(web, trained_classifier)
    assert all(service.submit(url, now=0) is None for url in marked_urls)
    served = service.drain(now=0)
    assert sorted(str(v.url) for v in served) == sorted(str(u) for u in marked_urls)
    assert all(v.served_from is ServedFrom.MODEL for v in served)


def test_serve_drain_delivers_both_verdicts(web, trained_classifier, urls):
    service = VerdictService(web, trained_classifier)
    assert all(service.submit(url, now=0) is None for url in urls)
    served = service.drain(now=0)
    assert sorted(str(v.url) for v in served) == sorted(str(u) for u in urls)
    assert all(v.served_from is ServedFrom.MODEL for v in served)
