"""Browser fetch/snapshot behaviour and the search index policy."""

import pytest

from repro.errors import SiteRemovedError
from repro.simnet import Browser, Web
from repro.simnet.browser import follow_workflow
from repro.simnet.hosting import FileAsset
from repro.simnet.url import parse_url

PAGE = """<html><head><title>Hello</title></head>
<body><a class="btn" href="https://target.example.xyz/">Continue</a>
<iframe src="https://framed.example.xyz/inner"></iframe>
<a href="/file.zip" download>Get</a></body></html>"""

NOINDEX_PAGE = (
    '<html><head><meta name="robots" content="noindex"><title>H</title>'
    "</head><body>hi</body></html>"
)


@pytest.fixture()
def web():
    return Web()


@pytest.fixture()
def browser(web):
    return Browser(web)


def _make_site(web, name="page", fwb="weebly", markup=PAGE):
    site = web.fwb_providers[fwb].create_site(name, owner="u", now=0)
    site.add_page("/", markup)
    return site


class TestFetch:
    def test_fetch_ok(self, web, browser):
        site = _make_site(web)
        result = browser.fetch(site.root_url, now=10)
        assert result.ok and "Hello" in result.markup
        assert result.certificate is not None

    def test_fetch_unknown_host_404(self, browser):
        assert browser.fetch(parse_url("https://ghost.example.org/"), 0).status == 404

    def test_fetch_missing_page_404(self, web, browser):
        site = _make_site(web)
        result = browser.fetch(site.root_url.with_path("/nope"), 10)
        assert result.status == 404

    def test_fetch_removed_site_410(self, web, browser):
        site = _make_site(web)
        web.take_down(site.root_url, now=5)
        assert browser.fetch(site.root_url, now=10).status == 410

    def test_fetch_download(self, web, browser):
        site = _make_site(web)
        site.add_file("/file.zip", FileAsset("file.zip", malicious=True, vt_detections=8))
        result = browser.fetch(site.root_url.with_path("/file.zip"), 10)
        assert result.ok and result.download is not None
        assert result.download.vt_detections == 8


class TestSnapshot:
    def test_snapshot_contents(self, web, browser):
        site = _make_site(web)
        site.add_file("/file.zip", FileAsset("file.zip", malicious=True, vt_detections=8))
        # Create the framed external site so the iframe resolves.
        framed = web.self_hosting.create_site("framed.example.xyz", owner="a", now=0)
        framed.add_page("/inner", "<html><body><input type=password></body></html>")
        snap = browser.snapshot(site.root_url, now=10)
        assert snap.document.title == "Hello"
        assert len(snap.iframe_contents) == 1
        src, inner_markup = snap.iframe_contents[0]
        assert src.host == "framed.example.xyz"
        assert "password" in inner_markup
        assert [a.filename for a in snap.downloads] == ["file.zip"]
        assert [u.host for u in snap.outbound_links] == ["target.example.xyz"]

    def test_snapshot_of_removed_site_raises(self, web, browser):
        site = _make_site(web)
        web.take_down(site.root_url, now=5)
        with pytest.raises(SiteRemovedError):
            browser.snapshot(site.root_url, now=10)

    def test_unresolvable_iframe_yields_empty_markup(self, web, browser):
        site = _make_site(web)
        snap = browser.snapshot(site.root_url, now=10)
        assert snap.iframe_contents[0][1] == ""

    def test_follow_workflow_traverses_button(self, web, browser):
        site = _make_site(web)
        target = web.self_hosting.create_site("target.example.xyz", owner="a", now=0)
        target.add_page("/", "<html><body><form><input type=password></form></body></html>")
        chain = follow_workflow(browser, site.root_url, now=10)
        assert len(chain) == 2
        assert chain[1].url.host == "target.example.xyz"

    def test_follow_workflow_handles_cycles(self, web, browser):
        a = web.fwb_providers["weebly"].create_site("cyc-a", owner="u", now=0)
        b = web.fwb_providers["wix"].create_site("cyc-b", owner="u", now=0)
        a.add_page("/", '<a class="btn" href="https://cyc-b.wixsite.com/">go</a>')
        b.add_page("/", '<a class="btn" href="https://cyc-a.weebly.com/">back</a>')
        chain = follow_workflow(browser, a.root_url, now=5)
        assert len(chain) == 2  # cycle cut


class TestSearchIndex:
    def test_unlinked_page_not_indexed(self, web):
        url = parse_url("https://lonely.weebly.com/")
        assert not web.search_index.submit(url, "<html><body>x</body></html>", now=0)

    def test_linked_page_indexed(self, web):
        url = parse_url("https://popular.weebly.com/")
        web.search_index.record_incoming_link(url)
        assert web.search_index.submit(url, "<html><title>Pop</title></html>", now=0)
        assert web.search_index.is_indexed(url)

    def test_noindex_refused_even_when_linked(self, web):
        url = parse_url("https://hidden.weebly.com/")
        web.search_index.record_incoming_link(url)
        assert not web.search_index.submit(url, NOINDEX_PAGE, now=0)

    def test_removal(self, web):
        url = parse_url("https://temp.weebly.com/")
        web.search_index.record_incoming_link(url)
        web.search_index.submit(url, "<html><title>T</title></html>", now=0)
        web.search_index.remove(url)
        assert not web.search_index.is_indexed(url)

    def test_search_hosts(self, web):
        url = parse_url("https://paypaul-login.weebly.com/")
        web.search_index.record_incoming_link(url)
        web.search_index.submit(url, "<html><title>x</title></html>", now=0)
        assert "paypaul-login.weebly.com" in web.search_index.search_hosts("paypaul")
