"""Simulated browser: fetch, render, follow redirects, resolve iframes.

The pre-processing module (paper §4.1) stores a "full snapshot" of each
website — screenshot plus source code. :meth:`Browser.snapshot` reproduces
that: it fetches the page, reads its :class:`~repro.webdoc.PageFacts`,
collects iframe sources and their (client-side rendered) contents, and
records any file downloads the page triggers. The parsed tree and the
rendered visual signature are built only when a visual baseline asks.

The iframe point matters for §5.5: scanners that look only at the fetched
markup never see the phishing content inside an embedded iframe, because it
is rendered client-side. The snapshot therefore keeps iframe contents
*separate* from the top-level markup, and detection engines differ in
whether they look inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple

from ..errors import FetchError, SiteRemovedError, URLError
from ..webdoc import (
    Document, PageFacts, VisualSignature, page_facts, parse_html, render_signature,
)
from .hosting import FileAsset
from .tls import Certificate
from .url import URL, parse_url
from .web import Web

#: Maximum redirect / link hops the browser will follow.
MAX_HOPS = 5


@dataclass
class FetchResult:
    """Outcome of fetching one URL."""

    url: URL
    status: int
    markup: str = ""
    download: Optional[FileAsset] = None
    certificate: Optional[Certificate] = None

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass
class PageSnapshot:
    """Full snapshot of a page, as stored by the pre-processing module."""

    url: URL
    fetched_at: int
    markup: str
    #: What the page readers use, read once per page version.
    facts: PageFacts
    certificate: Optional[Certificate]
    #: (iframe src URL, markup of the framed page) for same-session resolvable
    #: frames; unresolvable/external-dead frames carry empty markup.
    iframe_contents: List[Tuple[URL, str]] = field(default_factory=list)
    #: Files the page offers for download.
    downloads: List[FileAsset] = field(default_factory=list)
    #: External link-out targets (the §5.5 two-step vector).
    outbound_links: List[URL] = field(default_factory=list)
    #: Lazily parsed document (see the ``document`` property).
    _document: Optional[Document] = field(default=None, repr=False, compare=False)
    #: Lazily rendered visual signature (see the ``signature`` property).
    _signature: Optional[VisualSignature] = field(
        default=None, repr=False, compare=False
    )

    @property
    def document(self) -> Document:
        """The parsed :class:`~repro.webdoc.Document` of ``markup``.

        Parsed on first access and memoized: only the visual baselines read
        the tree, so neither the page store nor the classifier hot path
        keeps one.
        """
        if self._document is None:
            self._document = parse_html(self.markup)
        return self._document

    @property
    def signature(self) -> VisualSignature:
        """The rendered :class:`~repro.webdoc.VisualSignature`.

        Rendered on first access and memoized: only the visual baselines
        (VisualPhishNet, PhishIntention) consume it, so the classifier hot
        path never pays the rendering cost.
        """
        if self._signature is None:
            self._signature = render_signature(self.document)
        return self._signature


class PageSource(Protocol):
    """Turns ``(url, now)`` into a :class:`PageSnapshot`: a
    :class:`Browser`, or the ``Preprocessor`` page store."""

    def snapshot(self, url: URL, now: int) -> PageSnapshot:
        """Raises :class:`~repro.errors.FetchError` if unreachable."""


class Browser:
    """A headless browser over the simulated :class:`Web`."""

    def __init__(self, web: Web) -> None:
        self.web = web

    # -- fetching ----------------------------------------------------------------

    def fetch(self, url: URL, now: int) -> FetchResult:
        """Fetch a URL. 404s and removed sites yield non-200 statuses."""
        site = self.web.site_for(url)
        if site is None:
            return FetchResult(url=url, status=404)
        if not site.is_active(now):
            return FetchResult(url=url, status=410)
        certificate = None
        if url.scheme == "https":
            certificate = self.web.ca.certificate_for(url)
        download = site.file_for(url)
        if download is not None:
            return FetchResult(url=url, status=200, download=download,
                               certificate=certificate)
        markup = site.page_for(url)
        if markup is None:
            return FetchResult(url=url, status=404, certificate=certificate)
        return FetchResult(url=url, status=200, markup=markup,
                           certificate=certificate)

    # -- snapshotting -------------------------------------------------------------

    def snapshot(self, url: URL, now: int) -> PageSnapshot:
        """Take the pre-processing module's full page snapshot.

        Raises :class:`~repro.errors.FetchError` if the page cannot be
        retrieved (the streaming pipeline skips such URLs).
        """
        return self.snapshot_from(self.fetch(url, now), now)

    def snapshot_from(
        self,
        result: FetchResult,
        now: int,
        facts: Optional[PageFacts] = None,
    ) -> PageSnapshot:
        """Complete a snapshot from an already-fetched :class:`FetchResult`.

        The markup is parsed and its facts read unless those ``facts`` are
        passed in; only the facts are kept. The rest is read at ``now`` on
        every call. The simulated web is deterministic at fixed ``now``, so
        the result is identical to :meth:`snapshot`.
        """
        url = result.url
        if not result.ok:
            raise SiteRemovedError(f"cannot snapshot {url} (status {result.status})")
        if facts is None:
            facts = page_facts(parse_html(result.markup), result.markup)
        snapshot = PageSnapshot(
            url=url,
            fetched_at=now,
            markup=result.markup,
            facts=facts,
            certificate=result.certificate,
        )
        if result.download is not None:
            # A bare file URL: an empty page carrying the download.
            snapshot.downloads.append(result.download)
        self._resolve_iframes(snapshot, now)
        self._collect_links(snapshot, now)
        return snapshot

    # -- helpers -----------------------------------------------------------------

    def _resolve_iframes(self, snapshot: PageSnapshot, now: int) -> None:
        for src_attr in snapshot.facts.iframe_srcs:
            src = _absolute(snapshot.url, src_attr)
            if src is None:
                continue
            framed = self.fetch(src, now)
            snapshot.iframe_contents.append(
                (src, framed.markup if framed.ok else "")
            )

    def _collect_links(self, snapshot: PageSnapshot, now: int) -> None:
        for anchor in snapshot.facts.anchors:
            target = _absolute(snapshot.url, anchor.href)
            if target is None:
                continue
            if target.host != snapshot.url.host:
                snapshot.outbound_links.append(target)
            if anchor.download:
                fetched = self.fetch(target, now)
                if fetched.ok and fetched.download is not None:
                    snapshot.downloads.append(fetched.download)


def _absolute(base: URL, href: str) -> Optional[URL]:
    href = (href or "").strip()
    if not href or href.startswith(("#", "javascript:", "mailto:")):
        return None
    try:
        if href.startswith(("http://", "https://")):
            return parse_url(href)
        if href.startswith("/"):
            return base.with_path(href)
        return base.with_path("/" + href)
    except URLError:
        return None


# -- multi-hop navigation (PhishIntention-style dynamic analysis) -----------------


def follow_workflow(
    pages: PageSource, url: URL, now: int, max_hops: int = MAX_HOPS
) -> List[PageSnapshot]:
    """Simulate a user clicking through the page's primary call-to-action.

    Returns the chain of snapshots, read from ``pages``, starting at
    ``url``. Used by the PhishIntention baseline (dynamic analysis) and by
    the §5.5 two-step heuristics; passing the page store parses each hop's
    version once.
    """
    chain: List[PageSnapshot] = []
    seen = set()
    current: Optional[URL] = url
    for _ in range(max_hops):
        if current is None or str(current) in seen:
            break
        seen.add(str(current))
        try:
            snapshot = pages.snapshot(current, now)
        except FetchError:
            break
        chain.append(snapshot)
        current = _primary_action_target(snapshot)
    return chain


def _primary_action_target(snapshot: PageSnapshot) -> Optional[URL]:
    """The URL a user lands on after clicking the page's main button."""
    # Prefer call-to-action anchors, then any outbound link.
    for anchor in snapshot.facts.anchors:
        if anchor.call_to_action:
            target = _absolute(snapshot.url, anchor.href)
            if target is not None and target.host != snapshot.url.host:
                return target
    if snapshot.outbound_links:
        return snapshot.outbound_links[0]
    return None
