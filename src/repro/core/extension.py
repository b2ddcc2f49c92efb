"""The FreePhish browser extension (paper §1/§7, Figure 13).

A Chromium extension that intercepts navigation and blocks FWB-hosted
phishing before the page renders. The simulated equivalent guards a
:class:`~repro.simnet.browser.Browser`: ``check`` combines three layers,
cheapest first —

1. a local verdict cache (previously resolved URLs);
2. the FreePhish backend feed (URLs the framework already detected);
3. on-the-fly classification of FWB-hosted pages with the shipped model.

Non-FWB URLs are allowed through (the extension's scope is FWB attacks;
ordinary Safe-Browsing covers the rest).

Since the ``repro.serve`` subsystem landed, the extension is a thin
client over :class:`~repro.serve.service.VerdictService`, which owns the
cache/feed/model layering (plus batching and admission control for the
high-throughput path). The extension keeps only what is genuinely
client-side: the user-override allowlist, the warning interstitial, and
its historical ``stats`` surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Set

from ..simnet.browser import Browser, FetchResult
from ..simnet.url import URL
from ..simnet.web import Web
from .classifier import FreePhishClassifier


class NavigationVerdict(str, Enum):
    ALLOWED = "allowed"
    BLOCKED_FEED = "blocked_feed"          # known-bad from the backend feed
    BLOCKED_CLASSIFIER = "blocked_classifier"  # flagged by the local model
    UNREACHABLE = "unreachable"


@dataclass
class NavigationResult:
    url: str
    verdict: NavigationVerdict
    #: Page content, only when navigation was allowed and succeeded.
    fetch: Optional[FetchResult] = None

    @property
    def blocked(self) -> bool:
        return self.verdict in (
            NavigationVerdict.BLOCKED_FEED,
            NavigationVerdict.BLOCKED_CLASSIFIER,
        )


class FreePhishExtension:
    """Navigation guard over the simulated browser."""

    def __init__(
        self,
        web: Web,
        classifier: FreePhishClassifier,
        browser: Optional[Browser] = None,
        feed: Optional[Set[str]] = None,
        service=None,
        instrumentation=None,
    ) -> None:
        self.web = web
        self.browser = browser if browser is not None else Browser(web)
        self.classifier = classifier
        if service is None:
            # Deferred import: repro.serve imports NavigationVerdict from
            # this module, so a top-level import here would be circular.
            from ..serve.service import VerdictService

            service = VerdictService(
                web,
                classifier,
                browser=self.browser,
                instrumentation=instrumentation,
            )
        #: The serving stack that owns the cache/feed/model request path.
        self.service = service
        if feed:
            self.service.update_feed(feed)
        #: Normalized URL keys (``cache_key``) the user explicitly chose to
        #: proceed to ("Continue anyway").
        self.allowlist: Set[str] = set()
        self.stats = {"checked": 0, "blocked": 0, "overridden": 0}

    @property
    def feed(self) -> Set[str]:
        """Backend feed of URLs the FreePhish framework has confirmed.

        Lives on the service (normalized URL keys); exposed here for the
        extension's historical surface.
        """
        return self.service.feed

    def update_feed(self, urls) -> None:
        """Sync the backend detection feed into the extension."""
        self.service.update_feed(urls)

    def allow_anyway(self, url) -> None:
        """Record a user override: future checks let this URL through.

        Mirrors the "proceed anyway" escape hatch of real warning pages
        (Figure 10); overrides are counted in ``stats``. Keyed like the
        feed, so every spelling of the page is let through.
        """
        from ..serve.cache import cache_key

        self.allowlist.add(cache_key(url))
        self.stats["overridden"] += 1

    def check(self, url: URL, now: int) -> NavigationVerdict:
        """Verdict for navigating to ``url`` at time ``now``."""
        return self.check_served(url, now).verdict

    def check_served(self, url: URL, now: int):
        """Like :meth:`check`, but returning the full
        :class:`~repro.serve.service.ServedVerdict` — verdict plus the
        serving tier that produced it (``served_from``)."""
        from ..serve.cache import cache_key
        from ..serve.service import ServedFrom, ServedVerdict

        self.stats["checked"] += 1
        if cache_key(url) in self.allowlist:
            return ServedVerdict(
                url=url,
                verdict=NavigationVerdict.ALLOWED,
                served_from=ServedFrom.ALLOWLIST,
            )
        served = self.service.check(url, now)
        if served.blocked:
            self.stats["blocked"] += 1
        return served

    def navigate(self, url: URL, now: int) -> NavigationResult:
        """Attempt a guarded navigation; blocked URLs never hit the network."""
        verdict = self.check(url, now)
        if verdict in (NavigationVerdict.BLOCKED_FEED,
                       NavigationVerdict.BLOCKED_CLASSIFIER):
            return NavigationResult(url=str(url), verdict=verdict)
        fetch = self.browser.fetch(url, now)
        if not fetch.ok:
            return NavigationResult(
                url=str(url), verdict=NavigationVerdict.UNREACHABLE
            )
        return NavigationResult(url=str(url), verdict=verdict, fetch=fetch)

    def warning_page(self, url: URL, verdict: NavigationVerdict) -> str:
        """The interstitial warning page shown instead of a blocked site.

        The markup mirrors Figure 13: a full-screen alert naming the URL,
        the detection source, and a (deliberately de-emphasised) proceed
        link whose use is recorded via :meth:`allow_anyway`.
        """
        source = (
            "the FreePhish detection feed"
            if verdict is NavigationVerdict.BLOCKED_FEED
            else "on-device analysis of the page"
        )
        return (
            "<!DOCTYPE html><html><head><title>Warning: suspected phishing"
            "</title><style>"
            "body{background:#b71c1c;color:#fff;font-family:sans-serif;"
            "text-align:center;padding-top:12vh}"
            ".panel{max-width:640px;margin:0 auto}"
            ".url{font-family:monospace;background:rgba(0,0,0,.25);"
            "padding:4px 8px;border-radius:4px}"
            ".proceed{color:#ffcdd2;font-size:12px}"
            "</style></head><body><div class='panel'>"
            "<h1>&#9888; Suspected phishing site blocked</h1>"
            f"<p>FreePhish blocked <span class='url'>{url}</span>.</p>"
            f"<p>This page was flagged by {source} as an attack hosted on a "
            "free website-building service.</p>"
            "<p><a href='javascript:history.back()'>Go back (recommended)</a></p>"
            "<p class='proceed'><a id='proceed-anyway' href='#'>"
            "I understand the risk, continue anyway</a></p>"
            "</div></body></html>"
        )
