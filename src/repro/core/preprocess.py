"""Pre-processing module (paper §4.1).

Stores a full snapshot of each streamed website (source + rendered
signature, the stand-in for a screenshot) and extracts the classifier's
feature set. Unreachable URLs are dropped, mirroring the real pipeline.

Re-observations are memoized: each processed page is cached under its
:func:`~repro.core.features.snapshot_key` content hash, so observing a URL
whose markup has not changed (the monitor re-checks every tracked URL for
days) skips HTML parsing and feature extraction entirely. The cache is a
bounded LRU; a page whose markup changed — or that became unreachable —
never hits it, because the cheap ``fetch`` runs first and the key covers
the fetched markup. See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import FetchError
from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from ..simnet.browser import Browser, PageSnapshot
from ..simnet.url import URL
from ..simnet.web import Web
from .features import FeatureExtractor, PageFeatures, snapshot_key

#: Capacity of the snapshot-keyed page cache, in processed pages.
PAGE_CACHE_SIZE = 2048


@dataclass
class ProcessedPage:
    """Snapshot + features for one streamed URL."""

    url: URL
    snapshot: PageSnapshot
    features: PageFeatures
    fwb_name: Optional[str]

    @property
    def fwb_vector(self) -> np.ndarray:
        return self.features.fwb_vector

    @property
    def base_vector(self) -> np.ndarray:
        return self.features.base_vector


@dataclass(frozen=True)
class SkippedURL:
    """One URL a batch could not snapshot, with the reason it was skipped."""

    url: URL
    reason: str


@dataclass
class PreprocessBatch:
    """Outcome of a batched preprocessing pass.

    A single unreachable URL must never abort a serving batch: reachable
    pages are returned in ``pages`` (input order preserved) and every
    failure is reported in ``skipped`` rather than raised.
    """

    pages: List[ProcessedPage]
    skipped: List[SkippedURL]

    @property
    def n_processed(self) -> int:
        return len(self.pages)

    @property
    def n_skipped(self) -> int:
        return len(self.skipped)


class Preprocessor:
    """Snapshot + feature-extraction stage of the pipeline."""

    def __init__(
        self,
        web: Web,
        browser: Optional[Browser] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.web = web
        self.browser = browser if browser is not None else Browser(web)
        self._instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self.extractor = FeatureExtractor()
        #: Snapshot archive, as the paper stores full website snapshots.
        #: Only populated by ``keep=True`` calls — never by the cache.
        self.archive: List[ProcessedPage] = []
        self._page_cache: "OrderedDict[str, ProcessedPage]" = OrderedDict()
        self._c_hit = self._instr.counter("preprocess.cache.hit")
        self._c_miss = self._instr.counter("preprocess.cache.miss")
        self._c_evicted = self._instr.counter("preprocess.cache.evicted")

    @property
    def cache_len(self) -> int:
        """Number of processed pages currently memoized."""
        return len(self._page_cache)

    def process(self, url: URL, now: int, keep: bool = True) -> Optional[ProcessedPage]:
        """Snapshot and featurize one URL; ``None`` if it cannot be fetched.

        Fetch-first fast path: the markup fetch is cheap, so it runs
        first; if the fetched content hashes to an already-processed page,
        the cached :class:`ProcessedPage` is returned without re-parsing.
        An unreachable or changed page can therefore never be served
        stale. On a miss the probe's :class:`~repro.simnet.browser.FetchResult`
        is handed to ``snapshot_from``, so the markup is fetched once, not
        twice.
        """
        try:
            result = self.browser.fetch(url, now)
            if not result.ok:
                # snapshot() raises SiteRemovedError for this status.
                return None
            key = snapshot_key(url, result.markup)
            cached = self._page_cache.get(key)
            if cached is not None:
                self._page_cache.move_to_end(key)
                self._c_hit.inc()
                if keep:
                    self.archive.append(cached)
                return cached
            snapshot = self.browser.snapshot_from(result, now)
        except FetchError:
            return None
        features = self.extractor.extract(url, snapshot)
        service = self.web.fwb_for(url)
        page = ProcessedPage(
            url=url,
            snapshot=snapshot,
            features=features,
            fwb_name=service.name if service is not None else None,
        )
        self._c_miss.inc()
        self._page_cache[key] = page
        while len(self._page_cache) > PAGE_CACHE_SIZE:
            self._page_cache.popitem(last=False)
            self._c_evicted.inc()
        if keep:
            self.archive.append(page)
        return page

    def process_batch_report(
        self, urls: List[URL], now: int, keep: bool = False
    ) -> PreprocessBatch:
        """Snapshot and featurize a batch, skipping-and-reporting failures.

        One dead URL (taken down mid-batch, or a custom browser raising
        :class:`~repro.errors.FetchError` while resolving sub-resources)
        must not abort the other N-1: every failure becomes a
        :class:`SkippedURL` entry instead of propagating.
        """
        pages: List[ProcessedPage] = []
        skipped: List[SkippedURL] = []
        for url in urls:
            try:
                page = self.process(url, now, keep=keep)
            except FetchError as exc:
                # process() shields the snapshot call, but browser
                # subclasses may raise while resolving iframes/downloads.
                skipped.append(SkippedURL(url=url, reason=str(exc)))
                continue
            if page is None:
                skipped.append(SkippedURL(url=url, reason="unreachable"))
                continue
            pages.append(page)
        return PreprocessBatch(pages=pages, skipped=skipped)
