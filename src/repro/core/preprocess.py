"""Pre-processing module (paper §4.1).

Stores a full snapshot of each streamed website (source + rendered
signature, the stand-in for a screenshot) and extracts the classifier's
feature set. Unreachable URLs are dropped, mirroring the real pipeline.

The :class:`Preprocessor` is the process's one page store, read by the
framework and by threat intel: a bounded LRU of what each page version's
:func:`~repro.core.features.snapshot_key` determines (its parse, and its
features once asked for). Fetch time, certificate, iframes, downloads and
links can change while the markup does not, so every snapshot is
assembled fresh. See ``docs/PERFORMANCE.md``.
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
from ..webdoc import Document
from .features import FeatureExtractor, PageFeatures, snapshot_key

#: Capacity of the snapshot-keyed page store, in page versions. Every
#: measured hit is on one of the 14 (campaign), 51 (cold serving) or 199
#: (hot serving over 200 URLs) most recently used entries, so 256 loses
#: no reuse; a larger store only carries parsed documents that are never
#: read again through every garbage collection. See ``docs/PERFORMANCE.md``.
PAGE_CACHE_SIZE = 256


@dataclass
class _StoredPage:
    """What one ``snapshot_key`` determines; features are filled lazily."""

    document: Document
    features: Optional[PageFeatures] = None
    fwb_name: Optional[str] = None


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
    """Snapshot + feature-extraction stage and the process's page store."""

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
        self._page_cache: "OrderedDict[str, _StoredPage]" = OrderedDict()
        self._c_hit = self._instr.counter("preprocess.cache.hit")
        self._c_miss = self._instr.counter("preprocess.cache.miss")
        self._c_evicted = self._instr.counter("preprocess.cache.evicted")

    @property
    def cache_len(self) -> int:
        """Number of page versions currently stored."""
        return len(self._page_cache)

    def snapshot(self, url: URL, now: int) -> PageSnapshot:
        """Equal to ``Browser.snapshot(url, now)``, raising alike, but
        parsing each page version once."""
        return self._load(url, now)[0]

    def _load(self, url: URL, now: int) -> Tuple[PageSnapshot, _StoredPage]:
        """Fetch first, then parse only a markup not yet stored. Failed
        fetches (``snapshot_from`` raises) and bare file downloads (no
        markup) bypass the store."""
        result = self.browser.fetch(url, now)
        if not result.ok or result.download is not None:
            snapshot = self.browser.snapshot_from(result, now)
            return snapshot, _StoredPage(snapshot.document)  # not stored
        key = snapshot_key(url, result.markup)
        stored = self._page_cache.get(key)
        if stored is not None:
            self._page_cache.move_to_end(key)
            self._c_hit.inc()
            return self.browser.snapshot_from(result, now, stored.document), stored
        snapshot = self.browser.snapshot_from(result, now)
        stored = _StoredPage(snapshot.document)
        self._c_miss.inc()
        self._page_cache[key] = stored
        while len(self._page_cache) > PAGE_CACHE_SIZE:
            self._page_cache.popitem(last=False)
            self._c_evicted.inc()
        return snapshot, stored

    def process(self, url: URL, now: int) -> Optional[ProcessedPage]:
        """Snapshot and featurize one URL (features once per page version);
        ``None`` if it cannot be fetched."""
        try:
            snapshot, stored = self._load(url, now)
        except FetchError:
            return None
        if stored.features is None:
            stored.features = self.extractor.extract(url, snapshot)
            service = self.web.fwb_for(url)
            stored.fwb_name = service.name if service is not None else None
        return ProcessedPage(url, snapshot, stored.features, stored.fwb_name)

    def process_batch_report(self, urls: List[URL], now: int) -> PreprocessBatch:
        """Snapshot and featurize a batch, skipping-and-reporting failures.

        One dead URL (taken down mid-batch, or a custom browser raising
        :class:`~repro.errors.FetchError` while resolving sub-resources)
        must not abort the other N-1: every failure becomes a
        :class:`SkippedURL` entry instead of propagating.
        """
        pages: List[ProcessedPage] = []
        skipped: List[SkippedURL] = []
        for url in urls:
            page = self.process(url, now)
            if page is None:
                skipped.append(SkippedURL(url=url, reason="unreachable"))
                continue
            pages.append(page)
        return PreprocessBatch(pages=pages, skipped=skipped)
