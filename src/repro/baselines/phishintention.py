"""PhishIntention: static + dynamic two-phase intention analysis.

Liu et al. (2022) combine (1) visual brand identification with (2) a
*credential-requiring-interface* check that, crucially, follows the page's
interaction workflow — clicking through call-to-action buttons and
resolving embedded frames. That dynamic phase is why the paper measures it
at the highest recall (0.94) of the candidate models — it is the only one
that sees through two-step and iframe evasion — and also why it is the
slowest (11.3 s median per URL).

Our re-implementation mirrors both phases over the simulated browser:

* **Phase 1 (static)**: nearest-brand visual match + brand tokens in the
  page heading/title.
* **Phase 2 (dynamic)**: credential interface on the page itself, inside
  resolved iframes, or on any page reached via
  :meth:`~repro.simnet.browser.Browser.follow_workflow`; drive-by download
  payloads also count as malicious intention.

A page is flagged only when both brand intent and a credential/payload
interface are found — the design that gives PhishIntention its precision.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.preprocess import ProcessedPage
from ..errors import NotFittedError
from ..simnet.browser import Browser
from ..sitegen.brands import BrandCatalog, default_brand_catalog
from ..webdoc import Document, parse_html
from .visualphishnet import VisualPhishNetDetector


class PhishIntentionDetector:
    """Two-phase brand-intention + credential-interface analyzer."""

    def __init__(
        self,
        browser: Browser,
        catalog: Optional[BrandCatalog] = None,
        random_state: Optional[int] = 7,
        max_hops: int = 3,
    ) -> None:
        self.browser = browser
        self.catalog = catalog if catalog is not None else default_brand_catalog()
        self.max_hops = max_hops
        #: Reuse VisualPhishNet's gallery machinery for phase 1.
        self._visual = VisualPhishNetDetector(
            catalog=self.catalog, random_state=random_state
        )
        self._brand_tokens = [
            (token, brand.legitimate_domain)
            for brand in self.catalog
            for token in brand.tokens()
            if len(token) >= 4
        ]
        self._visual_threshold: Optional[float] = None

    # -- phase 1: brand intention ---------------------------------------------------

    def _brand_intent(self, page: ProcessedPage) -> bool:
        document = page.snapshot.document
        # Title, headings, and logo identification (the real system's OCR/
        # logo-matcher analogue: image alt text names the depicted brand).
        text = (
            document.title
            + " "
            + " ".join(h.text_content() for h in document.find_all("h1"))
            + " "
            + " ".join(img.get("alt") for img in document.find_all("img"))
        ).lower()
        for token, legit_domain in self._brand_tokens:
            if token in text:
                legit_core = legit_domain.split(".")[0]
                if legit_core not in page.url.registered_domain:
                    return True
        # Visual fallback: logo/region detection. The real system runs an
        # object detector over the screenshot and a siamese matcher per
        # detected region against every protected logo — reproduced here as
        # a full region scan against the gallery (its dominant cost), with
        # a threshold much stricter than whole-page similarity.
        if self._visual_threshold is not None and self._visual._gallery:
            from ..webdoc.render import region_signatures

            candidates = [page.snapshot.signature]
            candidates += region_signatures(
                page.snapshot.document, max_regions=40, min_subtree_size=1
            )
            for signature in candidates:
                slug, legit_domain, distance = self._visual._nearest_brand(signature)
                if distance <= 0.55 * self._visual_threshold:
                    legit_core = legit_domain.split(".")[0]
                    if legit_core and legit_core not in page.url.registered_domain:
                        return True
        return False

    # -- phase 2: credential-requiring interface (dynamic) ---------------------------

    @staticmethod
    def _has_credential_interface(document: Document) -> bool:
        return bool(document.password_inputs()) or len(document.credential_inputs()) >= 2

    def _credential_interface(self, page: ProcessedPage, now: int) -> bool:
        snapshot = page.snapshot
        if self._has_credential_interface(snapshot.document):
            return True
        # Client-side rendered frames: PhishIntention's CRP-transition check.
        # Frames are stored as markup; unresolvable ones carry none.
        for _src, framed_markup in snapshot.iframe_contents:
            if framed_markup and self._has_credential_interface(parse_html(framed_markup)):
                return True
        if snapshot.downloads and any(a.malicious for a in snapshot.downloads):
            return True
        # Dynamic analysis: click through the primary call-to-action chain.
        chain = self.browser.follow_workflow(page.url, now, max_hops=self.max_hops)
        for hop in chain[1:]:
            if self._has_credential_interface(hop.document):
                return True
            if hop.downloads and any(a.malicious for a in hop.downloads):
                return True
        return False

    # -- API ------------------------------------------------------------------------

    def fit_pages(
        self, pages: Sequence[ProcessedPage], labels: Sequence[int]
    ) -> "PhishIntentionDetector":
        """Fit the phase-1 visual threshold (phase 2 is rule-based)."""
        self._visual.build_gallery()
        self._visual.fit_pages(pages, labels)
        self._visual_threshold = self._visual._threshold
        return self

    def predict_page(self, page: ProcessedPage, now: Optional[int] = None) -> int:
        if self._visual_threshold is None:
            raise NotFittedError("PhishIntentionDetector is not fitted")
        moment = page.snapshot.fetched_at if now is None else now
        if not self._brand_intent(page):
            return 0
        return int(self._credential_interface(page, moment))

    def predict_pages(self, pages: Sequence[ProcessedPage]) -> np.ndarray:
        return np.asarray([self.predict_page(p) for p in pages], dtype=np.int64)
