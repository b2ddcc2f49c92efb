"""VisualPhishNet: visual-similarity matching against a brand gallery.

Abdelnabi et al. (2020) train a triplet network so that screenshots of
phishing pages land near their target brand's screenshots in embedding
space. Our substrate renders pages into visual signatures
(:mod:`repro.webdoc.render`), so the detector becomes:

1. **Gallery building** — render a canonical login page for every
   protected brand (the equivalent of the trusted-brand screenshot set).
2. **Matching** — a page is phishing if its signature sits within a learned
   distance of some brand profile while being served from a host that is
   *not* that brand's legitimate domain.
3. **Threshold fitting** — the decision distance is tuned on the training
   set (the lightweight analogue of triplet-loss training).

Builder boilerplate shifts FWB pages' signatures away from the clean brand
profiles, which is why the paper measures only 0.72 recall here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.preprocess import ProcessedPage
from ..errors import NotFittedError
from ..sitegen.brands import Brand, BrandCatalog, default_brand_catalog
from ..sitegen.templates import ContentBlock, PageSpec, TemplateLibrary
from ..webdoc import VisualSignature, render_signature
from ..webdoc.render import region_signatures


def _brand_login_markup(brand: Brand, templates: TemplateLibrary,
                        rng: np.random.Generator) -> str:
    """The brand's canonical (legitimate) login page."""
    spec = PageSpec(
        title=brand.login_title(),
        blocks=[
            ContentBlock("image", text=f"{brand.name} logo", href="/logo.png"),
            ContentBlock("heading", text=brand.name),
            ContentBlock(
                "form",
                text="Sign In",
                fields=["email", "password", *brand.extra_fields],
                href="/login",
            ),
        ],
        primary_color=brand.primary_color,
    )
    return templates.render(None, spec, rng)


class VisualPhishNetDetector:
    """Nearest-brand-profile matcher over visual signatures."""

    def __init__(
        self,
        catalog: Optional[BrandCatalog] = None,
        random_state: Optional[int] = 7,
    ) -> None:
        self.catalog = catalog if catalog is not None else default_brand_catalog()
        self.random_state = random_state
        self._gallery: List[Tuple[str, str, VisualSignature]] = []
        self._benign_refs: List[VisualSignature] = []
        self._phish_refs: List[VisualSignature] = []
        #: Reference-set size: the real model's gallery covers a bounded
        #: set of screenshots; small reference pools keep the matcher's
        #: capacity comparable.
        self.n_references = 25
        self._threshold: Optional[float] = None

    # -- gallery -----------------------------------------------------------------

    def build_gallery(self) -> None:
        """Render one profile signature per protected brand."""
        templates = TemplateLibrary()
        rng = np.random.default_rng(self.random_state)
        self._gallery = []
        for brand in self.catalog:
            markup = _brand_login_markup(brand, templates, rng)
            self._gallery.append(
                (brand.slug, brand.legitimate_domain, render_signature(markup))
            )

    def _nearest_brand(self, signature: VisualSignature) -> Tuple[str, str, float]:
        """(brand_slug, legit_domain, distance) of the closest profile."""
        best = ("", "", np.inf)
        for slug, domain, profile in self._gallery:
            distance = signature.distance(profile)
            if distance < best[2]:
                best = (slug, domain, distance)
        return best

    # -- training (threshold fitting) ----------------------------------------------

    def _margin(self, signature: VisualSignature) -> float:
        """Triplet-style margin: distance-to-benign minus distance-to-brand.

        Positive = the page looks more like the brand side of the training
        embedding (gallery screenshots plus known phishing exemplars) than
        like the benign reference set.
        """
        _slug, _domain, brand_distance = self._nearest_brand(signature)
        if self._phish_refs:
            brand_distance = min(
                brand_distance,
                min(signature.distance(ref) for ref in self._phish_refs),
            )
        if not self._benign_refs:
            return -brand_distance
        benign_distance = min(
            signature.distance(reference) for reference in self._benign_refs
        )
        return benign_distance - brand_distance

    def fit_pages(
        self, pages: Sequence[ProcessedPage], labels: Sequence[int]
    ) -> "VisualPhishNetDetector":
        if not self._gallery:
            self.build_gallery()
        labels = np.asarray(labels)
        rng = np.random.default_rng(self.random_state)
        # Benign reference screenshots, the triplet negatives.
        benign_indices = np.flatnonzero(labels == 0)
        if benign_indices.size:
            chosen = rng.choice(
                benign_indices,
                size=min(self.n_references, benign_indices.size),
                replace=False,
            )
            self._benign_refs = [pages[int(i)].snapshot.signature for i in chosen]
        phish_indices = np.flatnonzero(labels == 1)
        if phish_indices.size:
            chosen = rng.choice(
                phish_indices,
                size=min(self.n_references, phish_indices.size),
                replace=False,
            )
            self._phish_refs = [pages[int(i)].snapshot.signature for i in chosen]
        margins = np.array([self.page_margin(page) for page in pages])
        # Pick the margin threshold maximizing training accuracy.
        candidates = np.unique(np.quantile(margins, np.linspace(0.02, 0.98, 49)))
        best_threshold, best_accuracy = float(np.median(margins)), -1.0
        for candidate in candidates:
            predictions = (margins >= candidate).astype(np.int64)
            accuracy = float(np.mean(predictions == labels))
            if accuracy > best_accuracy:
                best_accuracy, best_threshold = accuracy, float(candidate)
        self._threshold = best_threshold
        return self

    # -- prediction -------------------------------------------------------------------

    def page_margin(self, page: ProcessedPage) -> float:
        """Best margin over the full page and its salient regions.

        Multi-region matching: the embedding network scans the whole
        screenshot plus salient crops; this scan dominates inference cost,
        as in the original model.
        """
        margins = [self._margin(page.snapshot.signature)]
        for region in region_signatures(page.snapshot.document, max_regions=12):
            margins.append(self._margin(region))
        return max(margins)

    def predict_page(self, page: ProcessedPage) -> int:
        if self._threshold is None:
            raise NotFittedError("VisualPhishNetDetector is not fitted")
        if self.page_margin(page) < self._threshold:
            return 0
        # Visually inside a protected brand's neighbourhood: phishing unless
        # actually served from the brand's own domain.
        _slug, legit_domain, _distance = self._nearest_brand(page.snapshot.signature)
        legit_core = legit_domain.split(".")[0]
        if legit_core and legit_core in page.url.registered_domain:
            return 0
        return 1

    def predict_pages(self, pages: Sequence[ProcessedPage]) -> np.ndarray:
        return np.asarray([self.predict_page(p) for p in pages], dtype=np.int64)
