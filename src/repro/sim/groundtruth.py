"""Ground-truth dataset construction (paper §4.2).

The paper's training corpus pairs 4,656 manually verified FWB phishing URLs
from dataset D1 with 4,656 manually verified benign FWB URLs (3,299 from
Twitter, 1,357 from Facebook). ``build_ground_truth`` reproduces that
construction at any scale: equal phishing/benign classes, phishing spread
over the services by the measured abuse distribution, every sample
snapshotted and featurized through the real pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core.preprocess import Preprocessor, ProcessedPage
from ..simnet.web import Web
from ..sitegen.brands import BrandCatalog, default_brand_catalog
from ..sitegen.kits import PhishingKitGenerator
from ..sitegen.legitimate import LegitimateSiteGenerator
from ..sitegen.phishing import PhishingSiteGenerator, PhishingVariant


@dataclass
class GroundTruthDataset:
    """Featurized, labelled pages plus the world they live in."""

    web: Web
    pages: List[ProcessedPage]
    labels: np.ndarray
    #: Parallel metadata: (is_fwb, fwb_name, variant) per sample.
    variants: List[Optional[str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pages)

    @property
    def n_phishing(self) -> int:
        return int(self.labels.sum())

    def split_arrays(self, names) -> Tuple[np.ndarray, np.ndarray]:
        X = np.vstack([p.features.vector(names) for p in self.pages])
        return X, self.labels


def build_ground_truth(
    n_per_class: int = 400,
    seed: int = 7,
    web: Optional[Web] = None,
    catalog: Optional[BrandCatalog] = None,
) -> GroundTruthDataset:
    """Build a balanced FWB phishing/benign ground-truth corpus.

    Phishing sites are distributed over the 17 services by attacker weight;
    benign sites uniformly (benign customers do not follow the abuse
    distribution). Pages that need an external target (two-step, iframe)
    point at synthetic self-hosted kit pages, as in the live pipeline.
    """
    rng = np.random.default_rng(seed)
    web = web if web is not None else Web()
    catalog = catalog if catalog is not None else default_brand_catalog()
    preprocessor = Preprocessor(web)
    phish_gen = PhishingSiteGenerator(catalog=catalog)
    benign_gen = LegitimateSiteGenerator()
    kit_gen = PhishingKitGenerator(catalog=catalog)

    providers = list(web.fwb_providers.values())
    weights = np.asarray([p.service.attacker_weight for p in providers], dtype=float)
    probabilities = weights / weights.sum()

    pages: List[ProcessedPage] = []
    labels: List[int] = []
    variants: List[Optional[str]] = []

    for index in range(n_per_class):
        provider = providers[int(rng.choice(len(providers), p=probabilities))]
        spec = phish_gen.sample_spec(provider.service, rng)
        if spec.variant in (PhishingVariant.TWO_STEP, PhishingVariant.IFRAME):
            # Two-step/iframe pages point at a real external landing page,
            # as in the live pipeline (the attacker deploys both halves).
            target = kit_gen.create_site(
                web.self_hosting, now=0, rng=rng, brand=spec.brand
            )
            target.metadata["linked_only"] = True
            spec.target_url = str(target.root_url)
        site = phish_gen.create_site(provider, now=0, rng=rng, spec=spec)
        page = preprocessor.process(site.root_url, now=10)
        if page is None:  # pragma: no cover - generated sites are fetchable
            continue
        pages.append(page)
        labels.append(1)
        variants.append(spec.variant.value)

    for _ in range(n_per_class):
        provider = providers[int(rng.integers(len(providers)))]
        site = benign_gen.create_fwb_site(provider, now=0, rng=rng)
        page = preprocessor.process(site.root_url, now=10)
        if page is None:  # pragma: no cover
            continue
        pages.append(page)
        labels.append(0)
        variants.append(None)

    return GroundTruthDataset(
        web=web,
        pages=pages,
        labels=np.asarray(labels, dtype=np.int64),
        variants=variants,
    )
