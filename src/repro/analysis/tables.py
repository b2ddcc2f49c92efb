"""Builders for the paper's Tables 1-4."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.classifier import FreePhishClassifier
from ..core.monitor import UrlTimeline
from ..core.preprocess import ProcessedPage
from ..ml import classification_summary, train_test_split
from ..simnet.web import Web
from ..sitegen.legitimate import LegitimateSiteGenerator
from ..sitegen.phishing import PhishingSiteGenerator
from ..webdoc.similarity import median_pairwise_similarity
from .coverage import (
    CoverageStats,
    coverage_stats,
    group_by_fwb,
    split_fwb_self,
)

# --------------------------------------------------------------------------
# Table 1: code similarity between FWB phishing and benign websites
# --------------------------------------------------------------------------

#: The six services the paper reports, with its measured medians.
TABLE1_PAPER_VALUES: Dict[str, float] = {
    "weebly": 0.794,
    "000webhost": 0.681,
    "blogspot": 0.638,
    "google_sites": 0.724,
    "wix": 0.637,
    "github_io": 0.374,
}


@dataclass(frozen=True)
class Table1Row:
    fwb: str
    n_sites: int
    median_similarity: float
    paper_similarity: Optional[float]


def build_table1(
    seed: int = 21,
    sites_per_class: int = 12,
    max_pairs: int = 60,
    services: Sequence[str] = tuple(TABLE1_PAPER_VALUES),
) -> List[Table1Row]:
    """Regenerate Table 1: per-FWB benign↔phishing code similarity."""
    rng = np.random.default_rng(seed)
    web = Web()
    phishing_gen = PhishingSiteGenerator()
    benign_gen = LegitimateSiteGenerator()
    rows: List[Table1Row] = []
    for name in services:
        provider = web.fwb_providers[name]
        phishing_pages = [
            phishing_gen.create_site(provider, now=0, rng=rng).pages["/"]
            for _ in range(sites_per_class)
        ]
        benign_pages = [
            benign_gen.create_fwb_site(provider, now=0, rng=rng).pages["/"]
            for _ in range(sites_per_class)
        ]
        similarity = median_pairwise_similarity(
            phishing_pages, benign_pages, rng, max_pairs=max_pairs
        )
        rows.append(
            Table1Row(
                fwb=name,
                n_sites=2 * sites_per_class,
                median_similarity=similarity,
                paper_similarity=TABLE1_PAPER_VALUES.get(name),
            )
        )
    return rows


# --------------------------------------------------------------------------
# Table 2: model comparison
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Row:
    model: str
    accuracy: float
    precision: float
    recall: float
    f1: float
    total_time_seconds: float
    median_runtime_seconds: float


def _evaluate_detector(
    name: str,
    detector,
    train_pages: List[ProcessedPage],
    train_labels: np.ndarray,
    test_pages: List[ProcessedPage],
    test_labels: np.ndarray,
) -> Table2Row:
    detector.fit_pages(train_pages, train_labels)
    runtimes: List[float] = []
    predictions: List[int] = []
    # Table 2's runtime column times *real* inference; it is measurement
    # metadata, not simulated state, so the wall-clock rule is waived.
    total_start = time.perf_counter()  # reprolint: disable=RP101,RP105 — times real inference for Table 2
    for page in test_pages:
        start = time.perf_counter()  # reprolint: disable=RP101,RP105 — times real inference for Table 2
        predictions.append(int(detector.predict_page(page)))
        runtimes.append(time.perf_counter() - start)  # reprolint: disable=RP101,RP105 — times real inference for Table 2
    total = time.perf_counter() - total_start  # reprolint: disable=RP101,RP105 — times real inference for Table 2
    summary = classification_summary(test_labels, np.asarray(predictions))
    return Table2Row(
        model=name,
        accuracy=summary.accuracy,
        precision=summary.precision,
        recall=summary.recall,
        f1=summary.f1,
        total_time_seconds=total,
        median_runtime_seconds=float(np.median(runtimes)),
    )


def build_table2(
    pages: Sequence[ProcessedPage],
    labels: np.ndarray,
    web: Web,
    test_size: float = 0.3,
    seed: int = 7,
    n_estimators: int = 40,
    models: Optional[Sequence[str]] = None,
) -> List[Table2Row]:
    """Regenerate Table 2 over a featurized ground-truth corpus.

    ``models`` selects a subset of
    ``("visualphishnet", "phishintention", "urlnet", "stackmodel", "ours")``.
    """
    from ..baselines import (
        BaseStackModelDetector,
        PhishIntentionDetector,
        URLNetDetector,
        VisualPhishNetDetector,
    )
    from ..simnet.browser import Browser

    wanted = tuple(models) if models is not None else (
        "visualphishnet", "phishintention", "urlnet", "stackmodel", "ours",
    )
    indices = np.arange(len(pages))
    train_idx, test_idx, train_labels, test_labels = train_test_split(
        indices.reshape(-1, 1), np.asarray(labels), test_size=test_size,
        random_state=seed,
    )
    train_pages = [pages[int(i)] for i in train_idx.ravel()]
    test_pages = [pages[int(i)] for i in test_idx.ravel()]

    factories: Dict[str, Callable[[], object]] = {
        "visualphishnet": lambda: VisualPhishNetDetector(random_state=seed),
        "phishintention": lambda: PhishIntentionDetector(
            Browser(web), random_state=seed
        ),
        "urlnet": lambda: URLNetDetector(random_state=seed),
        "stackmodel": lambda: BaseStackModelDetector(
            n_estimators=n_estimators, random_state=seed
        ),
        "ours": lambda: FreePhishClassifier(
            n_estimators=n_estimators, random_state=seed
        ),
    }
    display = {
        "visualphishnet": "VisualPhishNet",
        "phishintention": "PhishIntention",
        "urlnet": "URLNet",
        "stackmodel": "Base StackModel",
        "ours": "Our Model",
    }
    rows = []
    for key in wanted:
        rows.append(
            _evaluate_detector(
                display[key], factories[key](),
                train_pages, train_labels, test_pages, test_labels,
            )
        )
    return rows


# --------------------------------------------------------------------------
# Table 3: blocklisting performance, FWB vs self-hosted
# --------------------------------------------------------------------------

TABLE3_ENTITIES = ("phishtank", "openphish", "gsb", "ecrimex", "platform", "domain")


@dataclass(frozen=True)
class Table3Row:
    entity: str
    fwb: CoverageStats
    self_hosted: CoverageStats


def build_table3(timelines: Sequence[UrlTimeline]) -> List[Table3Row]:
    """Regenerate Table 3 from resolved campaign timelines."""
    groups = split_fwb_self(timelines)
    rows = []
    for entity in TABLE3_ENTITIES:
        rows.append(
            Table3Row(
                entity=entity,
                fwb=coverage_stats(groups["fwb"], entity),
                self_hosted=coverage_stats(groups["self_hosted"], entity),
            )
        )
    return rows


# --------------------------------------------------------------------------
# Table 4: per-FWB coverage and response times
# --------------------------------------------------------------------------

TABLE4_ENTITIES = ("domain", "platform", "phishtank", "openphish", "gsb", "ecrimex")


@dataclass(frozen=True)
class Table4Row:
    fwb: str
    n_urls: int
    entities: Dict[str, CoverageStats]


def build_table4(timelines: Sequence[UrlTimeline]) -> List[Table4Row]:
    """Regenerate Table 4 from resolved campaign timelines."""
    rows = []
    for fwb_name, group in sorted(
        group_by_fwb(timelines).items(), key=lambda kv: -len(kv[1])
    ):
        rows.append(
            Table4Row(
                fwb=fwb_name,
                n_urls=len(group),
                entities={
                    entity: coverage_stats(group, entity)
                    for entity in TABLE4_ENTITIES
                },
            )
        )
    return rows
