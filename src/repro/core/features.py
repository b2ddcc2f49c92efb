"""URL, HTML, and FWB-specific feature extraction (paper §4.2).

The base StackModel (Li et al. 2019) uses 8 URL-based and 12 HTML-based
features. Two of those — the presence of ``https`` and multiple TLD tokens
— carry no signal for FWB-hosted pages (every FWB site is https with a
single TLD), so the paper's augmented model drops them and adds two
FWB-specific features:

* **Obfuscated FWB banner** — free-tier sites carry a service banner;
  phishers hide it with ``visibility:hidden``-style tricks;
* **Preventing indexing** — a ``noindex`` robots directive keeps the page
  out of search indexes that anti-phishing crawlers mine.

``FeatureExtractor`` emits both variants from a single page snapshot.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import FeatureError
from ..sitegen.brands import BrandCatalog, default_brand_catalog
from ..simnet.browser import PageSnapshot
from ..simnet.url import (
    URL,
    URLStringStats,
)
from ..webdoc import Document, Element, parse_html

#: Feature order of the base StackModel (8 URL + 12 HTML).
BASE_FEATURE_NAMES: Tuple[str, ...] = (
    # URL-based (8)
    "url_length",
    "n_suspicious_symbols",
    "n_sensitive_words",
    "brand_in_url",
    "n_dots",
    "n_digits",
    "has_https",
    "n_tld_tokens",
    # HTML-based (12)
    "n_internal_links",
    "n_external_links",
    "n_empty_links",
    "has_login_form",
    "n_password_fields",
    "n_credential_inputs",
    "html_length",
    "n_iframes",
    "n_forms",
    "n_images",
    "external_form_action",
    "title_brand_mismatch",
)

#: The augmented model: https / multi-TLD replaced by the FWB pair.
FWB_FEATURE_NAMES: Tuple[str, ...] = tuple(
    name for name in BASE_FEATURE_NAMES if name not in ("has_https", "n_tld_tokens")
) + ("obfuscated_fwb_banner", "has_noindex")

#: The URL-derived prefix of the base schema: everything computable from the
#: URL string alone, without fetching the page. The serving layer's degraded
#: fast path (``repro.serve``) scores requests on exactly these features when
#: the full snapshot pipeline is overloaded.
URL_FEATURE_NAMES: Tuple[str, ...] = BASE_FEATURE_NAMES[:8]

_TLD_TOKENS = (".com", ".net", ".org", ".info", ".xyz", ".top", ".live", ".io", ".me", ".app", ".site")

_BANNER_CLASS_HINT = "fwb-banner"
_BANNER_TEXT_HINTS = (
    "powered by", "create your own", "create a free website", "made with",
    "report abuse", "blog at", "free website",
)


def _looks_like_banner(element: Element) -> bool:
    """Is ``element`` an FWB service banner, by class/id or by its text?"""
    if _BANNER_CLASS_HINT in element.classes or element.id == "fwb-banner":
        return True
    if element.tag in ("div", "footer"):
        text = element.text_content().lower()
        return any(hint in text for hint in _BANNER_TEXT_HINTS)
    return False


def snapshot_key(url: Union[URL, str], markup: str) -> str:
    """Deterministic content hash identifying one observed page version.

    The **only** sanctioned producer of feature-cache keys (reprolint
    RP304): :class:`~repro.core.preprocess.Preprocessor` stores each
    processed page under ``snapshot_key(url, markup)``, so a re-observation
    whose markup changed in any way misses the cache and is re-featurized,
    while byte-identical re-observations skip HTML parsing entirely.
    """
    digest = hashlib.sha256()
    digest.update(str(url).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(markup.encode("utf-8"))
    return "snap:" + digest.hexdigest()


@dataclass
class PageFeatures:
    """All raw feature values for one page; views select model variants."""

    values: Dict[str, float]

    def vector(self, names: Sequence[str]) -> np.ndarray:
        try:
            return np.asarray([self.values[name] for name in names], dtype=np.float64)
        except KeyError as exc:
            raise FeatureError(f"unknown feature requested: {exc}") from exc

    @property
    def base_vector(self) -> np.ndarray:
        return self.vector(BASE_FEATURE_NAMES)

    @property
    def fwb_vector(self) -> np.ndarray:
        return self.vector(FWB_FEATURE_NAMES)


class FeatureExtractor:
    """Extracts :class:`PageFeatures` from a URL + page snapshot/markup.

    Extraction always computes; memoizing processed pages is the job of
    :class:`~repro.core.preprocess.Preprocessor`'s snapshot-keyed cache.
    """

    def __init__(self, catalog: Optional[BrandCatalog] = None) -> None:
        self.catalog = catalog if catalog is not None else default_brand_catalog()
        self._brand_tokens: List[Tuple[str, str]] = []
        for brand in self.catalog:
            for token in brand.tokens():
                if len(token) >= 4:
                    self._brand_tokens.append((token, brand.legitimate_domain))

    # -- URL features ------------------------------------------------------------

    def _brand_token_in(self, text: str) -> Optional[Tuple[str, str]]:
        text = text.lower()
        for token, legit_domain in self._brand_tokens:
            if token in text:
                return token, legit_domain
        return None

    def _url_features(self, url: URL) -> Dict[str, float]:
        stats = URLStringStats.of(url)
        text = str(url).lower()
        brand_hit = self._brand_token_in(url.host + url.path)
        return {
            "url_length": float(stats.length),
            "n_suspicious_symbols": float(stats.n_suspicious),
            "n_sensitive_words": float(stats.n_sensitive),
            "brand_in_url": 1.0 if brand_hit is not None else 0.0,
            "n_dots": float(stats.n_dots),
            "n_digits": float(stats.n_digits),
            "has_https": 1.0 if url.scheme == "https" else 0.0,
            "n_tld_tokens": float(sum(text.count(token) for token in _TLD_TOKENS)),
        }

    # -- HTML features -------------------------------------------------------------

    def _html_features(self, url: URL, document: Document, markup: str) -> Dict[str, float]:
        internal = external = empty = 0
        for anchor in document.links():
            href = anchor.get("href").strip()
            if not href or href in ("#", "javascript:void(0)"):
                empty += 1
            elif href.startswith(("http://", "https://")):
                target_host = href.split("//", 1)[1].split("/", 1)[0].lower()
                # Same registrable domain counts as internal: an FWB site
                # linking to its host's apex is not an outbound link.
                if target_host.endswith(url.registered_domain):
                    internal += 1
                else:
                    external += 1
            else:
                internal += 1

        forms = document.forms()
        password_fields = document.password_inputs()
        credential_inputs = document.credential_inputs()
        has_login_form = 0.0
        external_action = 0.0
        for form in forms:
            inputs = form.find_all("input")
            types = {i.get("type").lower() for i in inputs}
            if "password" in types or len(credential_inputs) >= 2:
                has_login_form = 1.0
            action = form.get("action").strip()
            if action.startswith(("http://", "https://")) and url.host not in action:
                external_action = 1.0

        title = document.title.lower()
        brand_hit = self._brand_token_in(title)
        mismatch = 0.0
        if brand_hit is not None:
            _token, legit_domain = brand_hit
            legit_core = legit_domain.split(".")[0]
            # Compare against the registrable domain only: a brand token
            # smuggled into the *subdomain* does not legitimize the host.
            if legit_core not in url.registered_domain:
                mismatch = 1.0

        # Either hiding mechanism counts: inline visibility/display styles
        # (the paper's example) or an injected stylesheet rule. Filtering for
        # hidden elements first means text is joined only for hidden
        # <div>/<footer>s, one at a time, not for every <div> of the page.
        obfuscated = any(_looks_like_banner(e) for e in document.hidden_elements())

        return {
            "n_internal_links": float(internal),
            "n_external_links": float(external),
            "n_empty_links": float(empty),
            "has_login_form": has_login_form,
            "n_password_fields": float(len(password_fields)),
            "n_credential_inputs": float(len(credential_inputs)),
            "html_length": float(len(markup)),
            "n_iframes": float(len(document.iframes())),
            "n_forms": float(len(forms)),
            "n_images": float(len(document.find_all("img"))),
            "external_form_action": external_action,
            "title_brand_mismatch": mismatch,
            "obfuscated_fwb_banner": 1.0 if obfuscated else 0.0,
            "has_noindex": 1.0 if document.has_noindex() else 0.0,
        }

    # -- public API ------------------------------------------------------------------

    def extract_url_only(self, url: URL) -> PageFeatures:
        """Extract only the URL-derived features — no page fetch required.

        The returned :class:`PageFeatures` carries just the
        :data:`URL_FEATURE_NAMES` columns; asking it for ``base_vector`` or
        ``fwb_vector`` raises :class:`~repro.errors.FeatureError`. This is
        the input to the serving layer's degraded fast path, which must
        produce a verdict even when the snapshot pipeline cannot keep up.
        """
        return PageFeatures(values=self._url_features(url))

    def extract(
        self,
        url: URL,
        page: Union[PageSnapshot, Document, str],
    ) -> PageFeatures:
        """Extract every feature from a page.

        ``page`` may be a browser snapshot, a parsed document, or raw
        markup; snapshots are the framework's normal path.
        """
        if isinstance(page, PageSnapshot):
            document, markup = page.document, page.markup
        elif isinstance(page, Document):
            document, markup = page, page.to_html()
        elif isinstance(page, str):
            document, markup = parse_html(page), page
        else:
            raise FeatureError(
                f"unsupported page type: {type(page).__name__}"
            )
        values = self._url_features(url)
        values.update(self._html_features(url, document, markup))
        return PageFeatures(values=values)
