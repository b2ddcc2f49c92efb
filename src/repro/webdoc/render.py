"""Document rendering into visual signatures.

The paper's visual baselines (VisualPhishNet, PhishIntention) consume page
*screenshots*. Our substrate has no pixels, so rendering produces a compact
**visual signature**: a fixed-length numeric vector summarizing what the page
would look like — layout density, colour palette hash, logo/brand block,
form geometry. Two pages built from the same template (or spoofing the same
brand) land close in signature space, which is the property the visual
models exploit; pages with different layouts land far apart.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dom import Document
from .parser import parse_html

#: Dimensionality of the signature vector.
SIGNATURE_DIM = 32

_LAYOUT_TAGS = ("div", "section", "header", "footer", "nav", "table", "form")
_CONTENT_TAGS = ("p", "span", "h1", "h2", "h3", "li", "a", "label")
_MEDIA_TAGS = ("img", "video", "svg", "iframe")


def _bucket_hash(token: str, buckets: int) -> int:
    digest = hashlib.md5(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % buckets


@dataclass(frozen=True)
class VisualSignature:
    """Fixed-length visual summary of a rendered page."""

    vector: np.ndarray

    def distance(self, other: "VisualSignature") -> float:
        """Euclidean distance in signature space."""
        return float(np.linalg.norm(self.vector - other.vector))

    def similarity(self, other: "VisualSignature") -> float:
        """Similarity in (0, 1]: ``1 / (1 + distance)``."""
        return 1.0 / (1.0 + self.distance(other))


def region_signatures(
    doc_or_markup: Union[Document, str],
    max_regions: int = 24,
    min_subtree_size: int = 2,
) -> "list[VisualSignature]":
    """Signatures of the page's visual regions (DOM subtrees).

    The analogue of the region proposals a vision model extracts from a
    screenshot: every sufficiently large container subtree is rendered into
    its own signature, so a matcher can find a brand logo/panel inside an
    otherwise dissimilar page. Costs one signature computation per region —
    the dominant runtime of the visual baselines, as in their originals.
    """
    document = (
        doc_or_markup
        if isinstance(doc_or_markup, Document)
        else parse_html(doc_or_markup)
    )
    regions = []
    for element in document.elements:
        if len(element.children) >= min_subtree_size:
            regions.append(Document(root=element))
        if len(regions) >= max_regions:
            break
    return [render_signature(region) for region in regions]


def render_signature(doc_or_markup: Union[Document, str]) -> VisualSignature:
    """Render a document into its :class:`VisualSignature`.

    The vector layout (all values roughly unit-scaled):

    * ``[0:7]``   — counts of layout tags (log-scaled)
    * ``[7:15]``  — counts of content tags (log-scaled)
    * ``[15:19]`` — media / iframe structure
    * ``[19:23]`` — form geometry: forms, inputs, password inputs, buttons
    * ``[23:27]`` — brand block: hash buckets of title tokens
    * ``[27:31]`` — palette: hash buckets of style colour tokens
    * ``[31]``    — overall page size (log of markup length)
    """
    document = (
        doc_or_markup
        if isinstance(doc_or_markup, Document)
        else parse_html(doc_or_markup)
    )
    vector = np.zeros(SIGNATURE_DIM, dtype=np.float64)

    for i, tag in enumerate(_LAYOUT_TAGS):
        vector[i] = np.log1p(len(document.find_all(tag)))
    for i, tag in enumerate(_CONTENT_TAGS):
        vector[7 + i] = np.log1p(len(document.find_all(tag)))
    for i, tag in enumerate(_MEDIA_TAGS):
        vector[15 + i] = np.log1p(len(document.find_all(tag)))

    vector[19] = np.log1p(len(document.forms()))
    vector[20] = np.log1p(len(document.inputs()))
    vector[21] = np.log1p(len(document.password_inputs()))
    vector[22] = np.log1p(len(document.find_all("button")))

    for token in document.title.lower().split():
        vector[23 + _bucket_hash(token, 4)] += 0.5

    for element in document.elements:
        style = element.style_declarations()
        for prop in ("background", "background-color", "color"):
            value = style.get(prop)
            if value:
                vector[27 + _bucket_hash(value, 4)] += 0.25

    vector[31] = np.log1p(len(document.to_html())) / 4.0
    return VisualSignature(vector=vector)
