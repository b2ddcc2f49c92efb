"""HTML document substrate.

A small DOM model, a tolerant HTML parser built on :mod:`html.parser`, the
one-walk :class:`PageFacts` every page reader uses, a renderer that turns
documents into visual signatures (stand-ins for the screenshots the
paper's visual baselines consume), and the Appendix-A Levenshtein-based
code-similarity metric.
"""

from .dom import Element, TextNode, Document
from .facts import Anchor, PageFacts, page_facts
from .parser import parse_html
from .render import VisualSignature, render_signature
from .similarity import (
    levenshtein,
    levenshtein_ratio,
    tag_sequence,
    website_similarity,
)

__all__ = [
    "Element",
    "TextNode",
    "Document",
    "Anchor",
    "PageFacts",
    "page_facts",
    "parse_html",
    "VisualSignature",
    "render_signature",
    "levenshtein",
    "levenshtein_ratio",
    "tag_sequence",
    "website_similarity",
]
