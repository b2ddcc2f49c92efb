"""Tolerant HTML → DOM parser.

Built on the standard library's :class:`html.parser.HTMLParser`; handles the
slightly irregular markup real (and simulated) phishing pages contain:
unclosed tags, stray end tags, void elements, and non-standard elements such
as ``<noindex>``. The output is always a single :class:`Document` whose root
is an ``html`` element containing ``head`` and ``body``.
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import List, Optional, Tuple

from ..errors import ParseError
from .dom import Document, Element, TextNode, VOID_TAGS
from .lexer import OutsideSubset, lex

# Elements whose end tag is commonly omitted; closing them implicitly when a
# sibling opens keeps the tree sane.
_IMPLICIT_CLOSE = {
    "li": {"li"},
    "p": {"p", "div", "ul", "ol", "table", "form", "h1", "h2", "h3"},
    "option": {"option"},
    "tr": {"tr"},
    "td": {"td", "tr"},
    "th": {"th", "tr"},
}


class _DomBuilder(HTMLParser):
    """Builds the element tree from :class:`HTMLParser` callbacks.

    :func:`.lexer.lex` makes the same calls for markup inside its subset.
    Both hand over tag and attribute names already lower-cased.
    """

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Element("html")
        self._stack: List[Element] = [self.root]

    def updatepos(self, i: int, j: int) -> int:
        # Skip the base class's line/column bookkeeping: nothing reads
        # getpos(), and counting newlines is a measurable share of a parse.
        return j

    # -- HTMLParser callbacks ---------------------------------------------------

    def handle_starttag(self, tag: str, attrs: List[Tuple[str, Optional[str]]]) -> None:
        stack = self._stack
        closers = _IMPLICIT_CLOSE.get(stack[-1].tag)
        if closers and tag in closers:
            stack.pop()
        element = Element(tag, {name: "" if value is None else value for name, value in attrs})
        stack[-1].children.append(element)
        if tag not in VOID_TAGS:
            stack.append(element)

    def handle_startendtag(self, tag: str, attrs: List[Tuple[str, Optional[str]]]) -> None:
        self._stack[-1].children.append(
            Element(tag, {name: "" if value is None else value for name, value in attrs})
        )

    def handle_endtag(self, tag: str) -> None:
        if tag in VOID_TAGS:
            return
        # Close up to the matching open tag; ignore strays.
        stack = self._stack
        for i in range(len(stack) - 1, 0, -1):
            if stack[i].tag == tag:
                del stack[i:]
                return

    def handle_data(self, data: str) -> None:
        if data.strip():
            self._stack[-1].children.append(TextNode(data))

    def parse_marked_section(self, i: int, report: int = 1) -> int:
        # The base class raises on an unknown keyword (``<![invalid]>``);
        # skip such a section up to its ``>``, adding nothing.
        try:
            return super().parse_marked_section(i, report)
        except (AssertionError, NotImplementedError):
            end = self.rawdata.find(">", i + 3)
            return -1 if end < 0 else end + 1


def _ensure_head_body(root: Element) -> Element:
    """Normalize the tree to <html><head>...</head><body>...</body></html>."""
    if root.tag != "html":
        html = Element("html")
        html.append(root)
        root = html
    head = next((c for c in root.children if isinstance(c, Element) and c.tag == "head"), None)
    body = next((c for c in root.children if isinstance(c, Element) and c.tag == "body"), None)
    if head is not None and body is not None:
        return root

    head_tags = {"title", "meta", "link", "style", "base", "noindex"}
    new_head = head if head is not None else Element("head")
    new_body = body if body is not None else Element("body")
    for child in root.children:
        if child is head or child is body:
            continue
        if isinstance(child, Element) and child.tag in head_tags and body is None:
            new_head.append(child)
        else:
            new_body.append(child)
    root.children = [new_head, new_body]
    return root


def parse_html(markup: str) -> Document:
    """Parse HTML markup into a :class:`Document`.

    The tree is the one :class:`HTMLParser` builds on the running
    interpreter. Markup inside the :mod:`.lexer` subset is tokenized by the
    lexer, which drives the same builder callbacks; any other page is
    reparsed from scratch by ``HTMLParser``.

    Never raises on messy-but-textual input; raises
    :class:`~repro.errors.ParseError` only for non-string input.
    """
    if not isinstance(markup, str):
        raise ParseError(f"expected str markup, got {type(markup).__name__}")
    builder = _DomBuilder()
    try:
        lex(markup, builder)
    except OutsideSubset:
        builder = _DomBuilder()
        builder.feed(markup)
        builder.close()

    root = builder.root
    # If the document supplied its own <html>, unwrap our synthetic root.
    real_html = [
        child for child in root.children
        if isinstance(child, Element) and child.tag == "html"
    ]
    if len(real_html) == 1 and all(
        (isinstance(c, TextNode) and not c.text.strip()) or c in real_html
        for c in root.children
    ):
        root = real_html[0]
    return Document(root=_ensure_head_body(root))
