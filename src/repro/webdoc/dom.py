"""DOM node model.

Feature extraction (paper §4.2) needs structural queries over pages: count
links and classify them internal/external/empty, find login forms and
password inputs, detect ``<noindex>`` meta tags, and spot FWB banners hidden
with ``visibility:hidden``. The classes here provide exactly those traversal
and inspection primitives over a parsed document tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (
    AbstractSet, Callable, Dict, Iterator, List, Optional, Tuple, Union,
)

VOID_TAGS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "param", "source", "track", "wbr"}
)

#: A ``<style>`` rule suppressing a class/id selector's display or visibility.
_HIDDEN_RULE = re.compile(
    r"([.#][\w-]+)\s*\{[^}]*(?:display\s*:\s*none|"
    r"visibility\s*:\s*hidden)[^}]*\}",
    re.IGNORECASE,
)

_SENSITIVE_INPUT_TYPES = frozenset({"password", "email", "tel"})
_SENSITIVE_INPUT_NAMES = (
    "pass", "email", "user", "login", "ssn", "card", "cvv",
    "account", "pin", "phone", "address", "social",
)
_DOWNLOAD_EXTENSIONS = (".exe", ".zip", ".apk", ".scr", ".iso", ".docm", ".xlsm", ".msi")


@dataclass
class TextNode:
    """A run of character data."""

    text: str

    def to_html(self) -> str:
        return self.text

    def text_content(self) -> str:
        return self.text


@dataclass
class Element:
    """An HTML element with attributes and ordered children."""

    tag: str
    attrs: Dict[str, str] = field(default_factory=dict)
    children: List[Union["Element", TextNode]] = field(default_factory=list)

    # -- construction ---------------------------------------------------------

    def append(self, node: Union["Element", TextNode]) -> "Element":
        self.children.append(node)
        return self

    def append_text(self, text: str) -> "Element":
        self.children.append(TextNode(text))
        return self

    # -- attribute helpers ----------------------------------------------------

    def get(self, name: str, default: str = "") -> str:
        return self.attrs.get(name.lower(), default)

    def has_attr(self, name: str) -> bool:
        return name.lower() in self.attrs

    @property
    def id(self) -> str:
        return self.get("id")

    @property
    def classes(self) -> List[str]:
        return self.get("class").split()

    def style_declarations(self) -> Dict[str, str]:
        """Parse the inline ``style`` attribute into property → value."""
        result: Dict[str, str] = {}
        for chunk in self.get("style").split(";"):
            if ":" in chunk:
                prop, _, value = chunk.partition(":")
                result[prop.strip().lower()] = value.strip().lower()
        return result

    def is_hidden(self) -> bool:
        """Hidden inline: ``visibility:hidden`` or ``display:none`` in the
        ``style`` attribute, or a ``hidden`` attribute, bare or with a value.

        The paper highlights phishers hiding FWB banners by injecting a
        ``visibility:hidden`` declaration into the banner's ``<div>``.
        """
        if "style" in self.attrs:
            style = self.style_declarations()
            if style.get("visibility") == "hidden" or style.get("display") == "none":
                return True
        return "hidden" in self.attrs

    def matches_any(self, selectors: AbstractSet[str]) -> bool:
        """Does this element's class or id appear in ``selectors``?"""
        return bool(
            selectors
            and (not selectors.isdisjoint(self.classes) or self.id in selectors)
        )

    # -- traversal ------------------------------------------------------------

    def iter(self) -> Iterator["Element"]:
        """Depth-first pre-order iteration over this element and its descendants.

        Walks an explicit stack, so arbitrarily deep markup cannot exhaust
        the interpreter's recursion limit.
        """
        stack: List[Union[Element, TextNode]] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Element):
                yield node
                stack.extend(reversed(node.children))

    def find_all(
        self,
        tag: Optional[str] = None,
        predicate: Optional[Callable[["Element"], bool]] = None,
    ) -> List["Element"]:
        out = []
        for element in self.iter():
            if tag is not None and element.tag != tag:
                continue
            if predicate is not None and not predicate(element):
                continue
            out.append(element)
        return out

    def find(
        self,
        tag: Optional[str] = None,
        predicate: Optional[Callable[["Element"], bool]] = None,
    ) -> Optional["Element"]:
        for element in self.iter():
            if tag is not None and element.tag != tag:
                continue
            if predicate is not None and not predicate(element):
                continue
            return element
        return None

    def text_content(self) -> str:
        parts = []
        stack: List[Union[Element, TextNode]] = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if isinstance(node, TextNode):
                parts.append(node.text)
            else:
                stack.extend(reversed(node.children))
        return "".join(parts)

    # -- serialization ----------------------------------------------------------

    def to_html(self) -> str:
        parts = []
        # Nodes still to emit, interleaved with the end tags (plain strings)
        # of the elements already opened.
        stack: List[Union[Element, TextNode, str]] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
            elif isinstance(node, TextNode):
                parts.append(node.text)
            else:
                attrs = "".join(
                    f' {name}="{value}"' if value != "" else f" {name}"
                    for name, value in node.attrs.items()
                )
                parts.append(f"<{node.tag}{attrs}>")
                if node.tag not in VOID_TAGS:
                    stack.append(f"</{node.tag}>")
                    stack.extend(reversed(node.children))
        return "".join(parts)


def is_password_input(element: Element) -> bool:
    return element.get("type").lower() == "password"


def is_credential_input(element: Element) -> bool:
    """Does an input ask for sensitive data (§3: email, password, SSN...)?"""
    if element.get("type").lower() in _SENSITIVE_INPUT_TYPES:
        return True
    name = (element.get("name") + " " + element.get("placeholder")).lower()
    return any(token in name for token in _SENSITIVE_INPUT_NAMES)


def is_download_link(element: Element) -> bool:
    """Does an anchor trigger a file download (the §5.5 drive-by vector)?"""
    if element.has_attr("download"):
        return True
    return element.get("href").lower().endswith(_DOWNLOAD_EXTENSIONS)


@dataclass
class Document:
    """A parsed HTML document.

    Read-only once built: the first query walks the tree once and memoizes
    its elements in pre-order, and every query filters that tuple. Mutating
    the tree afterwards leaves the queries answering for the old tree.
    """

    root: Element
    _elements: Optional[Tuple[Element, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def elements(self) -> Tuple[Element, ...]:
        """Every element of the document, in depth-first pre-order."""
        if self._elements is None:
            self._elements = tuple(self.root.iter())
        return self._elements

    @property
    def title(self) -> str:
        node = self.find("title")
        return node.text_content().strip() if node is not None else ""

    def find_all(
        self,
        tag: Optional[str] = None,
        predicate: Optional[Callable[[Element], bool]] = None,
    ) -> List[Element]:
        elements = self.elements
        if tag is not None:
            elements = [e for e in elements if e.tag == tag]
        if predicate is not None:
            return [e for e in elements if predicate(e)]
        return list(elements)

    def find(
        self,
        tag: Optional[str] = None,
        predicate: Optional[Callable[[Element], bool]] = None,
    ) -> Optional[Element]:
        for element in self.elements:
            if tag is not None and element.tag != tag:
                continue
            if predicate is not None and not predicate(element):
                continue
            return element
        return None

    def text_content(self) -> str:
        return self.root.text_content()

    def to_html(self) -> str:
        return "<!DOCTYPE html>" + self.root.to_html()

    # -- page-level queries used across the library ----------------------------

    def links(self) -> List[Element]:
        return self.find_all("a")

    def forms(self) -> List[Element]:
        return self.find_all("form")

    def inputs(self) -> List[Element]:
        return self.find_all("input")

    def iframes(self) -> List[Element]:
        return self.find_all("iframe")

    def meta_tags(self) -> List[Element]:
        return self.find_all("meta")

    def stylesheet_hidden_selectors(self) -> List[str]:
        """Class/id selectors hidden by embedded ``<style>`` rules.

        Phishers hide FWB banners not only with inline styles but also by
        injecting stylesheet rules (``.fwb-banner{display:none}``); this
        scans every ``<style>`` block for display/visibility suppression
        and returns the affected simple selectors (without ``.``/``#``).
        """
        return [
            match.group(1)[1:]
            for style in self.find_all("style")
            for match in _HIDDEN_RULE.finditer(style.text_content())
        ]

    def is_element_hidden(self, element: Element) -> bool:
        """Hidden by inline style *or* by an embedded stylesheet rule."""
        return element.is_hidden() or element.matches_any(
            set(self.stylesheet_hidden_selectors())
        )

    def hidden_elements(self) -> List[Element]:
        """Elements suppressed by either hiding mechanism, in pre-order.

        The ``<style>`` blocks are scanned once per call, not once per
        element.
        """
        selectors = set(self.stylesheet_hidden_selectors())
        return [e for e in self.elements if e.is_hidden() or e.matches_any(selectors)]

    def has_hidden_elements(self) -> bool:
        """Does any element get suppressed, by either hiding mechanism?"""
        return bool(self.hidden_elements())

    def has_noindex(self) -> bool:
        """Is search-engine indexing blocked via a robots noindex meta tag?"""
        for meta in self.meta_tags():
            name = meta.get("name").lower()
            content = meta.get("content").lower()
            if name in ("robots", "googlebot") and "noindex" in content:
                return True
        # Some generators emit a literal (non-standard) <noindex> element.
        return self.find("noindex") is not None

    def password_inputs(self) -> List[Element]:
        return self.find_all("input", predicate=is_password_input)

    def credential_inputs(self) -> List[Element]:
        """Inputs asking for sensitive data (§3: email, password, SSN...)."""
        return self.find_all("input", predicate=is_credential_input)

    def download_links(self) -> List[Element]:
        """Anchors that trigger file downloads (the §5.5 drive-by vector)."""
        return self.find_all("a", predicate=is_download_link)
