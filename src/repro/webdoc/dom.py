"""DOM node model.

The tree a parse builds, with the traversal and inspection primitives over
it: pre-order iteration, tag/predicate search, text content, inline-style
hiding, serialization. What the page readers need from a page is read from
this tree once, by :func:`.facts.page_facts`; the tree itself serves that
builder, the visual signature renderer and the visual baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

VOID_TAGS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "param", "source", "track", "wbr"}
)


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
