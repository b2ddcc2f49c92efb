"""Page facts: what every page reader takes from a document, read once.

Feature extraction (paper §4.2), threat intel, the §5.5 evasive-vector
heuristics, the browser and the search index all read the same few things
from a page. :func:`page_facts` walks a parsed :class:`~.dom.Document` once
and returns them as a frozen :class:`PageFacts`. Each rule — a credential
field, a button, a download link, a hidden FWB banner — is defined here and
nowhere else. Facts do not depend on the URL a page is served from, so one
value serves every observation of a page version.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

from .dom import Document, Element

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
_CALL_TO_ACTION_WORDS = ("continue", "login", "sign in", "verify", "claim")
_BANNER_TEXT_HINTS = (
    "powered by", "create your own", "create a free website", "made with",
    "report abuse", "blog at", "free website",
)


@dataclass(frozen=True)
class Anchor:
    """One ``<a>`` element, as the readers see it."""

    href: str  # the raw attribute, "" when absent
    button: bool  # a class containing "btn" or "button"
    call_to_action: bool  # a button, or worded like one ("continue", ...)
    download: bool  # a ``download`` attribute or a payload extension (§5.5)


@dataclass(frozen=True)
class PageFacts:
    """Everything the page readers use from one page version."""

    title: str  # the first ``<title>``'s text, stripped
    anchors: Tuple[Anchor, ...]
    iframe_srcs: Tuple[str, ...]  # raw ``src`` attributes
    form_actions: Tuple[str, ...]  # raw ``action`` attributes
    n_password_inputs: int
    n_credential_inputs: int  # inputs asking for sensitive data (§3)
    #: A form holds a password input, or the page has a form and at least
    #: two credential inputs.
    login_form: bool
    n_images: int
    markup_length: int
    #: A robots/googlebot ``noindex`` meta tag or a ``<noindex>`` element.
    noindex: bool
    #: Elements hidden inline (style or ``hidden`` attribute) or by a
    #: ``<style>`` rule.
    n_hidden: int
    #: A hidden element is an FWB banner, by class/id or by its text.
    hidden_banner: bool

    @property
    def has_credential_fields(self) -> bool:
        """A password input, or at least two credential inputs."""
        return self.n_password_inputs > 0 or self.n_credential_inputs >= 2


def _is_credential_input(element: Element, kind: str) -> bool:
    if kind in _SENSITIVE_INPUT_TYPES:
        return True
    name = (element.get("name") + " " + element.get("placeholder")).lower()
    return any(token in name for token in _SENSITIVE_INPUT_NAMES)


def _anchor(element: Element) -> Anchor:
    href = element.get("href")
    classes = " ".join(element.classes).lower()
    button = "btn" in classes or "button" in classes
    call_to_action = button
    if not button:
        text = element.text_content().lower()
        call_to_action = any(word in text for word in _CALL_TO_ACTION_WORDS)
    return Anchor(
        href=href,
        button=button,
        call_to_action=call_to_action,
        download=(
            element.has_attr("download")
            or href.lower().endswith(_DOWNLOAD_EXTENSIONS)
        ),
    )


def _looks_like_banner(element: Element) -> bool:
    if "fwb-banner" in element.classes or element.id == "fwb-banner":
        return True
    if element.tag in ("div", "footer"):
        text = element.text_content().lower()
        return any(hint in text for hint in _BANNER_TEXT_HINTS)
    return False


def page_facts(document: Document, markup: str) -> PageFacts:
    """Read the :class:`PageFacts` of ``document``, parsed from ``markup``.

    One walk over the document's elements; subtrees are read only for the
    title, ``<style>`` blocks, anchor text, hidden ``<div>``/``<footer>``
    text and, on pages whose credential inputs alone do not make a login
    form, the forms' inputs. Nothing recurses, so deep markup is safe.
    """
    anchors: List[Anchor] = []
    iframe_srcs: List[str] = []
    forms: List[Element] = []
    n_password = n_credential = n_images = 0
    noindex = False
    style_texts: List[str] = []
    hidden: List[Element] = []
    shown: List[Element] = []
    for element in document.elements:
        tag = element.tag
        if tag == "a":
            anchors.append(_anchor(element))
        elif tag == "input":
            kind = element.get("type").lower()
            n_password += kind == "password"
            n_credential += _is_credential_input(element, kind)
        elif tag == "form":
            forms.append(element)
        elif tag == "iframe":
            iframe_srcs.append(element.get("src"))
        elif tag == "img":
            n_images += 1
        elif tag == "meta":
            noindex = noindex or (
                element.get("name").lower() in ("robots", "googlebot")
                and "noindex" in element.get("content").lower()
            )
        elif tag == "noindex":
            noindex = True
        elif tag == "style":
            style_texts.append(element.text_content())
        (hidden if element.is_hidden() else shown).append(element)
    # A <style> rule hides its selector wherever the block sits, so the
    # elements it hides are picked out once every block has been read.
    selectors = {
        match.group(1)[1:] for text in style_texts for match in _HIDDEN_RULE.finditer(text)
    }
    if selectors:
        hidden += [
            e for e in shown if not selectors.isdisjoint(e.classes) or e.id in selectors
        ]
    return PageFacts(
        title=document.title,
        anchors=tuple(anchors),
        iframe_srcs=tuple(iframe_srcs),
        form_actions=tuple(form.get("action") for form in forms),
        n_password_inputs=n_password,
        n_credential_inputs=n_credential,
        login_form=bool(forms) and (n_credential >= 2 or any(
            form.find("input", lambda e: e.get("type").lower() == "password") is not None
            for form in forms
        )),
        n_images=n_images,
        markup_length=len(markup),
        noindex=noindex,
        n_hidden=len(hidden),
        hidden_banner=any(_looks_like_banner(e) for e in hidden),
    )
