"""A strict-subset HTML lexer that drives :class:`~.parser._DomBuilder`.

:class:`html.parser.HTMLParser` defines what a page parses to; this module
only gets there faster. It tokenizes markup that stays inside a subset on
which the stdlib parsers of 3.9 through 3.13 agree, leaving out what later
security releases changed (comments, CDATA, raw-text end tags, raw and
escapable text elements), and calls the builder's
``handle_starttag``/``handle_startendtag``/``handle_endtag``/``handle_data``
exactly as ``HTMLParser(convert_charrefs=True)`` would for that input. At
the first construct outside the subset it raises :class:`OutsideSubset`;
the caller throws the half-built tree away and reparses the whole page
with ``HTMLParser``.

The subset:

* text without ``<`` or NUL, unescaped only when it contains ``&``;
* start tags ``<name attr attr="value">`` with whitespace-separated
  attributes that are bare or double-quoted without ``<`` or NUL; names
  are lower-cased, values unescaped only when they contain ``&``. Only
  void elements (``<br/>``) may close with ``/>``, where a start tag and
  a start-end tag build the same tree;
* end tags of exactly the form ``</name>``;
* ``<!DOCTYPE ...>`` made of letters and spaces;
* ``<script>``/``<style>`` whose raw content has no ``<`` and ends at an
  exact ``</script>``/``</style>``, handed over unescaped.

Everything else falls back: comments, ``<!...``, ``<?...``, single-quoted
or unquoted values, ``<`` in text, end tags with spaces or attributes.
Elements that newer parsers read as raw or escapable text (``title``,
``textarea``, ``iframe``, ...) are accepted only when their content is
plain text up to an exact end tag, so old and new readings coincide.
"""

from __future__ import annotations

import re
from html import unescape
from typing import List, Optional, Tuple

from .dom import VOID_TAGS

_WS = "[ \t\n\r\f]"
#: Zero or more whitespace-separated attributes, bare or double-quoted.
_ATTRS = rf'(?:{_WS}+[a-zA-Z_:][-.a-zA-Z0-9_:]*(?:="[^"<\x00]*")?)*'

#: Elements whose content is not ordinary markup for every parser. Script
#: and style content is raw everywhere. Newer parsers read title and
#: textarea as escapable text (charrefs decoded) and the rest as raw text,
#: so their content must be plain text, and raw text free of ``&``, for the
#: old and new readings to agree. ``plaintext`` never ends: it falls back.
_RAW = frozenset({"script", "style"})
_ESCAPABLE = frozenset({"title", "textarea"})
_RAWTEXT = frozenset({"iframe", "noembed", "noframes", "noscript", "xmp"})
_CONTENT_TAGS = _RAW | _ESCAPABLE | _RAWTEXT | {"plaintext"}

#: One token per match, told apart by ``lastindex``: a text run (1), an
#: element of text content up to its exact end tag (4), a start tag (7), an
#: end tag (8), a doctype (``None``) or, when nothing else matches, one
#: character outside the subset (9). Every position matches, so the tokens
#: tile the markup.
_TOKEN = re.compile(
    r"([^<\x00]+)"
    rf"|<({'|'.join(sorted(_RAW | _ESCAPABLE | _RAWTEXT))})({_ATTRS}){_WS}*>([^<\x00]*)</\2>"
    rf"|<([a-zA-Z][a-zA-Z0-9-]*)({_ATTRS}){_WS}*(/?)>"
    r"|</([a-zA-Z][a-zA-Z0-9-]*)>"
    r"|<![Dd][Oo][Cc][Tt][Yy][Pp][Ee][ a-zA-Z]*>"
    r"|([\s\S])"
)
_ATTR = re.compile(r'([a-zA-Z_:][-.a-zA-Z0-9_:]*)(?:(=)"([^"]*)")?')


class OutsideSubset(Exception):
    """The markup leaves the lexer's subset; reparse with ``HTMLParser``."""


def _attrs(attr_text: str) -> List[Tuple[str, Optional[str]]]:
    """``(name, value)`` pairs as ``HTMLParser`` reports them."""
    return [
        (name.lower(), (unescape(value) if "&" in value else value) if eq else None)
        for name, eq, value in _ATTR.findall(attr_text)
    ]


def lex(markup: str, builder) -> None:
    """Feed ``markup`` to ``builder``'s callbacks, or raise :class:`OutsideSubset`."""
    data = builder.handle_data
    starttag = builder.handle_starttag
    endtag = builder.handle_endtag
    for m in _TOKEN.finditer(markup):
        kind = m.lastindex
        if kind == 7:
            tag = m[5].lower()
            if tag in _CONTENT_TAGS:
                raise OutsideSubset(m.start())
            attr_text = m[6]
            attrs = _attrs(attr_text) if attr_text else []
            if not m[7]:
                starttag(tag, attrs)
            elif tag in VOID_TAGS:
                builder.handle_startendtag(tag, attrs)
            else:
                raise OutsideSubset(m.start())
        elif kind == 8:
            endtag(m[8].lower())
        elif kind == 1:
            text = m[1]
            data(unescape(text) if "&" in text else text)
        elif kind == 4:
            tag, content = m[2], m[4]
            attr_text = m[3]
            starttag(tag, _attrs(attr_text) if attr_text else [])
            if content:
                if "&" in content:
                    if tag in _RAWTEXT:
                        raise OutsideSubset(m.start())
                    if tag in _ESCAPABLE:
                        content = unescape(content)
                data(content)
            endtag(tag)
        elif kind == 9:
            raise OutsideSubset(m.start())
