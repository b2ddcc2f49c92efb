"""URL model and parsing for the simulated web.

The paper's feature extraction (§4.2) and FWB identification both operate on
URL *strings*: second-level-domain extraction identifies the FWB service a
site is hosted on (e.g. ``mysite.weebly.com`` → ``weebly``), and eight of the
classifier's features are URL-derived. This module provides a small, strict
URL value type tailored to those needs — it is not a general RFC 3986
implementation, but it handles everything the generators emit and everything
the paper's regex-based extractor would encounter in social-media posts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

from ..errors import URLError

# Multi-label public suffixes we must treat as a single TLD unit so that
# e.g. ``example.co.uk`` yields registered domain ``example.co.uk``.
_MULTI_SUFFIXES = frozenset(
    {
        "co.uk",
        "org.uk",
        "ac.uk",
        "com.au",
        "com.br",
        "co.in",
        "co.jp",
        "com.mx",
    }
)

_SCHEME_RE = re.compile(r"^(?P<scheme>[a-zA-Z][a-zA-Z0-9+.-]*)://")
_HOST_LABEL_RE = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?$")

#: Regex used by the streaming module to pull URLs out of post text
#: (paper §4.1 extracts URLs from tweets/posts with a regular expression).
URL_IN_TEXT_RE = re.compile(
    r"https?://[a-zA-Z0-9.-]+(?::\d+)?(?:/[^\s\"'<>)\]]*)?",
)


@dataclass(frozen=True)
class URL:
    """A parsed URL.

    Attributes
    ----------
    scheme:
        ``http`` or ``https``.
    host:
        Full lowercase hostname, e.g. ``login-paypa1.weebly.com``.
    path:
        Path beginning with ``/`` (``/`` for the root).
    query:
        Query string without the leading ``?`` (empty if absent).
    """

    scheme: str
    host: str
    path: str = "/"
    query: str = ""

    def __post_init__(self) -> None:
        if self.scheme not in ("http", "https"):
            raise URLError(f"unsupported scheme: {self.scheme!r}")
        if not self.host:
            raise URLError("empty host")
        for label in self.host.split("."):
            if not _HOST_LABEL_RE.match(label):
                raise URLError(f"invalid host label {label!r} in {self.host!r}")
        if len(self.host.split(".")) < 2:
            raise URLError(f"host must contain at least two labels: {self.host!r}")
        if not self.path.startswith("/"):
            raise URLError(f"path must start with '/': {self.path!r}")

    # -- structural accessors ------------------------------------------------

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(self.host.split("."))

    @property
    def tld(self) -> str:
        """The public suffix, e.g. ``com`` or ``co.uk``."""
        labels = self.labels
        if len(labels) >= 2 and ".".join(labels[-2:]) in _MULTI_SUFFIXES:
            return ".".join(labels[-2:])
        return labels[-1]

    @property
    def registered_domain(self) -> str:
        """The registrable domain: one label plus the public suffix.

        ``mysite.weebly.com`` → ``weebly.com``;
        ``shop.example.co.uk`` → ``example.co.uk``.
        """
        suffix = self.tld
        n_suffix = suffix.count(".") + 1
        labels = self.labels
        if len(labels) <= n_suffix:
            raise URLError(f"host {self.host!r} is a bare public suffix")
        return ".".join(labels[-(n_suffix + 1):])

    @property
    def second_level_domain(self) -> str:
        """The label left of the public suffix (the paper's SLD notion).

        For ``mywebsite.000webhost.com`` this is ``000webhost`` — the paper
        uses it to identify the hosting FWB service.
        """
        return self.registered_domain.split(".")[0]

    @property
    def subdomain(self) -> str:
        """Labels left of the registered domain (empty string if none)."""
        reg = self.registered_domain
        if self.host == reg:
            return ""
        return self.host[: -(len(reg) + 1)]

    @property
    def has_subdomain(self) -> bool:
        return bool(self.subdomain)

    @property
    def depth(self) -> int:
        """Number of non-empty path segments."""
        return len([seg for seg in self.path.split("/") if seg])

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        """The rendered URL, formatted once per object.

        Cache, intel, blocklist and VirusTotal keys are all ``str(url)``,
        so a URL served many times would otherwise be formatted per use.
        The memo lives in the instance ``__dict__``; equality and hashing
        still come from the four fields alone.
        """
        base = f"{self.scheme}://{self.host}{self.path}"
        if self.query:
            return f"{base}?{self.query}"
        return base

    def with_path(self, path: str) -> "URL":
        return URL(self.scheme, self.host, path, self.query)

    def root(self) -> "URL":
        """The site root (path ``/``, no query)."""
        return URL(self.scheme, self.host, "/", "")


def parse_url(text: str) -> URL:
    """Parse a URL string into a :class:`URL`.

    Raises :class:`~repro.errors.URLError` on anything malformed. Hostnames
    are lowercased; an absent path becomes ``/``.
    """
    if not isinstance(text, str) or not text.strip():
        raise URLError("empty URL")
    text = text.strip()
    match = _SCHEME_RE.match(text)
    if not match:
        raise URLError(f"missing scheme in {text!r}")
    scheme = match.group("scheme").lower()
    rest = text[match.end():]
    if not rest:
        raise URLError(f"missing host in {text!r}")

    for cut in ("/", "?", "#"):
        idx = rest.find(cut)
        if idx != -1:
            host_part, tail = rest[:idx], rest[idx:]
            break
    else:
        host_part, tail = rest, ""

    # Strip port and credentials if present; the simulation never uses them
    # but attacker URLs sometimes carry a deceptive ``user@`` prefix.
    if "@" in host_part:
        host_part = host_part.rsplit("@", 1)[1]
    if ":" in host_part:
        host_part = host_part.split(":", 1)[0]
    host = host_part.lower().rstrip(".")

    path, query = "/", ""
    if tail.startswith("/") or tail.startswith("?") or tail.startswith("#"):
        frag_idx = tail.find("#")
        if frag_idx != -1:
            tail = tail[:frag_idx]
        if tail.startswith("?"):
            path, query = "/", tail[1:]
        elif tail:
            q_idx = tail.find("?")
            if q_idx != -1:
                path, query = tail[:q_idx], tail[q_idx + 1:]
            else:
                path = tail
    return URL(scheme=scheme, host=host, path=path or "/", query=query)


def extract_urls(text: str) -> List[URL]:
    """Extract every parseable URL from free-form post text.

    Mirrors the streaming module's regex extraction (§4.1): find candidate
    ``http(s)`` substrings, parse them, and silently drop candidates that do
    not survive strict parsing (truncated links, punctuation run-ins).
    """
    found: List[URL] = []
    for raw in URL_IN_TEXT_RE.findall(text or ""):
        raw = raw.rstrip(".,;:!")
        try:
            found.append(parse_url(raw))
        except URLError:
            continue
    return found


# -- URL string features (shared by feature extractors) ----------------------

SUSPICIOUS_SYMBOLS = "@-_~%"

SENSITIVE_VOCABULARY = (
    "login",
    "signin",
    "sign-in",
    "verify",
    "verification",
    "secure",
    "security",
    "account",
    "update",
    "confirm",
    "banking",
    "password",
    "webscr",
    "auth",
    "wallet",
    "recover",
    "unlock",
    "support",
    "billing",
    "invoice",
)


def count_suspicious_symbols(url: URL) -> int:
    """Count occurrences of symbols phishers use for look-alike URLs."""
    text = str(url)
    return sum(text.count(symbol) for symbol in SUSPICIOUS_SYMBOLS)


def count_sensitive_words(url: URL) -> int:
    """Count sensitive vocabulary hits anywhere in the URL string."""
    text = str(url).lower()
    return sum(1 for word in SENSITIVE_VOCABULARY if word in text)


def count_digits(url: URL) -> int:
    return sum(ch.isdigit() for ch in str(url))


@dataclass(frozen=True)
class URLStringStats:
    """Precomputed lexical statistics for one URL string."""

    length: int
    n_dots: int
    n_digits: int
    n_suspicious: int
    n_sensitive: int
    subdomain_labels: int
    path_depth: int
    has_query: bool

    @classmethod
    def of(cls, url: URL) -> "URLStringStats":
        return cls(
            length=len(str(url)),
            n_dots=str(url).count("."),
            n_digits=count_digits(url),
            n_suspicious=count_suspicious_symbols(url),
            n_sensitive=count_sensitive_words(url),
            subdomain_labels=len(url.subdomain.split(".")) if url.subdomain else 0,
            path_depth=url.depth,
            has_query=bool(url.query),
        )
