"""Simulated search-engine index.

The paper (§3, "Increased Difficulty of Discovery") finds that only 4.1% of
FWB phishing URLs were indexed by Google: subdomain sites with no incoming
links are not crawled, and 44.7% carried a ``<noindex>`` meta tag. Several
anti-phishing crawlers mine search indexes for fresh attacks, so absence
from the index is an evasion channel.

The index models exactly that policy: a submitted page is indexed only if
it has at least one incoming link (or is explicitly submitted as linked)
**and** does not request ``noindex``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from ..webdoc import page_facts, parse_html
from .url import URL


@dataclass
class IndexEntry:
    url: URL
    indexed_at: int
    title: str


class SearchIndex:
    """A toy Google: indexes pages subject to linking/noindex policy."""

    def __init__(self) -> None:
        self._entries: Dict[str, IndexEntry] = {}
        self._incoming_links: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def record_incoming_link(self, url: URL) -> None:
        """Another page (or a crawled social post) links to ``url``."""
        key = str(url.root())
        self._incoming_links[key] = self._incoming_links.get(key, 0) + 1

    def incoming_links(self, url: URL) -> int:
        return self._incoming_links.get(str(url.root()), 0)

    def submit(self, url: URL, markup: str, now: int) -> bool:
        """Attempt to index ``url``; returns whether it was indexed.

        Refuses pages with a ``noindex`` directive and pages that no other
        site links to (the common state of a phishing subdomain).
        """
        facts = page_facts(parse_html(markup), markup)
        if facts.noindex:
            return False
        if self.incoming_links(url) == 0:
            return False
        key = str(url.root())
        if key not in self._entries:
            self._entries[key] = IndexEntry(
                url=url.root(), indexed_at=now, title=facts.title
            )
        return True

    def is_indexed(self, url: URL) -> bool:
        return str(url.root()) in self._entries

    def remove(self, url: URL) -> None:
        self._entries.pop(str(url.root()), None)

    def search_hosts(self, substring: str) -> Set[str]:
        """All indexed hosts containing ``substring`` (crawler discovery)."""
        substring = substring.lower()
        return {
            entry.url.host
            for entry in self._entries.values()
            if substring in entry.url.host or substring in entry.title.lower()
        }
