"""Tiered verdict cache for the online serving layer.

Three tiers, cheapest-to-invalidate first:

* **exact** — normalized-URL → verdict, LRU with TTL. Holds *blocked*
  verdicts (feed or classifier).
* **domain** — FWB-subdomain host → blocked verdict. One phishing page on
  ``scam.weebly.com`` condemns every path on that host, which is how real
  blocklists treat FWB subdomains (the whole free site is the attacker's).
* **negative** — normalized-URL → ``ALLOWED``, a short-TTL benign cache so
  popular legitimate pages do not re-enter the snapshot pipeline every
  request.

Cache keys are **always** produced by :func:`cache_key` / :func:`domain_key`
over a parsed :class:`~repro.simnet.url.URL` — reprolint RP304 statically
rejects raw-string keys in the serve layer, because two spellings of the
same page (``HTTP://Site.Weebly.com`` vs ``http://site.weebly.com/``) must
hit the same cache line.

Invalidation is event-driven, and staleness is a *measured* outcome:

* :meth:`TieredVerdictCache.invalidate_blocked` — a blocklist / backend
  feed ingested the URL. A benign entry it displaces was a **stale allow**
  (the cache was letting users through to a now-confirmed attack).
* :meth:`TieredVerdictCache.invalidate_takedown` — an FWB abuse desk took
  the site down. Blocked entries it evicts were **stale blocks** (the
  cache kept charging for a site that no longer exists).

Both are counted separately (``serve.cache.stale_allow`` /
``serve.cache.stale_block``) so the SERVING.md staleness budget is
observable in telemetry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple, Union

from ..core.extension import NavigationVerdict
from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from ..simnet.url import URL, parse_url

#: Tier tags, also used in metric names (``serve.cache.hit.<tier>``).
TIER_EXACT = "exact"
TIER_DOMAIN = "domain"
TIER_NEGATIVE = "negative"

#: Per-tier bounds: entries kept (LRU beyond) and minutes an entry lives.
EXACT_CAPACITY = 50_000
EXACT_TTL_MINUTES = 24 * 60
DOMAIN_CAPACITY = 20_000
DOMAIN_TTL_MINUTES = 7 * 24 * 60
NEGATIVE_CAPACITY = 100_000
NEGATIVE_TTL_MINUTES = 6 * 60

_BLOCKED = (NavigationVerdict.BLOCKED_FEED, NavigationVerdict.BLOCKED_CLASSIFIER)


def cache_key(url: Union[URL, str]) -> str:
    """The canonical cache key for a URL: its *parsed* normalized string.

    Every key entering the serve layer goes through ``simnet.url`` parsing
    (lowercased host, ``/`` path default, stripped fragment/credentials),
    so look-alike spellings of one page share a cache line. Raw strings are
    parsed first; already-parsed URLs render directly.
    """
    if isinstance(url, URL):
        return str(url)
    return str(parse_url(url))


def domain_key(url: Union[URL, str]) -> str:
    """The domain-tier key: the full (FWB-subdomain) host."""
    if not isinstance(url, URL):
        url = parse_url(url)
    return url.host


@dataclass(frozen=True)
class CacheHit:
    """A verdict served from the cache, tagged with the tier that held it."""

    verdict: NavigationVerdict
    tier: str


def _hits(tier: str) -> Dict[NavigationVerdict, CacheHit]:
    return {verdict: CacheHit(verdict, tier) for verdict in NavigationVerdict}


#: The only ``CacheHit`` objects: one per (tier, verdict), shared by every
#: lookup, so a hit allocates nothing. Sharing is why ``CacheHit`` is frozen.
_EXACT_HITS = _hits(TIER_EXACT)
_DOMAIN_HITS = _hits(TIER_DOMAIN)
_NEGATIVE_HITS = _hits(TIER_NEGATIVE)


class _LruTtlTier:
    """One cache tier: ordered dict with LRU eviction and per-entry TTL.

    ``on_drop`` is called with every key that leaves the tier, whether by
    TTL expiry, LRU eviction or :meth:`evict`.
    """

    def __init__(self, name: str, capacity: int, ttl_minutes: int,
                 on_drop: Optional[Callable[[str], None]] = None) -> None:
        self.name = name
        self.capacity = capacity
        self.ttl_minutes = ttl_minutes
        self._entries: "OrderedDict[str, Tuple[NavigationVerdict, int]]" = OrderedDict()
        self._on_drop = on_drop

    def get(self, key: str, now: int) -> Optional[NavigationVerdict]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        verdict, stored_at = entry
        if now - stored_at >= self.ttl_minutes:
            del self._entries[key]
            self._dropped(key)
            return None
        self._entries.move_to_end(key)
        return verdict

    def put(self, key: str, verdict: NavigationVerdict, now: int) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (verdict, now)
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._dropped(evicted)

    def evict(self, key: str) -> Optional[NavigationVerdict]:
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        self._dropped(key)
        return entry[0]

    def _dropped(self, key: str) -> None:
        if self._on_drop is not None:
            self._on_drop(key)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


class TieredVerdictCache:
    """Exact + domain + negative verdict tiers with event-driven invalidation."""

    def __init__(self, instrumentation: Optional[Instrumentation] = None) -> None:
        instr = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        self.exact = _LruTtlTier(
            TIER_EXACT, EXACT_CAPACITY, EXACT_TTL_MINUTES, self._unindex
        )
        self.domain = _LruTtlTier(TIER_DOMAIN, DOMAIN_CAPACITY, DOMAIN_TTL_MINUTES)
        self.negative = _LruTtlTier(
            TIER_NEGATIVE, NEGATIVE_CAPACITY, NEGATIVE_TTL_MINUTES, self._unindex
        )
        #: host → keys the exact or negative tier holds for it (invalidation
        #: index); a key leaves it with the last of those tiers to drop it.
        self._host_keys: Dict[str, Set[str]] = {}
        self._c_hit = {
            TIER_EXACT: instr.counter(f"serve.cache.hit.{TIER_EXACT}"),
            TIER_DOMAIN: instr.counter(f"serve.cache.hit.{TIER_DOMAIN}"),
            TIER_NEGATIVE: instr.counter(f"serve.cache.hit.{TIER_NEGATIVE}"),
        }
        self._c_miss = instr.counter("serve.cache.miss")
        self._c_stale_allow = instr.counter("serve.cache.stale_allow")
        self._c_stale_block = instr.counter("serve.cache.stale_block")
        self._c_invalidations = instr.counter("serve.cache.invalidations")

    # -- request path ---------------------------------------------------------

    def lookup(self, url: URL, now: int) -> Optional[CacheHit]:
        """Tiered lookup: exact, then domain, then negative."""
        key = cache_key(url)
        verdict = self.exact.get(key, now)
        if verdict is not None:
            self._c_hit[TIER_EXACT].inc()
            return _EXACT_HITS[verdict]
        host_verdict = self.domain.get(domain_key(url), now)
        if host_verdict is not None:
            self._c_hit[TIER_DOMAIN].inc()
            return _DOMAIN_HITS[host_verdict]
        benign = self.negative.get(key, now)
        if benign is not None:
            self._c_hit[TIER_NEGATIVE].inc()
            return _NEGATIVE_HITS[benign]
        self._c_miss.inc()
        return None

    def store(self, url: URL, verdict: NavigationVerdict, now: int) -> None:
        """Record a freshly computed verdict in the appropriate tiers.

        ``UNREACHABLE`` is never cached: a site that was down for one
        request may resolve on the next, and a stale unreachable entry
        would mask both outcomes.
        """
        key = cache_key(url)
        host = domain_key(url)
        if verdict in _BLOCKED:
            self.exact.put(key, verdict, now)
            self.domain.put(host, verdict, now)
            self._host_keys.setdefault(host, set()).add(key)
        elif verdict is NavigationVerdict.ALLOWED:
            self.negative.put(key, verdict, now)
            self._host_keys.setdefault(host, set()).add(key)

    # -- event-driven invalidation -------------------------------------------

    def invalidate_blocked(self, url: Union[URL, str]) -> int:
        """A blocklist / backend feed ingested ``url``: purge benign entries.

        Returns the number of **stale allows** detected — cached benign
        entries that were letting users through to a now-confirmed attack.
        The next lookup misses and re-resolves through the feed.
        """
        key = cache_key(url)
        stale = 1 if self.negative.evict(key) is not None else 0
        # ``store`` keeps ALLOWED in the negative tier only, so the exact
        # tier can hold no stale allow; its blocked entry is dropped anyway.
        self.exact.evict(key)
        self._c_stale_allow.inc(stale)
        self._c_invalidations.inc()
        return stale

    def invalidate_takedown(self, url: Union[URL, str]) -> int:
        """An FWB abuse desk took the site down: purge its host's entries.

        Returns the number of **stale blocks** — blocked verdicts the
        cache would have kept serving for a site that no longer exists.
        Benign entries for the host are dropped too (the pages are gone)
        but are not counted as stale blocks.
        """
        host = domain_key(url)
        stale = 0
        if self.domain.evict(host) in _BLOCKED:
            stale += 1
        for key in sorted(self._host_keys.pop(host, ())):
            if self.exact.evict(key) in _BLOCKED:
                stale += 1
            self.negative.evict(key)
        self._c_stale_block.inc(stale)
        self._c_invalidations.inc()
        return stale

    def _unindex(self, key: str) -> None:
        """Drop ``key`` from the host index once neither URL tier holds it."""
        if key in self.exact or key in self.negative:
            return
        host = domain_key(key)
        keys = self._host_keys.get(host)
        if keys is None:
            return
        keys.discard(key)
        if not keys:
            del self._host_keys[host]

    # -- introspection --------------------------------------------------------

    def sizes(self) -> Dict[str, int]:
        return {
            TIER_EXACT: len(self.exact),
            TIER_DOMAIN: len(self.domain),
            TIER_NEGATIVE: len(self.negative),
        }
