"""Tiered verdict cache: keys, tiers, TTL/LRU, event-driven invalidation."""

from repro.core.extension import NavigationVerdict
from repro.obs.instrument import Instrumentation
from repro.serve import cache as cache_module
from repro.serve.cache import (
    EXACT_TTL_MINUTES,
    NEGATIVE_TTL_MINUTES,
    TIER_DOMAIN,
    TIER_EXACT,
    TIER_NEGATIVE,
    TieredVerdictCache,
    cache_key,
    domain_key,
)
from repro.simnet.url import parse_url


class TestKeys:
    def test_cache_key_normalizes_spellings(self):
        assert cache_key("HTTP://Site.Weebly.COM") == cache_key(
            "http://site.weebly.com/"
        )
        assert cache_key("https://a.wixsite.com/page#frag") == cache_key(
            "https://a.wixsite.com/page"
        )

    def test_cache_key_accepts_parsed_urls(self):
        url = parse_url("https://a.weebly.com/login")
        assert cache_key(url) == str(url)

    def test_domain_key_is_the_fwb_subdomain_host(self):
        assert domain_key("https://scam.weebly.com/a/b") == "scam.weebly.com"
        assert domain_key(parse_url("https://Scam.Weebly.com/")) == "scam.weebly.com"


class TestTiers:
    def test_blocked_verdict_hits_exact_then_domain(self):
        cache = TieredVerdictCache()
        url = parse_url("https://scam.weebly.com/login")
        cache.store(url, NavigationVerdict.BLOCKED_CLASSIFIER, now=0)
        hit = cache.lookup(url, now=1)
        assert hit.tier == TIER_EXACT
        assert hit.verdict is NavigationVerdict.BLOCKED_CLASSIFIER
        # A different path on the same condemned host: domain tier.
        sibling = parse_url("https://scam.weebly.com/other")
        hit = cache.lookup(sibling, now=1)
        assert hit.tier == TIER_DOMAIN
        assert hit.verdict is NavigationVerdict.BLOCKED_CLASSIFIER

    def test_benign_verdict_hits_negative_tier_only(self):
        cache = TieredVerdictCache()
        url = parse_url("https://shop.wixsite.com/")
        cache.store(url, NavigationVerdict.ALLOWED, now=0)
        hit = cache.lookup(url, now=1)
        assert hit.tier == TIER_NEGATIVE
        # Benign entries never condemn the host.
        assert cache.lookup(parse_url("https://shop.wixsite.com/page"), 1) is None

    def test_unreachable_is_never_cached(self):
        cache = TieredVerdictCache()
        url = parse_url("https://gone.weebly.com/")
        cache.store(url, NavigationVerdict.UNREACHABLE, now=0)
        assert cache.lookup(url, now=0) is None

    def test_ttl_expires_entries(self):
        cache = TieredVerdictCache()
        url = parse_url("https://shop.wixsite.com/")
        cache.store(url, NavigationVerdict.ALLOWED, now=0)
        assert cache.lookup(url, now=NEGATIVE_TTL_MINUTES - 1) is not None
        assert cache.lookup(url, now=NEGATIVE_TTL_MINUTES) is None

    def test_lru_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(cache_module, "NEGATIVE_CAPACITY", 2)
        cache = TieredVerdictCache()
        urls = [parse_url(f"https://s{i}.weebly.com/") for i in range(3)]
        for url in urls:
            cache.store(url, NavigationVerdict.ALLOWED, now=0)
        assert cache.lookup(urls[0], now=0) is None  # evicted
        assert cache.lookup(urls[2], now=0) is not None


class TestInvalidation:
    def test_blocklist_ingest_purges_stale_allow(self):
        instr = Instrumentation()
        cache = TieredVerdictCache(instrumentation=instr)
        url = parse_url("https://fresh-scam.weebly.com/")
        cache.store(url, NavigationVerdict.ALLOWED, now=0)
        stale = cache.invalidate_blocked(url)
        assert stale == 1
        assert cache.lookup(url, now=1) is None
        counters = instr.metrics.snapshot()["counters"]
        assert counters["serve.cache.stale_allow"] == 1
        assert counters["serve.cache.stale_block"] == 0
        assert cache._host_keys == {}

    def test_blocklist_ingest_of_uncached_url_counts_nothing(self):
        cache = TieredVerdictCache()
        assert cache.invalidate_blocked("https://unseen.weebly.com/") == 0

    def test_takedown_purges_stale_block_for_whole_host(self):
        instr = Instrumentation()
        cache = TieredVerdictCache(instrumentation=instr)
        login = parse_url("https://scam.weebly.com/login")
        verify = parse_url("https://scam.weebly.com/verify")
        cache.store(login, NavigationVerdict.BLOCKED_CLASSIFIER, now=0)
        cache.store(verify, NavigationVerdict.BLOCKED_FEED, now=0)
        stale = cache.invalidate_takedown(login)
        # Domain-tier entry + both exact entries were stale blocks.
        assert stale == 3
        assert cache.lookup(login, now=1) is None
        assert cache.lookup(verify, now=1) is None
        counters = instr.metrics.snapshot()["counters"]
        assert counters["serve.cache.stale_block"] == 3
        assert counters["serve.cache.stale_allow"] == 0

    def test_takedown_drops_benign_entries_without_counting_them(self):
        cache = TieredVerdictCache()
        url = parse_url("https://shop.weebly.com/")
        cache.store(url, NavigationVerdict.ALLOWED, now=0)
        assert cache.invalidate_takedown(url) == 0
        assert cache.lookup(url, now=1) is None


def indexed_keys(cache):
    return sum(len(keys) for keys in cache._host_keys.values())


class TestHostIndex:
    """The host index holds only keys the exact or negative tier holds."""

    def test_lru_overflow_prunes_the_index(self, monkeypatch):
        monkeypatch.setattr(cache_module, "NEGATIVE_CAPACITY", 10)
        cache = TieredVerdictCache()
        for i in range(1000):
            url = parse_url(f"https://s{i % 40}.weebly.com/p{i}")
            cache.store(url, NavigationVerdict.ALLOWED, now=i)
            assert indexed_keys(cache) <= len(cache.exact) + len(cache.negative)
        assert len(cache.negative) == 10
        assert indexed_keys(cache) == 10
        # Hosts whose every key was evicted leave the index entirely.
        assert len(cache._host_keys) == 10

    def test_ttl_expiry_prunes_the_index(self):
        cache = TieredVerdictCache()
        urls = [parse_url(f"https://shop{i}.wixsite.com/") for i in range(5)]
        for url in urls:
            cache.store(url, NavigationVerdict.ALLOWED, now=0)
        for url in urls[:3]:
            assert cache.lookup(url, now=NEGATIVE_TTL_MINUTES) is None
        assert indexed_keys(cache) == 2
        assert indexed_keys(cache) <= len(cache.exact) + len(cache.negative)
        assert sorted(cache._host_keys) == ["shop3.wixsite.com", "shop4.wixsite.com"]

    def test_key_in_both_url_tiers_stays_until_the_last_drops_it(self):
        cache = TieredVerdictCache()
        url = parse_url("https://turned.weebly.com/login")
        cache.store(url, NavigationVerdict.ALLOWED, now=0)
        cache.store(url, NavigationVerdict.BLOCKED_CLASSIFIER, now=0)
        key = cache_key(url)
        assert cache.negative.get(key, now=NEGATIVE_TTL_MINUTES) is None
        assert cache._host_keys == {"turned.weebly.com": {key}}
        assert cache.exact.get(key, now=EXACT_TTL_MINUTES) is None
        assert cache._host_keys == {}

    def test_stale_block_counts_survive_pruning(self, monkeypatch):
        monkeypatch.setattr(cache_module, "EXACT_CAPACITY", 2)
        cache = TieredVerdictCache()
        pages = [parse_url(f"https://scam.weebly.com/p{i}") for i in range(4)]
        for page in pages:
            cache.store(page, NavigationVerdict.BLOCKED_FEED, now=0)
        # p0 and p1 were LRU-evicted; p2 expires on lookup (the domain
        # tier, with its longer TTL, still answers for the host).
        assert cache.lookup(pages[2], now=EXACT_TTL_MINUTES).tier == TIER_DOMAIN
        assert indexed_keys(cache) == 1
        # Domain entry + the one live exact entry (p3) are stale blocks.
        assert cache.invalidate_takedown(pages[0]) == 2
        assert cache._host_keys == {}


class TestMetrics:
    def test_per_tier_hit_counters(self):
        instr = Instrumentation()
        cache = TieredVerdictCache(instrumentation=instr)
        url = parse_url("https://scam.weebly.com/login")
        benign = parse_url("https://fine.wixsite.com/")
        cache.lookup(url, now=0)  # miss
        cache.store(url, NavigationVerdict.BLOCKED_FEED, now=0)
        cache.store(benign, NavigationVerdict.ALLOWED, now=0)
        sibling = parse_url("https://scam.weebly.com/x")
        # Hits share their CacheHit objects; each one still counts.
        hits = 7
        for now in range(1, hits + 1):
            assert cache.lookup(url, now).tier == TIER_EXACT
            assert cache.lookup(sibling, now).tier == TIER_DOMAIN
            assert cache.lookup(benign, now).tier == TIER_NEGATIVE
        counters = instr.metrics.snapshot()["counters"]
        assert counters["serve.cache.miss"] == 1
        assert counters["serve.cache.hit.exact"] == hits
        assert counters["serve.cache.hit.domain"] == hits
        assert counters["serve.cache.hit.negative"] == hits


class TestSharedHits:
    def test_same_tier_and_verdict_return_one_object(self):
        cache = TieredVerdictCache()
        url = parse_url("https://scam.weebly.com/login")
        cache.store(url, NavigationVerdict.BLOCKED_FEED, now=0)
        first = cache.lookup(url, now=1)
        assert cache.lookup(url, now=2) is first
        # Another URL answered by the same tier with the same verdict.
        other = parse_url("https://other.weebly.com/")
        cache.store(other, NavigationVerdict.BLOCKED_FEED, now=0)
        assert cache.lookup(other, now=3) is first
