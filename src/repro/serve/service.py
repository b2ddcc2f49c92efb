"""`VerdictService`: the online request path behind the FreePhish extension.

One request resolves through the layers cheapest-first::

    tiered cache  →  backend feed  →  FWB gate  →  batched model scoring
         │                │              │                 │
    cache_exact /      feed         non_fwb          model / model_degraded
    cache_domain /
    cache_negative

Two entry points share that path:

* :meth:`VerdictService.check` — synchronous, one verdict per call; the
  compat path :class:`~repro.core.extension.FreePhishExtension` routes
  through. Misses are scored immediately (a batch of one).
* :meth:`VerdictService.submit` + :meth:`VerdictService.pump` — the
  high-throughput path: submissions that reach the model layer queue into
  the micro-batcher (or, past the admission limit, the degraded fast
  path), and ``pump(now)`` flushes due batches each simulated tick.

Every verdict leaves tagged with the layer that produced it
(:class:`ServedFrom`), and each tag has a ``serve.served.<tag>`` counter —
degraded-mode verdicts are therefore separately countable, an acceptance
requirement of the serving design.

Degraded verdicts are **never cached**: they are low-fidelity answers
produced under pressure, and letting them linger in the tiers would keep
serving guesses after the overload has passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Set

from ..core.classifier import FreePhishClassifier
from ..core.extension import NavigationVerdict
from ..core.preprocess import Preprocessor
from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from ..simnet.url import URL
from ..simnet.web import Web
from .admission import AdmissionController, AdmissionDecision, FastPathModel
from .batching import BatchVerdict, MicroBatcher, PendingRequest
from .cache import TieredVerdictCache, cache_key


class ServedFrom(str, Enum):
    """Which layer of the serving stack produced a verdict."""

    #: Client-side user override ("continue anyway"); emitted by the
    #: extension, never by the service itself.
    ALLOWLIST = "allowlist"
    CACHE_EXACT = "cache_exact"
    CACHE_DOMAIN = "cache_domain"
    CACHE_NEGATIVE = "cache_negative"
    FEED = "feed"
    NON_FWB = "non_fwb"
    MODEL = "model"
    MODEL_DEGRADED = "model_degraded"


_TIER_TO_SERVED = {
    "exact": ServedFrom.CACHE_EXACT,
    "domain": ServedFrom.CACHE_DOMAIN,
    "negative": ServedFrom.CACHE_NEGATIVE,
}


@dataclass
class ServedVerdict:
    """A navigation verdict plus its provenance within the serving stack.

    Not frozen: one is built per request on the hot path, and a plain
    dataclass builds in under half the time. Nothing mutates or hashes a
    verdict, and none is shared between requests.
    """

    url: URL
    verdict: NavigationVerdict
    served_from: ServedFrom
    #: Simulated minutes spent queued (0 for front-line layers).
    queued_minutes: int = 0
    #: Model probability, when a model produced the verdict.
    probability: Optional[float] = None

    @property
    def blocked(self) -> bool:
        return self.verdict in (
            NavigationVerdict.BLOCKED_FEED,
            NavigationVerdict.BLOCKED_CLASSIFIER,
        )

    @property
    def degraded(self) -> bool:
        return self.served_from is ServedFrom.MODEL_DEGRADED


class VerdictService:
    """Cache + feed + batched-model verdict serving over one simulated web."""

    def __init__(
        self,
        web: Web,
        classifier: FreePhishClassifier,
        fast_path: Optional[FastPathModel] = None,
        max_batch_size: int = 32,
        max_wait_minutes: int = 2,
        max_queue_depth: int = 256,
        max_batches_per_tick: int = 4,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.web = web
        self.classifier = classifier
        instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._instr = instr
        self.preprocessor = Preprocessor(web, instrumentation=instr)
        self.cache = TieredVerdictCache(instrumentation=instr)
        self.batcher = MicroBatcher(
            self.preprocessor,
            classifier,
            max_batch_size=max_batch_size,
            max_wait_minutes=max_wait_minutes,
            instrumentation=instr,
        )
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth, instrumentation=instr
        )
        self.fast_path = fast_path if fast_path is not None else FastPathModel()
        #: Batches the model layer may score per simulated tick; the knob
        #: that turns sustained demand into backlog (and thus degradation).
        self.max_batches_per_tick = max_batches_per_tick
        #: Normalized URL keys the backend framework has confirmed.
        self.feed: Set[str] = set()
        self._degraded_pending: List[PendingRequest] = []
        self._c_requests = instr.counter("serve.requests")
        self._c_served = {
            tag: instr.counter(f"serve.served.{tag.value}") for tag in ServedFrom
        }
        self._h_latency = instr.histogram("serve.latency_minutes")
        self._g_depth = instr.gauge("serve.queue.depth")

    # -- feed & invalidation ---------------------------------------------------

    def update_feed(self, urls: Iterable) -> int:
        """Ingest confirmed-phishing URLs from the backend framework.

        Each newly ingested URL fires the blocklist invalidation hook, so a
        cached benign verdict cannot outlive the detection that refutes it.
        Returns the number of stale allows purged.
        """
        stale = 0
        for url in urls:
            key = cache_key(url)
            if key in self.feed:
                continue
            self.feed.add(key)
            stale += self.cache.invalidate_blocked(key)
        return stale

    def on_takedown(self, url) -> int:
        """Invalidation hook for an FWB abuse-desk takedown of ``url``'s site.

        Returns the number of stale blocks purged.
        """
        return self.cache.invalidate_takedown(url)

    # -- shared front line -----------------------------------------------------

    def _front_line(self, url: URL, now: int) -> Optional[ServedVerdict]:
        """Cache → feed → FWB-scope gate; ``None`` means the model must run."""
        hit = self.cache.lookup(url, now)
        if hit is not None:
            return self._serve(
                ServedVerdict(
                    url=url, verdict=hit.verdict,
                    served_from=_TIER_TO_SERVED[hit.tier],
                )
            )
        if cache_key(url) in self.feed:
            self.cache.store(url, NavigationVerdict.BLOCKED_FEED, now)
            return self._serve(
                ServedVerdict(
                    url=url, verdict=NavigationVerdict.BLOCKED_FEED,
                    served_from=ServedFrom.FEED,
                )
            )
        if self.web.fwb_for(url) is None:
            # Out of FreePhish's scope: ordinary Safe-Browsing covers the
            # non-FWB web. Cached as benign so repeats skip the gate too.
            self.cache.store(url, NavigationVerdict.ALLOWED, now)
            return self._serve(
                ServedVerdict(
                    url=url, verdict=NavigationVerdict.ALLOWED,
                    served_from=ServedFrom.NON_FWB,
                )
            )
        return None

    def _serve(self, served: ServedVerdict) -> ServedVerdict:
        self._c_served[served.served_from].inc()
        self._h_latency.observe(served.queued_minutes)
        return served

    def _serve_model(self, scored: BatchVerdict, now: int) -> ServedVerdict:
        self.cache.store(scored.url, scored.verdict, now)
        return self._serve(
            ServedVerdict(
                url=scored.url,
                verdict=scored.verdict,
                served_from=ServedFrom.MODEL,
                queued_minutes=scored.queued_minutes,
                probability=scored.probability,
            )
        )

    # -- synchronous path ------------------------------------------------------

    def check(self, url: URL, now: int) -> ServedVerdict:
        """Resolve one verdict immediately (the extension's request path)."""
        self._c_requests.inc()
        resolved = self._front_line(url, now)
        if resolved is not None:
            return resolved
        return self._serve_model(self.batcher.score_single(url, now), now)

    # -- batched path ----------------------------------------------------------

    def submit(self, url: URL, now: int) -> Optional[ServedVerdict]:
        """Submit one request; front-line verdicts return immediately.

        Returns ``None`` when the request entered the model layer (batched
        or degraded); its verdict is delivered by a later :meth:`pump` /
        :meth:`drain` call.
        """
        self._c_requests.inc()
        resolved = self._front_line(url, now)
        if resolved is not None:
            return resolved
        decision = self.admission.admit(self.batcher.pending)
        if decision is AdmissionDecision.ADMIT:
            self.batcher.submit(url, now)
        else:
            self._degraded_pending.append(
                PendingRequest(url=url, key=cache_key(url), enqueued_at=now)
            )
        return None

    def pump(self, now: int) -> List[ServedVerdict]:
        """Advance the model layer one tick; return verdicts completed now."""
        served: List[ServedVerdict] = []
        flushed = 0
        while flushed < self.max_batches_per_tick and self.batcher.due(now):
            served.extend(
                self._serve_model(scored, now) for scored in self.batcher.flush(now)
            )
            flushed += 1
        served.extend(self._shed_degraded(now))
        self._g_depth.set(self.batcher.pending)
        return served

    def drain(self, now: int) -> List[ServedVerdict]:
        """Flush everything still queued, ignoring per-tick capacity."""
        served: List[ServedVerdict] = []
        while self.batcher.pending:
            served.extend(
                self._serve_model(scored, now) for scored in self.batcher.flush(now)
            )
        served.extend(self._shed_degraded(now))
        self._g_depth.set(0)
        return served

    def _shed_degraded(self, now: int) -> List[ServedVerdict]:
        """Answer every degraded-mode request from the URL-only fast path."""
        if not self._degraded_pending:
            return []
        pending, self._degraded_pending = self._degraded_pending, []
        verdicts = self.fast_path.verdicts([request.url for request in pending])
        return [
            self._serve(
                ServedVerdict(
                    url=request.url,
                    verdict=verdict,
                    served_from=ServedFrom.MODEL_DEGRADED,
                    queued_minutes=now - request.enqueued_at,
                )
            )
            for request, verdict in zip(pending, verdicts)
        ]
