"""Sim-clock request micro-batching for the serving layer.

Single-URL serving pays the full snapshot + ``classify_page`` cost per
request. The :class:`MicroBatcher` instead accumulates requests within a
simulated tick and flushes when either trigger fires:

* the batch reaches ``max_batch_size``, or
* the oldest pending request has waited ``max_wait_minutes`` of *simulated*
  time (the latency deadline).

A flush runs each distinct URL through
:meth:`~repro.core.preprocess.Preprocessor.process` and scores the
reachable pages with **one**
:meth:`~repro.core.classifier.FreePhishClassifier.classify_pages` call —
duplicate URLs in a batch are scored once and fanned back out to every
waiting request.

Determinism: flush order is a pure function of arrival order and batch
configuration. The batcher never reads the wall clock (reprolint RP101).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from ..core.classifier import FreePhishClassifier
from ..core.extension import NavigationVerdict
from ..core.preprocess import Preprocessor, ProcessedPage
from ..errors import ConfigError
from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from ..simnet.url import URL
from .cache import cache_key


@dataclass(frozen=True)
class PendingRequest:
    """One request waiting in the batcher."""

    url: URL
    key: str
    enqueued_at: int


@dataclass(frozen=True)
class BatchVerdict:
    """The scored outcome for one pending request."""

    url: URL
    key: str
    verdict: NavigationVerdict
    #: Model probability; ``None`` for unreachable pages.
    probability: Optional[float]
    #: Simulated minutes the request waited in the batcher.
    queued_minutes: int


class MicroBatcher:
    """Accumulates verdict requests and scores them in one model call."""

    def __init__(
        self,
        preprocessor: Preprocessor,
        classifier: FreePhishClassifier,
        max_batch_size: int = 32,
        max_wait_minutes: int = 2,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        if max_batch_size <= 0:
            raise ConfigError("max_batch_size must be positive")
        if max_wait_minutes < 0:
            raise ConfigError("max_wait_minutes must be >= 0")
        self.preprocessor = preprocessor
        self.classifier = classifier
        self.max_batch_size = max_batch_size
        self.max_wait_minutes = max_wait_minutes
        self._instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._queue: Deque[PendingRequest] = deque()
        self._h_batch_size = self._instr.histogram("serve.batch.size")
        self._c_flushes = self._instr.counter("serve.batch.flushes")
        self._c_dedup = self._instr.counter("serve.batch.dedup_saved")

    # -- queue ----------------------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self._queue)

    def oldest_wait(self, now: int) -> int:
        """Simulated minutes the head request has been waiting (0 if empty)."""
        if not self._queue:
            return 0
        return now - self._queue[0].enqueued_at

    def submit(self, url: URL, now: int) -> None:
        self._queue.append(
            PendingRequest(url=url, key=cache_key(url), enqueued_at=now)
        )

    def due(self, now: int) -> bool:
        """Should a batch flush at ``now``? (size or deadline trigger)."""
        if len(self._queue) >= self.max_batch_size:
            return True
        return bool(self._queue) and self.oldest_wait(now) >= self.max_wait_minutes

    # -- scoring --------------------------------------------------------------

    def flush(self, now: int) -> List[BatchVerdict]:
        """Score the oldest ``max_batch_size`` pending requests.

        Returns one :class:`BatchVerdict` per flushed request, in arrival
        order. Unreachable URLs become ``UNREACHABLE`` verdicts rather than
        aborting the batch.
        """
        if not self._queue:
            return []
        batch = [
            self._queue.popleft()
            for _ in range(min(self.max_batch_size, len(self._queue)))
        ]
        self._c_flushes.inc()
        self._h_batch_size.observe(len(batch))

        # Unique-key worklist: each distinct page is snapshot + scored once.
        unique: Dict[str, URL] = {}
        for request in batch:
            unique.setdefault(request.key, request.url)
        self._c_dedup.inc(len(batch) - len(unique))

        outcomes = self._score_unique(unique, now)

        return [
            BatchVerdict(
                url=request.url,
                key=request.key,
                verdict=outcomes[request.key][0],
                probability=outcomes[request.key][1],
                queued_minutes=now - request.enqueued_at,
            )
            for request in batch
        ]

    def score_single(self, url: URL, now: int) -> BatchVerdict:
        """Score one URL immediately, bypassing the queue.

        The synchronous :meth:`~repro.serve.service.VerdictService.check`
        path uses this: a navigation waiting on its verdict cannot sit out
        a batching deadline. The scoring code is identical to the batched
        path, so sync and batched verdicts for the same page agree.
        """
        key = cache_key(url)
        verdict, probability = self._score_unique({key: url}, now)[key]
        return BatchVerdict(
            url=url, key=key, verdict=verdict,
            probability=probability, queued_minutes=0,
        )

    def _score_unique(
        self, unique: Dict[str, URL], now: int
    ) -> Dict[str, "tuple[NavigationVerdict, Optional[float]]"]:
        """One snapshot pass + one ``classify_pages`` call for the batch.

        A URL that cannot be fetched becomes ``UNREACHABLE`` and never
        aborts the rest of the batch.
        """
        outcomes: Dict[str, "tuple[NavigationVerdict, Optional[float]]"] = {}
        reachable: Dict[str, ProcessedPage] = {}
        for key, url in unique.items():
            page = self.preprocessor.process(url, now)
            if page is None:
                outcomes[key] = (NavigationVerdict.UNREACHABLE, None)
            else:
                reachable[key] = page
        predictions = self.classifier.classify_pages(list(reachable.values()))
        for key, prediction in zip(reachable, predictions):
            verdict = (
                NavigationVerdict.BLOCKED_CLASSIFIER
                if prediction.label == 1
                else NavigationVerdict.ALLOWED
            )
            outcomes[key] = (verdict, prediction.probability)
        return outcomes
