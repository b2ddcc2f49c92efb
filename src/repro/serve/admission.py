"""Admission control: bounded queueing with graceful degradation.

The serving layer bounds how much work it will queue for the full
snapshot + StackModel path. When the backlog exceeds
``max_queue_depth`` the service does **not** drop requests (a dropped
verdict is an unprotected navigation) and does not return errors; it
*sheds load by degrading fidelity*: overflow requests are answered by
:class:`FastPathModel`, a URL-features-only random forest that needs no
page fetch. Degraded verdicts are recorded distinctly
(``serve.admission.degraded`` and the ``model_degraded`` serve tag) so an
operator — and the benchmark report — can see exactly what fraction of
traffic got the cheaper answer.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional, Sequence

import numpy as np

from ..core.extension import NavigationVerdict
from ..core.features import URL_FEATURE_NAMES, FeatureExtractor
from ..errors import ConfigError
from ..ml import RandomForestClassifier
from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from ..simnet.url import URL


class AdmissionDecision(str, Enum):
    #: Queue the request for the full batched snapshot + StackModel path.
    ADMIT = "admit"
    #: Backlog full: answer from the URL-only fast path instead.
    DEGRADE = "degrade"


class AdmissionController:
    """Backpressure policy over the batcher's queue depth."""

    def __init__(
        self,
        max_queue_depth: int = 256,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        if max_queue_depth <= 0:
            raise ConfigError("max_queue_depth must be positive")
        self.max_queue_depth = max_queue_depth
        instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._c_admitted = instr.counter("serve.admission.admitted")
        self._c_degraded = instr.counter("serve.admission.degraded")
        self._g_depth = instr.gauge("serve.queue.depth")

    def admit(self, queue_depth: int) -> AdmissionDecision:
        """Decide the path for one arriving request given current backlog."""
        self._g_depth.set(queue_depth)
        if queue_depth >= self.max_queue_depth:
            self._c_degraded.inc()
            return AdmissionDecision.DEGRADE
        self._c_admitted.inc()
        return AdmissionDecision.ADMIT


#: The fast path's fixed random forest and its blocking threshold.
FAST_PATH_N_ESTIMATORS = 20
FAST_PATH_MAX_DEPTH = 8
FAST_PATH_RANDOM_STATE = 13
FAST_PATH_THRESHOLD = 0.5


class FastPathModel:
    """URL-features-only classifier for degraded-mode verdicts.

    Scores requests on :data:`~repro.core.features.URL_FEATURE_NAMES` — the
    eight features computable from the URL string alone — so it needs no
    page snapshot and costs microseconds per request. Until :meth:`fit_urls`
    has been called the fast path **fails open** (``ALLOWED``): a guess from
    an unfitted model would block legitimate traffic under exactly the load
    conditions where users are least able to reach support.
    """

    feature_names = URL_FEATURE_NAMES

    def __init__(self) -> None:
        self.extractor = FeatureExtractor()
        self.model = RandomForestClassifier(
            n_estimators=FAST_PATH_N_ESTIMATORS,
            max_depth=FAST_PATH_MAX_DEPTH,
            random_state=FAST_PATH_RANDOM_STATE,
        )
        self._fitted = False

    @property
    def fitted(self) -> bool:
        return self._fitted

    def _matrix(self, urls: Sequence[URL]) -> np.ndarray:
        return np.vstack(
            [
                self.extractor.extract_url_only(url).vector(self.feature_names)
                for url in urls
            ]
        )

    def fit_urls(self, urls: Sequence[URL], labels: Sequence[int]) -> "FastPathModel":
        """Train on labelled URLs (e.g. the campaign's ground-truth corpus)."""
        self.model.fit(self._matrix(urls), np.asarray(labels))
        self._fitted = True
        return self

    def verdicts(self, urls: Sequence[URL]) -> List[NavigationVerdict]:
        """Batch-score URLs; fail-open ``ALLOWED`` when unfitted."""
        if not urls:
            return []
        if not self._fitted:
            return [NavigationVerdict.ALLOWED for _ in urls]
        probabilities = self.model.predict_proba(self._matrix(urls))[:, 1]
        return [
            NavigationVerdict.BLOCKED_CLASSIFIER
            if probability >= FAST_PATH_THRESHOLD
            else NavigationVerdict.ALLOWED
            for probability in probabilities
        ]
