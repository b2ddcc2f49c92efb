"""The engine fleet compiled for batch evaluation.

:class:`EngineFleet` computes what ``[engine.evaluate(intel, first_seen)
for engine in fleet]`` computes, for many URLs at once and bit for bit.
:meth:`DetectionEngine.evaluate` stays the specification; the fleet is a
faster route to the same numbers:

* **Layout.** Engine weights become an (engines, signals) matrix in
  :data:`~repro.ecosystem.intel.SIGNAL_ORDER`, the archetype parameters
  become per-engine vectors, and each engine seed is pre-split into the
  32-bit entropy words ``SeedSequence`` would make of it.
* **Scores.** A URL is a row of signal multipliers
  (:func:`~repro.ecosystem.intel.signal_vector`); per-engine raw scores
  add weight columns in the score's own order, so each (URL, engine) lane
  repeats ``suspicion_score``'s float additions exactly, and the logistic
  runs over all lanes at once.
* **First draws.** :func:`~repro.ecosystem.seeding.first_draws` computes
  each lane's ``default_rng(SeedSequence([seed, url_hash])).random()``
  without building a generator. Lanes with zero probability are skipped
  (``random() >= 0`` always holds).
* **Latency.** Only the lanes that detect (a handful per URL) continue
  their stream, in one reused ``Generator`` whose state is set to where
  the lane's own generator would be, to draw the lognormal latency.

A URL's result is its *schedule*: the detecting engines' ``(index,
detection_time)`` pairs in fleet order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..config import _stable_hash
from .engines import DetectionEngine
from .intel import SIGNAL_ORDER, UrlIntel, signal_vector
from .seeding import entropy_matrix, first_draws

#: Detection times are at least this many minutes after first sight
#: (``DetectionEngine.evaluate`` clamps latencies with ``max(2, ...)``), so
#: no engine can have fired on a URL earlier than that.
MIN_DETECTION_LATENCY = 2

#: The detecting engines' ``(engine index, detection time)``, by index.
Schedule = Tuple[Tuple[int, int], ...]

#: URLs per kernel call in :meth:`EngineFleet.schedules`; bounds the
#: working set at about 20k lanes.
CHUNK_URLS = 256


class EngineFleet:
    """A detection-engine fleet compiled to arrays."""

    def __init__(self, engines: Sequence[DetectionEngine]) -> None:
        engines = list(engines)
        self.names: Tuple[str, ...] = tuple(engine.name for engine in engines)
        #: (engines, signals) weights, columns in ``SIGNAL_ORDER``.
        self.weights = np.array(
            [[engine.weights.get(name, 0.0) for name in SIGNAL_ORDER]
             for engine in engines],
            dtype=np.float64,
        ).reshape(len(engines), len(SIGNAL_ORDER))
        self.sensitivity = np.array([e.archetype.sensitivity for e in engines])
        self.threshold = np.array([e.archetype.threshold for e in engines])
        self.temperature = np.array([e.archetype.temperature for e in engines])
        # The latency draw runs per detecting lane on Python floats.
        self._median_latency = [e.archetype.median_latency_minutes for e in engines]
        self._latency_sigma = [e.archetype.latency_sigma for e in engines]
        self._seed_words, self._seed_lengths = entropy_matrix(
            [[engine.seed] for engine in engines]
        )
        # Only ever resumed from a kernel state, never drawn from as seeded.
        self._resume = np.random.Generator(
            np.random.PCG64(engines[0].seed if engines else 0)
        )

    def __len__(self) -> int:
        return len(self.names)

    def schedules(
        self,
        signals: np.ndarray,
        url_hashes: Sequence[int],
        first_seen: Sequence[int],
    ) -> List[Schedule]:
        """Schedules of many reachable URLs.

        ``signals`` holds one :func:`signal_vector` row per URL,
        ``url_hashes`` each URL's ``_stable_hash(str(url))`` and
        ``first_seen`` the minute latencies are dated from.
        """
        signals = np.asarray(signals, dtype=np.float64).reshape(-1, len(SIGNAL_ORDER))
        out: List[Schedule] = []
        for start in range(0, signals.shape[0], CHUNK_URLS):
            stop = start + CHUNK_URLS
            out.extend(self._schedule_chunk(
                signals[start:stop], url_hashes[start:stop], first_seen[start:stop]
            ))
        return out

    def _schedule_chunk(
        self,
        signals: np.ndarray,
        url_hashes: Sequence[int],
        first_seen: Sequence[int],
    ) -> List[Schedule]:
        n_urls = signals.shape[0]
        # suspicion_score per lane: the same additions in the same order.
        raw = np.full((n_urls, len(self)), 0.05)
        for column in np.flatnonzero(signals.any(axis=0)):
            raw += signals[:, column:column + 1] * self.weights[:, column]
        score = np.where(raw <= 0.0, 0.0, 1.0 - np.exp(-1.35 * raw))
        # DetectionEngine.evaluate's probability, lane by lane.
        scaled = score * self.sensitivity
        margin = scaled - self.threshold
        probability = 1.0 / (1.0 + np.exp(-margin / self.temperature))
        probability *= np.minimum(1.0, scaled / 0.10)

        urls, engines = np.nonzero(probability > 0.0)
        if urls.size == 0:
            return [()] * n_urls
        hash_words, hash_lengths = entropy_matrix([[h] for h in url_hashes])
        seed_width = self._seed_words.shape[1]
        entropy = np.zeros((urls.size, seed_width + hash_words.shape[1]), dtype=np.uint32)
        entropy[:, :seed_width] = self._seed_words[engines]
        # The URL hash's words follow each engine seed's own words.
        lanes = np.arange(urls.size)
        offset = self._seed_lengths[engines]
        for j in range(hash_words.shape[1]):
            entropy[lanes, offset + j] = hash_words[urls, j]
        draws = first_draws(entropy, offset + hash_lengths[urls])

        detected = np.flatnonzero(draws.uniforms < probability[urls, engines])
        schedules: List[List[Tuple[int, int]]] = [[] for _ in range(n_urls)]
        rng = self._resume
        for lane, state in zip(detected.tolist(), draws.resume_states(detected)):
            url, engine = int(urls[lane]), int(engines[lane])
            rng.bit_generator.state = state
            lane_margin = float(margin[url, engine])
            # The latency arithmetic of DetectionEngine.evaluate, unchanged.
            stretch = max(0.25, 1.0 - lane_margin * 1.5)
            median = self._median_latency[engine] * stretch
            latency = rng.lognormal(np.log(median), self._latency_sigma[engine])
            schedules[url].append(
                (engine, first_seen[url] + max(MIN_DETECTION_LATENCY, int(round(latency))))
            )
        return [tuple(schedule) for schedule in schedules]

    def schedule(self, intel: UrlIntel, first_seen: int) -> Schedule:
        """One URL's schedule: the engines whose ``evaluate(intel,
        first_seen)`` detects, with their detection times."""
        signals = signal_vector(intel)
        if signals is None:
            return ()
        return self.schedules(
            np.array([signals]), [_stable_hash(str(intel.url))], [first_seen]
        )[0]
