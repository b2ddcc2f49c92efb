"""The benchmark's three workloads: seeded inputs, set-up, and one timed pass.

Each workload is split the same way:

* ``make_inputs(seed, size)`` builds everything the program will be fed
  (campaign config, navigation stream, feed/takedown schedule) from the
  seed alone, before any timing starts and without touching the system
  under test;
* ``setup(inputs)`` builds the world, the catalogue and the trained models
  (timed as ``setup_s``);
* ``measure(system, inputs)`` drives the program only through its public
  entry points and returns a :class:`Pass` with wall timings, counts and a
  digest of the outputs.

``campaign`` drives ``CampaignWorld.run`` (which calls ``FreePhish.step``
once per ten-minute tick). ``serve_hot`` and ``serve_cold`` replay a
navigation stream through ``VerdictService.submit``/``pump``/``drain`` with
``update_feed``/``on_takedown`` events alongside.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
import zlib
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.config import MINUTES_PER_DAY, SeedBank, SimulationConfig
from repro.core.classifier import FreePhishClassifier
from repro.ml import RandomForestClassifier
from repro.serve import FastPathModel, VerdictService
from repro.sim import CampaignWorld, build_ground_truth
from repro.sitegen.brands import default_brand_catalog
from repro.sitegen.kits import PhishingKitGenerator
from repro.sitegen.legitimate import LegitimateSiteGenerator
from repro.sitegen.phishing import PhishingSiteGenerator, PhishingVariant

clock = time.perf_counter


@dataclass
class Pass:
    """What one set-up plus one timed run of a workload produced."""

    setup_s: float
    #: Wall seconds of the timed region (``world.run()`` or the replay).
    elapsed_s: float
    #: Operations attempted: ticks (campaign) or requests (serve).
    attempted: int
    #: Operations that raised or got no verdict (digest checks come later).
    failed: int
    #: Units of work behind ``throughput_per_s``: stream observations
    #: (campaign) or requests resolved (serve).
    work: int
    #: Per-operation wall latencies in seconds: ``FreePhish.step`` calls
    #: (campaign) or submit-to-delivery times (serve).
    latencies: np.ndarray
    #: Verdicts from the degraded fast path, and verdicts in all.
    degraded: int
    verdicts: int
    digest: str
    traced: bool = False


# -- campaign -----------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSize:
    days: int
    fwb_phishing_per_day: int
    train_per_class: int


CAMPAIGN_SIZES = {
    # 14 days = 2016 ticks, so the tick p99 of one campaign has 20 samples
    # beyond it; 7 days left the p99 too dependent on the seed.
    "full": CampaignSize(days=14, fwb_phishing_per_day=100, train_per_class=150),
    "smoke": CampaignSize(days=1, fwb_phishing_per_day=30, train_per_class=30),
}


@dataclass(frozen=True)
class CampaignInputs:
    config: SimulationConfig
    train_per_class: int


def campaign_inputs(seed: int, size: str) -> CampaignInputs:
    spec = CAMPAIGN_SIZES[size]
    config = SimulationConfig(
        seed=seed,
        duration_days=spec.days,
        target_fwb_phishing=spec.days * spec.fwb_phishing_per_day,
    )
    return CampaignInputs(config=config, train_per_class=spec.train_per_class)


def campaign_setup(inputs: CampaignInputs) -> CampaignWorld:
    world = CampaignWorld(inputs.config, train_samples_per_class=inputs.train_per_class)
    world.train_classifier()
    return world


def campaign_measure(world: CampaignWorld, inputs: CampaignInputs) -> Pass:
    # Per-instance wrappers time each tick and count observations; they add
    # two clock reads per tick and are the only change to the untraced path.
    ticks: List[float] = []
    polled = [0]
    step = world.framework.step
    poll = world.streaming.poll

    def timed_step(now):
        started = clock()
        fresh = step(now)
        ticks.append(clock() - started)
        return fresh

    def counted_poll(now):
        observations = poll(now)
        polled[0] += len(observations)
        return observations

    world.framework.step = timed_step
    world.streaming.poll = counted_poll
    n_ticks = inputs.config.duration_minutes // inputs.config.stream_interval_minutes
    started = clock()
    try:
        result = world.run()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Pass(0.0, clock() - started, n_ticks, n_ticks, polled[0],
                    np.asarray(ticks, dtype=np.float32), 0, 0, "error")
    elapsed = clock() - started
    return Pass(
        setup_s=0.0,
        elapsed_s=elapsed,
        attempted=n_ticks,
        failed=max(0, n_ticks - len(ticks)),
        work=polled[0],
        latencies=np.asarray(ticks, dtype=np.float32),
        degraded=0,
        verdicts=len(world.framework.detections),
        digest=campaign_digest(world, result.timelines),
    )


def campaign_digest(world: CampaignWorld, timelines) -> str:
    """Detected URLs with rounded probabilities, then resolved timelines."""
    digest = hashlib.sha256()
    for record in world.framework.detections:
        digest.update(
            f"D|{record.observation.url}|{record.detected_at}|"
            f"{record.probability:.6f}\n".encode()
        )
    for timeline in timelines:
        digest.update(
            f"T|{timeline.url}|{timeline.platform}|{timeline.fwb_name}|"
            f"{timeline.first_seen}|{int(timeline.is_phishing_truth)}|"
            f"{sorted(timeline.blocklist_offsets.items())}|"
            f"{timeline.site_removal_offset}|{timeline.post_removal_offset}|"
            f"{timeline.vt_samples}\n".encode()
        )
    return digest.hexdigest()


# -- serving ------------------------------------------------------------------


@dataclass(frozen=True)
class ServeSize:
    train_per_class: int
    #: Extra FWB sites (half phishing, half benign) generated onto the
    #: training web and never featurized at set-up.
    extra_sites: int
    zipf_exponent: float
    requests_per_minute: float
    #: First simulated minute of the replay; the diurnal peak is at 720.
    start_minute: int
    n_minutes: int
    feed_every_minutes: int
    takedown_every_minutes: int
    #: VerdictService keyword arguments; empty means library defaults.
    service: Dict[str, int] = field(default_factory=dict)

    @property
    def catalogue_size(self) -> int:
        return 2 * self.train_per_class + self.extra_sites

    def is_phishing(self, index: int) -> bool:
        """Catalogue layout: training phishing, training benign, extra
        phishing, extra benign."""
        n_train = self.train_per_class
        n_extra_phish = self.extra_sites // 2
        return index < n_train or 2 * n_train <= index < 2 * n_train + n_extra_phish


SERVE_SIZES = {
    ("serve_hot", "full"): ServeSize(
        train_per_class=100, extra_sites=0, zipf_exponent=1.1,
        requests_per_minute=1200.0, start_minute=0, n_minutes=MINUTES_PER_DAY,
        feed_every_minutes=20, takedown_every_minutes=60,
    ),
    ("serve_hot", "smoke"): ServeSize(
        train_per_class=20, extra_sites=0, zipf_exponent=1.1,
        requests_per_minute=40.0, start_minute=0, n_minutes=120,
        feed_every_minutes=20, takedown_every_minutes=30,
    ),
    ("serve_cold", "full"): ServeSize(
        train_per_class=150, extra_sites=6000, zipf_exponent=0.4,
        requests_per_minute=40.0, start_minute=600, n_minutes=120,
        feed_every_minutes=20, takedown_every_minutes=60,
        service={"max_queue_depth": 64, "max_batches_per_tick": 1},
    ),
    ("serve_cold", "smoke"): ServeSize(
        train_per_class=20, extra_sites=200, zipf_exponent=0.4,
        requests_per_minute=60.0, start_minute=660, n_minutes=60,
        feed_every_minutes=20, takedown_every_minutes=30,
        service={"max_queue_depth": 16, "max_batches_per_tick": 1},
    ),
}


@dataclass(frozen=True)
class ServeInputs:
    seed: int
    size: ServeSize
    #: ``(minute, first request, end request)`` for every replayed minute.
    minutes: List[tuple]
    #: Catalogue index of each request, in arrival order.
    targets: List[int]
    #: ``(minute, "feed" | "takedown", catalogue index)``, sorted by minute.
    events: List[tuple]


def serve_inputs(workload: str, seed: int, size: str) -> ServeInputs:
    """Zipf-over-catalogue navigations on a cosine day, plus a steady
    trickle of feed ingests and takedowns of phishing catalogue entries.

    This mirrors ``repro.serve.NavigationWorkload`` on purpose instead of
    calling it: the inputs, and so the recorded reference digests, must not
    change when the program under test changes its workload generator."""
    spec = SERVE_SIZES[(workload, size)]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    n = spec.catalogue_size
    weights = np.empty(n, dtype=np.float64)
    weights[rng.permutation(n)] = np.arange(1, n + 1, dtype=np.float64) ** -spec.zipf_exponent
    weights /= weights.sum()
    minute_axis = np.arange(spec.start_minute, spec.start_minute + spec.n_minutes)
    phase = 2.0 * math.pi * (minute_axis % MINUTES_PER_DAY) / MINUTES_PER_DAY
    counts = rng.poisson(spec.requests_per_minute * (1.0 - 0.6 * np.cos(phase)))
    targets = rng.choice(n, size=int(counts.sum()), p=weights)
    ends = np.cumsum(counts)
    minutes = [
        (int(minute), int(end - count), int(end))
        for minute, count, end in zip(minute_axis, counts, ends)
    ]
    phishing = [index for index in range(n) if spec.is_phishing(index)]
    events = []
    for minute in minute_axis.tolist():
        if minute % spec.feed_every_minutes == 0:
            events.append((minute, "feed", phishing[int(rng.integers(len(phishing)))]))
        if minute % spec.takedown_every_minutes == 0:
            events.append((minute, "takedown", phishing[int(rng.integers(len(phishing)))]))
    return ServeInputs(seed, spec, minutes, targets.tolist(), events)


@dataclass
class ServeSystem:
    web: object
    classifier: FreePhishClassifier
    fast_path: FastPathModel
    catalogue: list


def _generate_catalogue(web, n_sites: int, seed: int) -> list:
    """FWB sites drawn like the ground-truth corpus, left unfeaturized."""
    rng = np.random.default_rng(seed)
    catalog = default_brand_catalog()
    phish_gen = PhishingSiteGenerator(catalog=catalog)
    benign_gen = LegitimateSiteGenerator()
    kit_gen = PhishingKitGenerator(catalog=catalog)
    providers = list(web.fwb_providers.values())
    weights = np.asarray([p.service.attacker_weight for p in providers], dtype=float)
    weights /= weights.sum()
    urls = []
    for _ in range(n_sites // 2):
        provider = providers[int(rng.choice(len(providers), p=weights))]
        spec = phish_gen.sample_spec(provider.service, rng)
        if spec.variant in (PhishingVariant.TWO_STEP, PhishingVariant.IFRAME):
            target = kit_gen.create_site(web.self_hosting, now=0, rng=rng, brand=spec.brand)
            target.metadata["linked_only"] = True
            spec.target_url = str(target.root_url)
        urls.append(phish_gen.create_site(provider, now=0, rng=rng, spec=spec).root_url)
    for _ in range(n_sites - n_sites // 2):
        provider = providers[int(rng.integers(len(providers)))]
        urls.append(benign_gen.create_fwb_site(provider, now=0, rng=rng).root_url)
    return urls


def serve_setup(inputs: ServeInputs) -> ServeSystem:
    spec = inputs.size
    seeds = SeedBank(inputs.seed)
    dataset = build_ground_truth(
        n_per_class=spec.train_per_class,
        seed=seeds.child_seed("perfbench.ground_truth"),
    )
    if len(dataset) != 2 * spec.train_per_class:
        raise RuntimeError(f"ground truth has {len(dataset)} pages, expected "
                           f"{2 * spec.train_per_class}")
    classifier = FreePhishClassifier(
        model=RandomForestClassifier(
            n_estimators=40, max_depth=10,
            random_state=seeds.child_seed("perfbench.model"),
        )
    )
    classifier.fit_pages(dataset.pages, dataset.labels)
    train_urls = [page.url for page in dataset.pages]
    fast_path = FastPathModel().fit_urls(train_urls, dataset.labels)
    catalogue = train_urls + _generate_catalogue(
        dataset.web, spec.extra_sites, seeds.child_seed("perfbench.catalogue")
    )
    return ServeSystem(dataset.web, classifier, fast_path, catalogue)


def serve_measure(system: ServeSystem, inputs: ServeInputs) -> Pass:
    """Closed-loop replay: one client submits each request in turn and
    pumps the model layer once per simulated minute."""
    service = VerdictService(
        system.web, system.classifier, fast_path=system.fast_path,
        **inputs.size.service,
    )
    urls = system.catalogue
    targets = inputs.targets
    n = len(targets)
    latencies = array("d", bytes(8 * n))
    submitted_at = array("d", bytes(8 * n))
    # Each request holds the code of its outcome (-1 until it has one), not
    # the verdict object: a replay of millions of requests would otherwise
    # keep millions of objects alive, and the heap and its garbage
    # collections would grow with the run.
    codes = array("i", [-1]) * n
    outcomes: Dict[tuple, int] = {}
    #: The first verdict seen with each outcome code.
    examples: list = []

    def code_of(verdict) -> int:
        key = (id(verdict.verdict), id(verdict.served_from), verdict.queued_minutes)
        code = outcomes.get(key)
        if code is None:
            code = outcomes[key] = len(examples)
            examples.append(verdict)
        return code
    # Requests waiting for a verdict, per URL object, in arrival order; the
    # batcher and the degraded path each deliver FIFO per URL.
    waiting: Dict[bool, Dict[int, deque]] = {False: {}, True: {}}
    unexpected = [0]
    submit, pump, batcher = service.submit, service.pump, service.batcher
    events = inputs.events
    n_events = len(events)

    def deliver(served, now_s: float) -> None:
        for verdict in served:
            queue = waiting[verdict.degraded].get(id(verdict.url))
            if not queue:
                unexpected[0] += 1
                continue
            index = queue.popleft()
            latencies[index] = now_s - submitted_at[index]
            codes[index] = code_of(verdict)

    next_event = 0
    raised = False
    started = clock()
    for minute, first, end in inputs.minutes:
        while next_event < n_events and events[next_event][0] <= minute:
            _minute, kind, index = events[next_event]
            if kind == "feed":
                service.update_feed([urls[index]])
            else:
                service.on_takedown(urls[index])
            next_event += 1
        for index in range(first, end):
            url = urls[targets[index]]
            depth = batcher.pending
            before = clock()
            try:
                verdict = submit(url, minute)
            except Exception:
                # The request gets no verdict and counts as failed below.
                if not raised:
                    traceback.print_exc(file=sys.stderr)
                raised = True
                continue
            after = clock()
            if verdict is not None:
                latencies[index] = after - before
                codes[index] = code_of(verdict)
            else:
                submitted_at[index] = before
                degraded = batcher.pending == depth
                waiting[degraded].setdefault(id(url), deque()).append(index)
        served = pump(minute)
        deliver(served, clock())
    end_minute = inputs.minutes[-1][0] + 1
    served = service.drain(end_minute)
    deliver(served, clock())
    elapsed = clock() - started

    lines = {
        code: f"{verdict.verdict.value}|{verdict.served_from.value}|"
              f"{verdict.queued_minutes}\n".encode()
        for code, verdict in enumerate(examples)
    }
    lines[-1] = b"missing\n"
    digest = hashlib.sha256()
    for code in codes:
        digest.update(lines[code])
    per_code = Counter(codes)
    missing = per_code[-1]
    resolved = np.frombuffer(codes, dtype=np.int32) >= 0
    return Pass(
        setup_s=0.0,
        elapsed_s=elapsed,
        attempted=n,
        failed=min(n, missing + unexpected[0]),
        work=n - missing,
        latencies=np.frombuffer(latencies)[resolved].astype(np.float32),
        degraded=sum(
            count for code, count in per_code.items()
            if code >= 0 and examples[code].degraded
        ),
        verdicts=n - missing,
        digest=digest.hexdigest(),
    )


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int, str], object]
    setup: Callable[[object], object]
    measure: Callable[[object, object], Pass]


WORKLOADS = {
    "campaign": Workload(campaign_inputs, campaign_setup, campaign_measure),
    "serve_hot": Workload(
        lambda seed, size: serve_inputs("serve_hot", seed, size),
        serve_setup, serve_measure,
    ),
    "serve_cold": Workload(
        lambda seed, size: serve_inputs("serve_cold", seed, size),
        serve_setup, serve_measure,
    ),
}
