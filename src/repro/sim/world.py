"""Full-world assembly and the six-month measurement campaign.

:class:`CampaignWorld` instantiates every subsystem — the simulated web
(17 FWB providers + self-hosting), Twitter and Facebook, the four
blocklists, the 76-engine VirusTotal fleet, FWB abuse desks, the registrar
desk, and the FreePhish framework — and runs the paper's §5 measurement:

1. train the classifier on the ground-truth corpus;
2. stream attacker + benign activity through the platforms at the 10-minute
   cadence while FreePhish polls, classifies, reports and monitors;
3. resolve every tracked URL's timeline against blocklists, VirusTotal,
   host takedowns, and platform moderation.

Scaled-down configurations (``SimulationConfig.scaled``) preserve the
workload shape at laptop-friendly sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..config import (
    STREAM_INTERVAL_MINUTES,
    TAKEDOWN_WINDOW_MINUTES,
    SeedBank,
    SimulationConfig,
)
from ..core.classifier import FreePhishClassifier
from ..core.framework import FreePhish
from ..core.monitor import AnalysisModule, UrlTimeline
from ..core.preprocess import Preprocessor
from ..core.reporting import ReportingModule
from ..core.streaming import StreamingModule
from ..ecosystem.blocklists import default_blocklists
from ..ecosystem.engines import default_engine_fleet
from ..ecosystem.intel import IntelService
from ..ecosystem.takedown import AbuseDesk, RegistrarDesk
from ..ecosystem.virustotal import VirusTotal
from ..ml import RandomForestClassifier
from ..obs.events import ConsoleSink
from ..obs.instrument import Instrumentation
from ..simnet.web import Web
from ..social.facebook import CrowdTangleAPI, FacebookPlatform
from ..social.twitter import TwitterAPI, TwitterPlatform
from .attacker import AttackerModel, BenignUserModel
from .groundtruth import GroundTruthDataset, build_ground_truth

#: Benign FWB posts per phishing post in the streams.
BENIGN_PER_PHISHING = 1.0


@dataclass
class CampaignResult:
    """Everything a measurement campaign produced."""

    config: SimulationConfig
    timelines: List[UrlTimeline]
    detections: int
    observations: int
    ground_truth_size: int

    @property
    def fwb_timelines(self) -> List[UrlTimeline]:
        return [t for t in self.timelines if t.is_fwb]

    @property
    def self_hosted_timelines(self) -> List[UrlTimeline]:
        return [t for t in self.timelines if not t.is_fwb]


class CampaignWorld:
    """The assembled simulation world."""

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        train_samples_per_class: int = 250,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.config = config if config is not None else SimulationConfig()
        self.rng_factory = SeedBank(self.config.seed)
        #: Shared observability hub; every subsystem records into it.
        #: Pass ``NULL_INSTRUMENTATION`` to opt out entirely (e.g. for
        #: overhead benchmarks) — all hooks collapse to no-op singletons.
        self.instr = (
            instrumentation if instrumentation is not None else Instrumentation()
        )
        self._console_sink: Optional[ConsoleSink] = None

        # Substrate.
        self.web = Web()
        # The one page store, shared by FreePhish and the ecosystem's intel.
        self.preprocessor = Preprocessor(self.web, instrumentation=self.instr)
        self.intel = IntelService(self.web, self.preprocessor)

        # Social platforms.
        self.twitter = TwitterPlatform(
            self.rng_factory.child("social.twitter"), instrumentation=self.instr
        )
        self.facebook = FacebookPlatform(
            self.rng_factory.child("social.facebook"), instrumentation=self.instr
        )
        self.platforms = {"twitter": self.twitter, "facebook": self.facebook}

        # Ecosystem.
        self.blocklists = default_blocklists(
            self.intel, seed=self.config.seed, instrumentation=self.instr
        )
        self.engines = default_engine_fleet(self.rng_factory)
        self.virustotal = VirusTotal(
            self.engines, self.intel, instrumentation=self.instr
        )
        self.abuse_desks: Dict[str, AbuseDesk] = {
            name: AbuseDesk(
                provider, self.web, self.rng_factory.child(f"desk.{name}"),
                instrumentation=self.instr,
            )
            for name, provider in self.web.fwb_providers.items()
        }
        self.registrar = RegistrarDesk(
            self.web.self_hosting, self.web, self.intel,
            seed=self.rng_factory.child_seed("ecosystem.registrar"),
            instrumentation=self.instr,
        )

        # Behaviour models.
        self.attacker = AttackerModel(
            self.web, self.platforms, self.rng_factory.child("attacker"),
        )
        self.benign_users = BenignUserModel(
            self.web, self.platforms, self.rng_factory.child("benign"),
        )

        # FreePhish.
        self.classifier = FreePhishClassifier(
            model=RandomForestClassifier(
                n_estimators=40, max_depth=10, random_state=self.config.seed
            )
        )
        self.streaming = StreamingModule(
            self.web,
            TwitterAPI(self.twitter),
            CrowdTangleAPI(self.facebook),
            instrumentation=self.instr,
        )
        self.reporting = ReportingModule(self.abuse_desks, instrumentation=self.instr)
        self.analysis = AnalysisModule(
            self.web, self.blocklists, self.virustotal, self.platforms,
            instrumentation=self.instr,
        )
        self.framework = FreePhish(
            self.streaming, self.preprocessor, self.classifier,
            self.reporting, self.analysis, instrumentation=self.instr,
        )
        self.train_samples_per_class = train_samples_per_class
        #: Training-corpus size once trained; the corpus itself is dropped.
        self._ground_truth_size: Optional[int] = None
        #: Ground-truth phishing labels for every URL that entered a stream.
        self.truth: Dict[str, bool] = {}

    # -- training -------------------------------------------------------------

    def train_classifier(self) -> GroundTruthDataset:
        """Build the ground-truth corpus and train the classifier on it."""
        dataset = build_ground_truth(
            n_per_class=self.train_samples_per_class,
            seed=self.rng_factory.child_seed("world.ground_truth"),
        )
        self.classifier.fit_pages(dataset.pages, dataset.labels)
        self._ground_truth_size = len(dataset)
        self.instr.emit("campaign.trained", samples=len(dataset))
        return dataset

    # -- campaign loop ------------------------------------------------------------

    def _arrivals_per_tick(self) -> float:
        ticks = self.config.duration_minutes / STREAM_INTERVAL_MINUTES
        return self.config.target_fwb_phishing / ticks

    def _launch_activity(self, now: int, rng: np.random.Generator,
                         rate: float) -> None:
        for _ in range(rng.poisson(rate)):
            attack = self.attacker.launch_fwb_attack(now)
            self._register_attack(attack, now)
        for _ in range(rng.poisson(rate)):
            attack = self.attacker.launch_self_hosted_attack(now)
            self._register_attack(attack, now)
        for _ in range(rng.poisson(rate * BENIGN_PER_PHISHING)):
            site = self.benign_users.post_benign_site(now)
            self.truth[str(site.root_url)] = False

    def _register_attack(self, attack, now: int) -> None:
        self.truth[str(attack.site.root_url)] = True
        platform = self.platforms[attack.platform_name]
        post = platform.get_post(attack.post_id)
        suspicion = self.intel.suspicion(attack.site.root_url, now)
        platform.scan(post, suspicion, now)
        if not attack.is_fwb:
            self.registrar.observe(attack.site.root_url, now)

    def run(self, verbose: bool = False) -> CampaignResult:
        """Run the full campaign and resolve all timelines.

        ``verbose`` subscribes a console sink to the event log, so daily
        progress events render to stdout as they are emitted.
        """
        if verbose and self._console_sink is None:
            self._console_sink = ConsoleSink()
            self.instr.events.subscribe(self._console_sink)
        interval = STREAM_INTERVAL_MINUTES
        end = self.config.duration_minutes
        self.instr.set_time(0)
        self.instr.emit(
            "campaign.start",
            duration_minutes=end,
            seed=self.config.seed,
            target_fwb_phishing=self.config.target_fwb_phishing,
        )
        if self._ground_truth_size is None:
            self.train_classifier()
        rng = self.rng_factory.child("world.arrivals")
        rate = self._arrivals_per_tick()

        now = 0
        while now < end:
            now += interval
            self.instr.set_time(now)
            self._launch_activity(now, rng, rate)
            self.framework.step(now)
            if now % (24 * 60) < interval:  # housekeeping once a day
                self._housekeeping(now)
                self.instr.emit(
                    "campaign.day",
                    day=now // (24 * 60),
                    detections=len(self.framework.detections),
                    observations=self.framework.observations,
                    tracked=self.analysis.n_tracked,
                )
        # Let every scheduled action (takedowns, moderation) play out across
        # the monitoring window before resolving timelines.
        horizon = end + TAKEDOWN_WINDOW_MINUTES
        self.instr.set_time(horizon)
        self._housekeeping(horizon)

        timelines = self.analysis.resolve_all(truth=self.truth)
        self.instr.emit(
            "campaign.finished",
            detections=len(self.framework.detections),
            observations=self.framework.observations,
            timelines=len(timelines),
        )
        return CampaignResult(
            config=self.config,
            timelines=timelines,
            detections=len(self.framework.detections),
            observations=self.framework.observations,
            ground_truth_size=self._ground_truth_size,
        )

    def _housekeeping(self, now: int) -> None:
        for desk in self.abuse_desks.values():
            desk.apply_takedowns(now)
        self.registrar.apply_takedowns(now)
        for platform in self.platforms.values():
            platform.apply_moderation(now)
