"""Attacker and benign-user behaviour models.

The attacker model reproduces the campaign mechanics the paper observed:

* FWB choice follows the measured per-service abuse distribution (the
  Table-4 URL counts baked into each service's ``attacker_weight``);
* each new FWB phishing site is announced on Twitter or Facebook with the
  measured 19,724 : 11,681 platform split;
* evasive variants that need an external landing page (two-step links,
  iframes) get one: usually a self-hosted kit page, sometimes another FWB
  site (the paper saw 174 of 539 Google Sites two-step pages link to other
  FWBs);
* a parallel stream of self-hosted kit attacks provides the comparison
  population.

The benign-user model posts ordinary FWB customer sites, supplying the
stream's negative class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..config import TWITTER_SHARE
from ..simnet.hosting import HostedSite
from ..simnet.web import Web
from ..sitegen.brands import default_brand_catalog
from ..sitegen.kits import PhishingKitGenerator
from ..sitegen.legitimate import LegitimateSiteGenerator
from ..sitegen.phishing import (
    PhishingSiteGenerator,
    PhishingVariant,
)
from ..social.platform import SocialPlatform

#: Among two-step/iframe targets, the share hosted on another FWB rather
#: than a self-hosted domain (§5.5: 174 of 539 on GSites).
FWB_TARGET_SHARE = 0.32

#: Among FWB-hosted targets, the share that are *themselves* two-step
#: pages — producing three-hop chains (landing -> relay -> credential
#: page), the §5.5 "multi-step phishing" escalation.
DEEP_CHAIN_RATE = 0.25

#: Share of benign FWB posts that go to Twitter.
BENIGN_TWITTER_SHARE = 0.6


@dataclass
class LaunchedAttack:
    """One attack instance: the site plus where it was announced."""

    site: HostedSite
    platform_name: str
    post_id: str
    launched_at: int
    is_fwb: bool


class AttackerModel:
    """Drives phishing-site creation and social announcement."""

    def __init__(
        self,
        web: Web,
        platforms: Dict[str, SocialPlatform],
        rng: np.random.Generator,
    ) -> None:
        self.web = web
        self.platforms = platforms
        self.rng = rng
        catalog = default_brand_catalog()
        self.phishing_generator = PhishingSiteGenerator(catalog=catalog)
        self.kit_generator = PhishingKitGenerator(catalog=catalog)
        services = list(web.fwb_providers.values())
        weights = np.asarray(
            [p.service.attacker_weight for p in services], dtype=np.float64
        )
        self._providers = services
        self._provider_probabilities = weights / weights.sum()
        self.launched: List[LaunchedAttack] = []

    # -- helpers -----------------------------------------------------------------

    def _pick_platform(self) -> SocialPlatform:
        name = "twitter" if self.rng.random() < TWITTER_SHARE else "facebook"
        return self.platforms[name]

    def _external_target(self, brand, now: int, depth: int = 0) -> str:
        """Create the landing page a two-step/iframe attack points at.

        With probability :data:`DEEP_CHAIN_RATE` an FWB-hosted target is itself
        a relay two-step page, yielding a multi-hop chain (bounded at three
        hops total).
        """
        if self.rng.random() < FWB_TARGET_SHARE:
            provider = self._providers[
                int(self.rng.choice(len(self._providers), p=self._provider_probabilities))
            ]
            if provider.service.allows_credential_forms:
                variant = PhishingVariant.CREDENTIAL
                target_url = None
                if depth == 0 and self.rng.random() < DEEP_CHAIN_RATE:
                    variant = PhishingVariant.TWO_STEP
                    target_url = self._external_target(brand, now, depth=1)
                spec = self.phishing_generator.sample_spec(
                    provider.service, self.rng, brand=brand,
                    variant=variant, target_url=target_url,
                )
                site = self.phishing_generator.create_site(
                    provider, now, self.rng, spec=spec
                )
                site.metadata["linked_only"] = True
                site.metadata["chain_depth"] = depth + 1
                return str(site.root_url)
        site = self.kit_generator.create_site(
            self.web.self_hosting, now, self.rng, brand=brand
        )
        site.metadata["linked_only"] = True
        site.metadata["chain_depth"] = depth + 1
        return str(site.root_url)

    # -- attack launching -------------------------------------------------------------

    def launch_fwb_attack(self, now: int) -> LaunchedAttack:
        """Create one FWB phishing site and announce it on social media."""
        provider = self._providers[
            int(self.rng.choice(len(self._providers), p=self._provider_probabilities))
        ]
        spec = self.phishing_generator.sample_spec(provider.service, self.rng)
        if spec.variant in (PhishingVariant.TWO_STEP, PhishingVariant.IFRAME):
            spec.target_url = self._external_target(spec.brand, now)
        site = self.phishing_generator.create_site(provider, now, self.rng, spec=spec)
        return self._announce(site, now, is_fwb=True)

    def launch_self_hosted_attack(self, now: int) -> LaunchedAttack:
        """Create one self-hosted kit attack and announce it."""
        site = self.kit_generator.create_site(self.web.self_hosting, now, self.rng)
        return self._announce(site, now, is_fwb=False)

    def _announce(self, site: HostedSite, now: int, is_fwb: bool) -> LaunchedAttack:
        platform = self._pick_platform()
        post = platform.publish_url(
            site.root_url, author=f"attacker-{int(self.rng.integers(1e6))}",
            now=now, phishing=True,
        )
        attack = LaunchedAttack(
            site=site,
            platform_name=platform.name,
            post_id=post.post_id,
            launched_at=now,
            is_fwb=is_fwb,
        )
        self.launched.append(attack)
        return attack


class BenignUserModel:
    """Posts ordinary FWB customer sites into the same streams."""

    def __init__(
        self,
        web: Web,
        platforms: Dict[str, SocialPlatform],
        rng: np.random.Generator,
    ) -> None:
        self.web = web
        self.platforms = platforms
        self.rng = rng
        self.generator = LegitimateSiteGenerator()
        providers = list(web.fwb_providers.values())
        self._providers = providers
        self.posted: List[Tuple[HostedSite, str]] = []

    def post_benign_site(self, now: int) -> HostedSite:
        provider = self._providers[int(self.rng.integers(len(self._providers)))]
        site = self.generator.create_fwb_site(provider, now, self.rng)
        name = "twitter" if self.rng.random() < BENIGN_TWITTER_SHARE else "facebook"
        platform = self.platforms[name]
        post = platform.publish_url(
            site.root_url, author=f"user-{int(self.rng.integers(1e6))}",
            now=now, phishing=False,
        )
        self.posted.append((site, post.post_id))
        return site
