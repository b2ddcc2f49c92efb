"""FWB-hosted phishing-site generation.

Produces the four attack shapes the paper observes:

* ``CREDENTIAL`` — a brand-spoofing login page with credential fields (the
  85.8% majority case);
* ``TWO_STEP`` — a landing page holding only a call-to-action button whose
  click leads to a phishing page on *another* domain (§5.5, Figure 11);
* ``IFRAME`` — a benign-looking wrapper that embeds the real phishing page
  from an external domain in an ``<iframe>`` (§5.5, Figure 12);
* ``DRIVEBY`` — a page distributing a malicious download hosted on a
  third-party site (§5.5).

Every generated site records complete ground truth in ``site.metadata``;
the characterization statistics of §3 (noindex rate, banner obfuscation,
credential-field presence) are controlled by :class:`PhishingMixture`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

import numpy as np

from ..errors import ConfigError
from ..simnet.fwb import FWBService
from ..simnet.hosting import FileAsset, FWBHostingProvider, HostedSite
from . import names
from .brands import Brand, BrandCatalog, default_brand_catalog
from .templates import ContentBlock, PageSpec, TemplateLibrary


class PhishingVariant(str, Enum):
    CREDENTIAL = "credential"
    TWO_STEP = "two_step"
    IFRAME = "iframe"
    DRIVEBY = "driveby"


@dataclass(frozen=True)
class PhishingMixture:
    """Population-level rates calibrated from the paper's §3 measurements."""

    #: 44.7% of FWB phishing URLs carried a <noindex> meta tag.
    noindex_rate: float = 0.447
    #: Share of banner-bearing sites whose banner the phisher hides.
    banner_obfuscation_rate: float = 0.62
    #: Probability a page uses a non-English language (Spanish/Chinese in §3).
    foreign_language_rate: float = 0.02
    #: Probability the page title avoids naming the brand ("Account
    #: Verification Required" instead of "PayPaul - Sign In") — a common
    #: evasion against title-matching heuristics.
    generic_title_rate: float = 0.30
    #: Probability a credential page is *cloaked*: structurally cloned from
    #: an innocuous members-login template (benign-style site name, no brand
    #: text, plain email+password form) with only the brand logo retained.
    #: These pages are indistinguishable from legitimate member portals on
    #: the base feature set — the confusion the FWB-specific features
    #: (banner obfuscation, noindex) resolve.
    cloak_rate: float = 0.32

    def __post_init__(self) -> None:
        for name in ("noindex_rate", "banner_obfuscation_rate",
                     "foreign_language_rate", "generic_title_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")


@dataclass
class PhishingSiteSpec:
    """Fully resolved description of one phishing site to generate."""

    brand: Brand
    variant: PhishingVariant
    noindex: bool
    obfuscate_banner: bool
    #: "inline" or "stylesheet" banner hiding (when obfuscate_banner).
    obfuscation_style: str = "inline"
    language: str = "en"
    #: Title names the brand (False = generic evasion title).
    branded_title: bool = True
    #: Structurally cloned from a benign members-login template.
    cloaked: bool = False
    #: External URL used by TWO_STEP (link target) and IFRAME (frame src).
    target_url: Optional[str] = None
    #: Detections the malicious payload would receive on VirusTotal.
    payload_detections: int = 0


_GENERIC_TITLES = (
    "Account Verification Required",
    "Secure Sign In",
    "Webmail Login",
    "Secure Document Portal",
    "Billing Update",
)

_SUSPENSE_LINES = {
    "en": (
        "Your account has been temporarily suspended.",
        "Unusual sign-in activity was detected on your account.",
        "Action required: verify your information within 24 hours.",
        "Your mailbox is almost full. Validate your account to continue.",
    ),
    "es": (
        "Su cuenta ha sido suspendida temporalmente.",
        "Se detectó actividad inusual en su cuenta.",
    ),
    "zh": (
        "您的账户已被暂时停用。",
        "检测到您的账户存在异常登录活动。",
    ),
}


class PhishingSiteGenerator:
    """Generates FWB-hosted phishing sites with full ground-truth labels."""

    def __init__(
        self,
        catalog: Optional[BrandCatalog] = None,
        templates: Optional[TemplateLibrary] = None,
        mixture: Optional[PhishingMixture] = None,
    ) -> None:
        self.catalog = catalog if catalog is not None else default_brand_catalog()
        self.templates = templates if templates is not None else TemplateLibrary()
        self.mixture = mixture if mixture is not None else PhishingMixture()

    # -- spec sampling -------------------------------------------------------------

    def sample_variant(self, service: FWBService, rng: np.random.Generator) -> PhishingVariant:
        """Draw the attack shape given the service's capabilities (§5.5).

        Services that forbid custom credential forms (Google Sites,
        Sharepoint) push attackers toward the evasive variants.
        """
        if rng.random() < service.evasive_share:
            two_step, iframe, driveby = service.evasive_mix
            draw = rng.random()
            if draw < two_step:
                return PhishingVariant.TWO_STEP
            if draw < two_step + iframe:
                return PhishingVariant.IFRAME
            return PhishingVariant.DRIVEBY
        if not service.allows_credential_forms:
            # Cannot place a form at all: degrade to a two-step page.
            return PhishingVariant.TWO_STEP
        return PhishingVariant.CREDENTIAL

    def sample_spec(
        self,
        service: FWBService,
        rng: np.random.Generator,
        brand: Optional[Brand] = None,
        variant: Optional[PhishingVariant] = None,
        target_url: Optional[str] = None,
    ) -> PhishingSiteSpec:
        brand = brand if brand is not None else self.catalog.sample(rng)
        variant = variant if variant is not None else self.sample_variant(service, rng)
        language = "en"
        if rng.random() < self.mixture.foreign_language_rate:
            language = "es" if rng.random() < 0.6 else "zh"
        return PhishingSiteSpec(
            brand=brand,
            variant=variant,
            branded_title=rng.random() >= self.mixture.generic_title_rate,
            cloaked=(
                variant is PhishingVariant.CREDENTIAL
                and rng.random() < self.mixture.cloak_rate
            ),
            noindex=rng.random() < self.mixture.noindex_rate,
            obfuscate_banner=(
                service.has_banner
                and rng.random() < self.mixture.banner_obfuscation_rate
            ),
            obfuscation_style="stylesheet" if rng.random() < 0.4 else "inline",
            language=language,
            target_url=target_url,
            payload_detections=(
                int(rng.integers(4, 32)) if variant is PhishingVariant.DRIVEBY else 0
            ),
        )

    # -- page assembly -------------------------------------------------------------

    def _suspense_line(self, language: str, rng: np.random.Generator) -> str:
        lines = _SUSPENSE_LINES.get(language, _SUSPENSE_LINES["en"])
        return lines[int(rng.integers(len(lines)))]

    def _page_spec(self, spec: PhishingSiteSpec, rng: np.random.Generator,
                   site_name: str = "") -> PageSpec:
        brand = spec.brand
        if spec.cloaked:
            pretty = site_name.replace("-", " ").title() or "Member Portal"
            blocks = [ContentBlock("heading", text=pretty)]
            if rng.random() < 0.75:
                blocks.append(
                    ContentBlock(
                        "nav",
                        fields=["Home|/", "About|/about", "Contact|/contact"],
                    )
                )
            if rng.random() < 0.7:
                blocks.append(
                    ContentBlock("image", text=f"{brand.name} logo",
                                 href="/logo.png")
                )
            blocks += [
                ContentBlock(
                    "paragraph",
                    text="Members can sign in to view the schedule.",
                ),
                ContentBlock(
                    "form", text="Member Login",
                    fields=["email", "password"], href="/members",
                ),
            ]
            return PageSpec(
                title=f"{pretty} - Member Login",
                blocks=blocks,
                primary_color="#2a7f62",
                noindex=spec.noindex,
                obfuscate_banner=spec.obfuscate_banner,
                obfuscation_style=spec.obfuscation_style,
                language=spec.language,
            )
        blocks: List[ContentBlock] = [
            ContentBlock("image", text=f"{brand.name} logo", href="/logo.png"),
            ContentBlock("heading", text=brand.name),
            ContentBlock("paragraph", text=self._suspense_line(spec.language, rng)),
        ]
        if rng.random() < 0.55:
            # Faithful spoofs copy the brand's chrome: a nav/footer of
            # site-local links, which also blurs the internal-link feature
            # that separates bare kit pages from real sites.
            blocks.insert(
                1,
                ContentBlock(
                    "nav",
                    fields=["Home|/", "Help|/help", "Privacy|/privacy",
                            "Terms|/terms"],
                ),
            )
        if spec.variant is PhishingVariant.CREDENTIAL:
            fields = ["email", "password", *brand.extra_fields]
            blocks.append(
                ContentBlock("form", text="Sign In", fields=fields, href="/submit")
            )
        elif spec.variant is PhishingVariant.TWO_STEP:
            blocks.append(
                ContentBlock(
                    "button",
                    text="Verify your account",
                    href=spec.target_url or f"https://{brand.legitimate_domain}/",
                )
            )
        elif spec.variant is PhishingVariant.IFRAME:
            blocks.append(
                ContentBlock("paragraph", text=f"{brand.name} customer portal.")
            )
            blocks.append(
                ContentBlock(
                    "iframe",
                    href=spec.target_url or f"https://{brand.legitimate_domain}/login",
                    attrs={"width": "100%", "height": "640", "frameborder": "0"},
                )
            )
        else:  # DRIVEBY
            blocks.append(
                ContentBlock(
                    "paragraph",
                    text=f"A secure document from {brand.name} is ready for you.",
                )
            )
            blocks.append(
                ContentBlock("download", text="Open document", href="/invoice.zip")
            )
        if spec.branded_title:
            title = brand.login_title()
        else:
            title = _GENERIC_TITLES[int(rng.integers(len(_GENERIC_TITLES)))]
        return PageSpec(
            title=title,
            blocks=blocks,
            primary_color=brand.primary_color,
            noindex=spec.noindex,
            obfuscate_banner=spec.obfuscate_banner,
            obfuscation_style=spec.obfuscation_style,
            language=spec.language,
        )

    # -- site creation --------------------------------------------------------------

    def create_site(
        self,
        provider: FWBHostingProvider,
        now: int,
        rng: np.random.Generator,
        spec: Optional[PhishingSiteSpec] = None,
    ) -> HostedSite:
        """Create one phishing site on ``provider``'s FWB."""
        service = provider.service
        if spec is None:
            spec = self.sample_spec(service, rng)
        for _ in range(20):
            if spec.cloaked:
                site_name = names.benign_site_name(rng)
            else:
                site_name = names.phishing_site_name(rng, spec.brand.tokens())
            host = service.site_host(site_name)
            if provider.site_for_host(host) is None:
                break
        else:  # pragma: no cover - gibberish space is enormous
            site_name = names.gibberish(rng, 14, 20)
        site = provider.create_site(site_name, owner="attacker", now=now)
        page = self.templates.render(
            service, self._page_spec(spec, rng, site_name), rng
        )
        site.add_page("/", page)
        if spec.variant is PhishingVariant.DRIVEBY:
            site.add_file(
                "/invoice.zip",
                FileAsset(
                    filename="invoice.zip",
                    malicious=True,
                    vt_detections=spec.payload_detections,
                    size_bytes=1 << 19,
                ),
            )
        site.metadata.update(
            {
                "is_phishing": True,
                "brand": spec.brand.slug,
                "variant": spec.variant.value,
                "noindex": spec.noindex,
                "obfuscated_banner": spec.obfuscate_banner,
                "branded_title": spec.branded_title,
                "cloaked": spec.cloaked,
                "language": spec.language,
                "has_credential_form": spec.variant is PhishingVariant.CREDENTIAL,
                "target_url": spec.target_url,
            }
        )
        return site
