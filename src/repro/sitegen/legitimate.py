"""Benign FWB customer-site generation.

The ground-truth dataset pairs 4,656 phishing URLs with an equal number of
manually verified benign FWB sites (§4.2). Benign sites matter for two
reasons: they provide the negative class for classifier training, and they
are the comparison population for the Table-1 code-similarity measurement.

Generated sites follow common free-tier archetypes — small businesses,
blogs, portfolios, community pages — some of which legitimately collect an
email address (newsletter forms), giving the classifier a non-trivial
decision boundary.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..simnet.hosting import FWBHostingProvider, HostedSite, SelfHostingProvider
from ..simnet.web import Web
from . import names
from .templates import ContentBlock, PageSpec, TemplateLibrary

_EXTRA_SENTENCES = (
    "We have been part of this neighborhood for over a decade.",
    "Gift cards are available at the counter and online.",
    "Parking is free behind the building on weekends.",
    "Follow our seasonal specials on the news page.",
    "Workshops run every second Saturday, beginners welcome.",
    "Our team volunteers at the spring street fair each year.",
    "Wholesale inquiries are always welcome, just drop us a line.",
    "Closed on public holidays; see the calendar for details.",
)

_EXTRA_LISTS = (
    ("Monday 8-6", "Tuesday 8-6", "Wednesday 8-6", "Saturday 9-2"),
    ("Sourdough", "Rye", "Baguette", "Seasonal tarts"),
    ("Beginner", "Intermediate", "Advanced"),
    ("Spring fair", "Summer market", "Harvest festival"),
)

_ARCHETYPES = (
    "business", "blog", "portfolio", "community", "newsletter", "store",
    # Sites with a members-area login: legitimate pages that *do* carry a
    # password field, the main source of base-feature confusion (§4.2's
    # motivation for FWB-specific features).
    "members",
)

#: Small fraction of benign owners hide drafts/staging pages from search.
BENIGN_NOINDEX_RATE = 0.04
#: Some benign shops mention payment brands in their copy.
BENIGN_BRAND_MENTION_RATE = 0.18


class LegitimateSiteGenerator:
    """Generates benign sites on FWBs (and benign self-hosted sites)."""

    def __init__(self, templates: Optional[TemplateLibrary] = None) -> None:
        self.templates = templates if templates is not None else TemplateLibrary()

    # -- page specs -------------------------------------------------------------

    def _spec_for(self, archetype: str, site_name: str, rng: np.random.Generator) -> PageSpec:
        pretty = site_name.replace("-", " ").title()
        blocks: List[ContentBlock] = [ContentBlock("heading", text=pretty)]
        if rng.random() < 0.75:
            # Most, but not all, customer sites bother with navigation:
            # single-page landing sites skip it.
            blocks.append(
                ContentBlock(
                    "nav",
                    fields=["Home|/", "About|/about", "Contact|/contact"],
                )
            )
        if archetype == "business":
            blocks += [
                ContentBlock("paragraph", text=f"Welcome to {pretty}. Family owned since 2009."),
                ContentBlock("image", text=f"{pretty} storefront"),
                ContentBlock("paragraph", text="Open Monday to Saturday, 8am to 6pm."),
            ]
        elif archetype == "blog":
            blocks += [
                ContentBlock("paragraph", text="Thoughts on travel, food, and everything between."),
                ContentBlock("paragraph", text="Latest post: ten hikes to try this autumn."),
                ContentBlock("paragraph", text="Archive: 2020, 2021, 2022."),
            ]
        elif archetype == "portfolio":
            blocks += [
                ContentBlock("paragraph", text="Selected work and commissions."),
                ContentBlock("image", text="Project one"),
                ContentBlock("image", text="Project two"),
            ]
        elif archetype == "community":
            blocks += [
                ContentBlock("paragraph", text="Neighborhood association news and meeting minutes."),
                ContentBlock("paragraph", text="Next meeting: first Tuesday of the month."),
            ]
        elif archetype == "newsletter":
            blocks += [
                ContentBlock("paragraph", text="Get our monthly letter in your inbox."),
                ContentBlock("form", text="Subscribe", fields=["name", "email"], href="/subscribe"),
            ]
        elif archetype == "store":
            blocks += [
                ContentBlock("paragraph", text="Handmade goods, shipped worldwide."),
                ContentBlock("image", text="Featured product"),
                ContentBlock("form", text="Ask a question", fields=["name", "email", "message"],
                             href="/contact"),
            ]
            if rng.random() < BENIGN_BRAND_MENTION_RATE:
                blocks.append(
                    ContentBlock(
                        "paragraph",
                        text="We accept PayPaul, Venmoo and all major cards.",
                    )
                )
        else:  # members: a legitimate password-protected area
            if rng.random() < 0.5:
                blocks.append(ContentBlock("image", text=f"{pretty} club logo"))
            blocks += [
                ContentBlock("paragraph", text="Members can sign in to view the schedule."),
                ContentBlock(
                    "form", text="Member Login",
                    fields=["email", "password"], href="/members",
                ),
            ]
        # Real customer sites carry idiosyncratic extra content; this
        # variety is what keeps benign pages from collapsing into a single
        # template instance.
        for _ in range(int(rng.integers(1, 4))):
            if rng.random() < 0.65:
                blocks.append(
                    ContentBlock(
                        "paragraph",
                        text=_EXTRA_SENTENCES[int(rng.integers(len(_EXTRA_SENTENCES)))],
                    )
                )
            else:
                blocks.append(
                    ContentBlock(
                        "list",
                        fields=list(_EXTRA_LISTS[int(rng.integers(len(_EXTRA_LISTS)))]),
                    )
                )
        return PageSpec(
            title=pretty if archetype != "members" else f"{pretty} - Member Login",
            blocks=blocks,
            primary_color="#2a7f62",
            noindex=rng.random() < BENIGN_NOINDEX_RATE,
            obfuscate_banner=False,
        )

    # -- site creation ------------------------------------------------------------

    def create_fwb_site(
        self,
        provider: FWBHostingProvider,
        now: int,
        rng: np.random.Generator,
    ) -> HostedSite:
        """Create one benign customer site on ``provider``'s FWB."""
        archetype = _ARCHETYPES[int(rng.integers(len(_ARCHETYPES)))]
        for _ in range(20):
            site_name = names.benign_site_name(rng)
            host = provider.service.site_host(site_name)
            if provider.site_for_host(host) is None:
                break
        else:  # pragma: no cover - name space is far larger than usage
            site_name = f"{names.benign_site_name(rng)}-{int(rng.integers(1e6))}"
        site = provider.create_site(site_name, owner="benign-user", now=now)
        spec = self._spec_for(archetype, site_name, rng)
        site.add_page("/", self.templates.render(provider.service, spec, rng))
        about = PageSpec(
            title=f"About - {spec.title}",
            blocks=[
                ContentBlock("heading", text="About us"),
                ContentBlock("paragraph", text="We started this page to share what we love."),
            ],
            primary_color=spec.primary_color,
        )
        site.add_page("/about", self.templates.render(provider.service, about, rng))
        site.metadata.update(
            {
                "is_phishing": False,
                "archetype": archetype,
                "brand": None,
                "variant": None,
                "noindex": spec.noindex,
                "obfuscated_banner": False,
            }
        )
        return site

    def create_self_hosted_site(
        self,
        provider: SelfHostingProvider,
        now: int,
        rng: np.random.Generator,
        age_days_range: tuple = (180, 3650),
    ) -> HostedSite:
        """Create a benign self-hosted site with a realistic domain age."""
        for _ in range(20):
            domain = names.benign_domain(rng)
            if domain not in provider.registry:
                break
        else:  # pragma: no cover
            domain = f"site{int(rng.integers(1e9))}.com"
        age_days = int(rng.integers(age_days_range[0], age_days_range[1]))
        site = provider.create_site(
            domain,
            owner="benign-user",
            now=now,
            registered_at=now - age_days * 24 * 60,
        )
        archetype = _ARCHETYPES[int(rng.integers(len(_ARCHETYPES)))]
        spec = self._spec_for(archetype, domain.split(".")[0], rng)
        site.add_page("/", self.templates.render(None, spec, rng))
        site.metadata.update(
            {
                "is_phishing": False,
                "archetype": archetype,
                "brand": None,
                "variant": None,
                "noindex": False,
                "obfuscated_banner": False,
            }
        )
        return site

    def populate_web(
        self,
        web: Web,
        per_fwb: int,
        now: int,
        rng: np.random.Generator,
    ) -> List[HostedSite]:
        """Seed every FWB with ``per_fwb`` benign sites (world warm-up)."""
        sites: List[HostedSite] = []
        for provider in web.fwb_providers.values():
            for _ in range(per_fwb):
                sites.append(self.create_fwb_site(provider, now, rng))
        return sites
