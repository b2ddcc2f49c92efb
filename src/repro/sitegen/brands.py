"""Brand catalogue: the organizations phishing attacks impersonate.

The paper's six-month measurement saw attacks against **109 unique brands**
(Figure 5), with a heavily skewed head (Facebook, Microsoft/Office 365,
AT&T, PayPal, Netflix, ...) and a long tail of banks and regional services.
OpenPhish's monthly brand list (409 brands, §3) served as the coders'
reference for spoof identification.

We model a catalogue of 109 brands: an explicit head of widely-phished
companies (fictionalised names kept recognizable in *category*, not
trademark) plus a realistic tail of regional financial institutions —
exactly the long-tail makeup phishing feeds show. Selection weights follow
a Zipf-like distribution so the head dominates, matching Figure 5's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigError

#: Number of brands in the paper's measurement.
PAPER_BRAND_COUNT = 109


@dataclass(frozen=True)
class Brand:
    """One spoofable organization."""

    name: str
    slug: str
    category: str
    legitimate_domain: str
    #: Palette used in both legitimate pages and faithful spoofs.
    primary_color: str
    #: What the login page asks for, beyond email+password.
    extra_fields: Tuple[str, ...] = ()
    #: Zipf-ish popularity weight among attackers.
    weight: float = 1.0

    def login_title(self) -> str:
        return f"{self.name} - Sign In"

    #: Generic words that must not identify a brand on their own ("Credit
    #: Union", "Savings Bank", ... appear across many organizations).
    _GENERIC_WORDS = frozenset(
        {"bank", "credit", "union", "savings", "federal", "community",
         "sign", "login", "secure", "plus", "classic", "virtual", "docs",
         "sites", "forms", "portal"}
    )

    def tokens(self) -> List[str]:
        """Lowercase identifying tokens: slug parts plus name words.

        Used both for deceptive-URL construction and for brand-mention
        matching in page text; generic institution words are excluded.
        """
        out: List[str] = []
        for part in self.slug.replace("-", " ").split():
            if part and part not in self._GENERIC_WORDS and part not in out:
                out.append(part)
        for word in self.name.lower().split():
            cleaned = "".join(ch for ch in word if ch.isalnum())
            if (
                cleaned.isascii()
                and len(cleaned) >= 4
                and cleaned not in self._GENERIC_WORDS
                and cleaned not in out
            ):
                out.append(cleaned)
        if not out:  # every part was generic: fall back to the joined slug
            out.append(self.slug.replace("-", ""))
        return out


_HEAD_BRANDS: List[Tuple[str, str, str, str, Tuple[str, ...]]] = [
    # (name, slug, category, domain, extra credential fields)
    ("Facebrook", "facebrook", "social", "facebrook.com", ()),
    ("Microsop Office 365", "office365", "productivity", "office.microsop.com", ()),
    ("AT&P Telecom", "atp", "telecom", "atp.com", ("phone",)),
    ("PayPaul", "paypaul", "payments", "paypaul.com", ("card",)),
    ("Netflux", "netflux", "streaming", "netflux.com", ("card",)),
    ("Amazom", "amazom", "ecommerce", "amazom.com", ("card", "address")),
    ("Whatsupp", "whatsupp", "messaging", "whatsupp.com", ("phone",)),
    ("Instagrem", "instagrem", "social", "instagrem.com", ()),
    ("Chasé Bank", "chase", "banking", "chase-bank.com", ("ssn", "account")),
    ("Appel", "appel", "technology", "appel.com", ()),
    ("Googel", "googel", "technology", "googel.com", ()),
    ("Coinbasse", "coinbasse", "crypto", "coinbasse.com", ("wallet",)),
    ("DHX Express", "dhx", "logistics", "dhx.com", ("address",)),
    ("USPZ", "uspz", "logistics", "uspz.com", ("address", "card")),
    ("Wells Fargone", "wellsfargone", "banking", "wellsfargone.com", ("ssn", "account")),
    ("Bank of Amerigo", "bankofamerigo", "banking", "bankofamerigo.com", ("ssn", "account")),
    ("LinkedIm", "linkedim", "social", "linkedim.com", ()),
    ("Twitcher", "twitcher", "social", "twitcher.com", ()),
    ("Spotifly", "spotifly", "streaming", "spotifly.com", ("card",)),
    ("Steam Powered", "steam", "gaming", "steam-powered.com", ()),
    ("Outlook Web", "outlook", "productivity", "outlook-web.com", ()),
    ("OneDrive Docs", "onedrive", "productivity", "onedrive-docs.com", ()),
    ("Dropboxx", "dropboxx", "productivity", "dropboxx.com", ()),
    ("Adobe Sign", "adobe", "productivity", "adobe-sign.com", ()),
    ("Binancee", "binancee", "crypto", "binancee.com", ("wallet",)),
    ("MetaMusk Wallet", "metamusk", "crypto", "metamusk.io", ("wallet",)),
    ("Verizom", "verizom", "telecom", "verizom.com", ("phone",)),
    ("T-Mobil", "tmobil", "telecom", "tmobil.com", ("phone",)),
    ("Comcast Xfinity", "xfinity", "telecom", "xfinityy.com", ("phone",)),
    ("HSBD Bank", "hsbd", "banking", "hsbd.com", ("account",)),
    ("Barclaies", "barclaies", "banking", "barclaies.co.uk", ("account",)),
    ("Santanderr", "santanderr", "banking", "santanderr.com", ("account",)),
    ("Credit Agricole Sim", "creditagricole", "banking", "credit-agricole-sim.com", ("account",)),
    ("IRS Tax Portal", "irs", "government", "irs-portal.com", ("ssn",)),
    ("HM Revenue", "hmrevenue", "government", "hm-revenue.co.uk", ("ssn",)),
    ("Netteller", "netteller", "payments", "netteller.com", ("card",)),
    ("Venmoo", "venmoo", "payments", "venmoo.com", ("phone", "card")),
    ("Zelley", "zelley", "payments", "zelley.com", ("phone", "account")),
    ("FedExpress", "fedexpress", "logistics", "fedexpress.com", ("address",)),
    ("UPZ Delivery", "upz", "logistics", "upz-delivery.com", ("address",)),
    ("eBayy", "ebayy", "ecommerce", "ebayy.com", ("card",)),
    ("Alibabba", "alibabba", "ecommerce", "alibabba.com", ("card",)),
    ("Walmarrt", "walmarrt", "ecommerce", "walmarrt.com", ("card",)),
    ("Targett", "targett", "ecommerce", "targett.com", ("card",)),
    ("Disney Plus Plus", "disneyplus", "streaming", "disney-plus-plus.com", ("card",)),
    ("HBO Maxx", "hbomaxx", "streaming", "hbomaxx.com", ("card",)),
    ("Roblux", "roblux", "gaming", "roblux.com", ()),
    ("Fortnute", "fortnute", "gaming", "fortnute.com", ()),
    ("Epic Gamez", "epicgamez", "gaming", "epicgamez.com", ()),
    ("TikTac", "tiktac", "social", "tiktac.com", ("phone",)),
    ("Snapchut", "snapchut", "social", "snapchut.com", ("phone",)),
    ("Telegrum", "telegrum", "messaging", "telegrum.org", ("phone",)),
    ("Yahooo Mail", "yahooo", "productivity", "yahooo.com", ()),
    ("AOL Classic", "aol", "productivity", "aol-classic.com", ()),
    ("Citiibank", "citiibank", "banking", "citiibank.com", ("ssn", "account")),
    ("Capital Two", "capitaltwo", "banking", "capitaltwo.com", ("ssn", "account")),
    ("US Bancorpse", "usbancorpse", "banking", "usbancorpse.com", ("account",)),
    ("PNC Virtual", "pncvirtual", "banking", "pnc-virtual.com", ("account",)),
    ("American Excess", "americanexcess", "payments", "americanexcess.com", ("card",)),
    ("Mastercharge", "mastercharge", "payments", "mastercharge.com", ("card",)),
]

_COLORS = (
    "#1877f2", "#0078d4", "#00a8e0", "#003087", "#e50914", "#ff9900",
    "#25d366", "#e1306c", "#117aca", "#555555", "#4285f4", "#0052ff",
    "#ffcc00", "#333366", "#d71e28", "#e31837", "#0a66c2", "#1da1f2",
    "#1db954", "#171a21",
)

_REGIONS = (
    "Lakeside", "Hillcrest", "Riverton", "Oakdale", "Summit", "Prairie",
    "Harbor", "Granite", "Cypress", "Redwood", "Sierra", "Cascade",
    "Piedmont", "Gulfport", "Bayview", "Northfield", "Westbrook",
    "Eastgate", "Maplewood", "Stonebridge", "Clearwater", "Silverlake",
    "Brookhaven", "Fairfax", "Kingsport",
)

_INSTITUTIONS = ("Credit Union", "Community Bank", "Savings Bank", "Federal CU")


def _tail_brands(count: int) -> List[Brand]:
    """Generate the long tail of regional financial institutions."""
    brands: List[Brand] = []
    i = 0
    while len(brands) < count:
        region = _REGIONS[i % len(_REGIONS)]
        institution = _INSTITUTIONS[(i // len(_REGIONS)) % len(_INSTITUTIONS)]
        name = f"{region} {institution}"
        slug = name.lower().replace(" ", "-").replace(".", "")
        brands.append(
            Brand(
                name=name,
                slug=slug,
                category="regional-banking",
                legitimate_domain=f"{slug.replace('-', '')}.com",
                primary_color=_COLORS[i % len(_COLORS)],
                extra_fields=("account", "ssn"),
                weight=0.0,  # filled in by the catalogue constructor
            )
        )
        i += 1
    return brands


class BrandCatalog:
    """A weighted collection of spoofable brands."""

    def __init__(self, brands: Sequence[Brand]) -> None:
        if not brands:
            raise ConfigError("brand catalogue cannot be empty")
        self.brands: List[Brand] = list(brands)
        self._by_slug: Dict[str, Brand] = {b.slug: b for b in self.brands}
        if len(self._by_slug) != len(self.brands):
            raise ConfigError("duplicate brand slugs in catalogue")
        weights = np.asarray([b.weight for b in self.brands], dtype=np.float64)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ConfigError("brand weights must be non-negative with positive sum")
        self._probabilities = weights / weights.sum()

    def __len__(self) -> int:
        return len(self.brands)

    def __iter__(self):
        return iter(self.brands)

    def by_slug(self, slug: str) -> Brand:
        try:
            return self._by_slug[slug]
        except KeyError:
            raise ConfigError(f"unknown brand slug: {slug!r}") from None

    def sample(self, rng: np.random.Generator) -> Brand:
        """Draw one brand following the attack-popularity distribution."""
        index = int(rng.choice(len(self.brands), p=self._probabilities))
        return self.brands[index]

    def sample_many(self, rng: np.random.Generator, n: int) -> List[Brand]:
        indices = rng.choice(len(self.brands), size=n, p=self._probabilities)
        return [self.brands[int(i)] for i in indices]


def default_brand_catalog(zipf_exponent: float = 1.05) -> BrandCatalog:
    """The 109-brand catalogue with Zipf-distributed attack weights.

    ``zipf_exponent`` controls head-heaviness; 1.05 reproduces Figure 5's
    shape where the top brand draws an order of magnitude more attacks than
    rank ~30.
    """
    head = list(_HEAD_BRANDS)
    tail = _tail_brands(PAPER_BRAND_COUNT - len(head))
    brands: List[Brand] = []
    for rank, entry in enumerate(head, start=1):
        name, slug, category, domain, extra = entry
        brands.append(
            Brand(
                name=name,
                slug=slug,
                category=category,
                legitimate_domain=domain,
                primary_color=_COLORS[(rank - 1) % len(_COLORS)],
                extra_fields=extra,
                weight=1.0 / rank ** zipf_exponent,
            )
        )
    base_rank = len(head)
    for offset, brand in enumerate(tail, start=1):
        rank = base_rank + offset
        brands.append(
            Brand(
                name=brand.name,
                slug=brand.slug,
                category=brand.category,
                legitimate_domain=brand.legitimate_domain,
                primary_color=brand.primary_color,
                extra_fields=brand.extra_fields,
                weight=1.0 / rank ** zipf_exponent,
            )
        )
    if len(brands) != PAPER_BRAND_COUNT:
        raise ConfigError(
            f"catalog must list the paper's {PAPER_BRAND_COUNT} brands, "
            f"got {len(brands)}"
        )
    return BrandCatalog(brands)
