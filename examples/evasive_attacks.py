#!/usr/bin/env python
"""§5.5 walkthrough: the three evasive FWB attack vectors.

Constructs one instance of each variant — a two-step landing page, an
iframe embedding, and a malicious drive-by download — shows what a naive
markup scanner sees versus what the dynamic heuristics uncover, and then
runs the automatic vector classifier over all three.

Run:  python examples/evasive_attacks.py
"""

from __future__ import annotations

import numpy as np

from repro.core.evasive import classify_evasive
from repro.simnet import Browser, Web
from repro.sitegen import PhishingSiteGenerator
from repro.sitegen.kits import PhishingKitGenerator
from repro.sitegen.phishing import PhishingVariant


def main() -> None:
    rng = np.random.default_rng(5)
    web = Web()
    browser = Browser(web)
    phishing_generator = PhishingSiteGenerator()
    kit_generator = PhishingKitGenerator()

    # The attacker-controlled external landing page both evasive variants use.
    target = kit_generator.create_site(web.self_hosting, now=0, rng=rng)
    print(f"attacker's hidden credential page: {target.root_url}\n")

    cases = []
    for service_name, variant in (
        ("google_sites", PhishingVariant.TWO_STEP),
        ("blogspot", PhishingVariant.IFRAME),
        ("sharepoint", PhishingVariant.DRIVEBY),
    ):
        provider = web.fwb_providers[service_name]
        spec = phishing_generator.sample_spec(
            provider.service, rng, variant=variant,
            target_url=str(target.root_url),
        )
        cases.append(phishing_generator.create_site(provider, now=0, rng=rng, spec=spec))

    for site in cases:
        url = site.root_url
        snapshot = browser.snapshot(url, now=10)
        print(f"-- {url}  (truth: {site.metadata['variant']})")
        print(f"   credential fields on the page itself: "
              f"{snapshot.facts.has_credential_fields}")
        print(f"   outbound links: {[str(u) for u in snapshot.outbound_links]}")
        print(f"   iframes resolved: "
              f"{[(str(src), bool(markup)) for src, markup in snapshot.iframe_contents]}")
        print(f"   downloads: "
              f"{[(a.filename, a.vt_detections) for a in snapshot.downloads]}")
        vector = classify_evasive(snapshot, browser, now=10)
        print(f"   heuristic classification: {vector.value if vector else None}")
        # What a dynamic analysis (PhishIntention-style) additionally sees:
        chain = browser.follow_workflow(url, now=10)
        if len(chain) > 1:
            print(f"   clicking the call-to-action lands on {chain[1].url} "
                  f"(credentials there: "
                  f"{chain[1].facts.n_password_inputs > 0})")
        print()


if __name__ == "__main__":
    main()
