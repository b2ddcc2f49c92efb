#!/usr/bin/env python
"""Quickstart: detect one FWB phishing attack end to end.

Builds the simulated web, hosts a PayPaul-spoofing phishing page on Weebly
and an innocuous bakery site next to it, trains the FreePhish classifier on
a small ground-truth corpus, and classifies both pages — printing the
extracted features so you can see *why* the verdicts differ.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import FreePhishClassifier, build_ground_truth
from repro.core.preprocess import Preprocessor
from repro.ml import RandomForestClassifier
from repro.sitegen import LegitimateSiteGenerator, PhishingSiteGenerator
from repro.sitegen.phishing import PhishingVariant


def main() -> None:
    rng = np.random.default_rng(7)

    print("== 1. Train the classifier on a ground-truth corpus ==")
    dataset = build_ground_truth(n_per_class=150, seed=3)
    classifier = FreePhishClassifier(
        model=RandomForestClassifier(n_estimators=40, random_state=7)
    )
    classifier.fit_pages(dataset.pages, dataset.labels)
    print(f"   trained on {len(dataset)} labelled FWB pages\n")

    web = dataset.web  # reuse the simulated internet the corpus lives on
    weebly = web.fwb_providers["weebly"]

    print("== 2. An attacker creates a phishing site on Weebly ==")
    phishing_generator = PhishingSiteGenerator()
    spec = phishing_generator.sample_spec(
        weebly.service, rng, variant=PhishingVariant.CREDENTIAL
    )
    spec.cloaked = False
    spec.obfuscate_banner = True
    spec.noindex = True
    phishing_site = phishing_generator.create_site(weebly, now=0, rng=rng, spec=spec)
    print(f"   {phishing_site.root_url}  (spoofing {spec.brand.name})")

    print("== 3. A legitimate user creates a bakery site ==")
    benign_site = LegitimateSiteGenerator().create_fwb_site(weebly, now=0, rng=rng)
    print(f"   {benign_site.root_url}\n")

    print("== 4. FreePhish snapshots and classifies both ==")
    preprocessor = Preprocessor(web)
    for site in (phishing_site, benign_site):
        page = preprocessor.process(site.root_url, now=10)
        prediction = classifier.classify_page(page)
        verdict = "PHISHING" if prediction.label else "benign"
        print(f"   {site.root_url}")
        print(f"     verdict: {verdict}  (p={prediction.probability:.2f}, "
              f"{prediction.runtime_seconds * 1000:.1f} ms)")
        interesting = (
            "has_login_form", "brand_in_url", "title_brand_mismatch",
            "obfuscated_fwb_banner", "has_noindex",
        )
        values = {k: page.features.values[k] for k in interesting}
        print(f"     features: {values}\n")

    print("== 5. Certificates and WHOIS show the FWB evasion ==")
    record = web.whois.lookup(phishing_site.root_url, now=10)
    certificate = web.ca.certificate_for(phishing_site.root_url)
    print(f"   WHOIS age of {phishing_site.host}: {record.age_years:.1f} years "
          f"(inherited from weebly.com)")
    print(f"   TLS certificate: CN={certificate.common_name}, "
          f"{certificate.level.value} (shared wildcard)")
    print(f"   in CT log as itself? {web.ct_log.contains_host(phishing_site.host)}")


if __name__ == "__main__":
    main()
