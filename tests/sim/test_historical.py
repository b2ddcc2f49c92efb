"""§2 historical pipeline: SLD filtering, VT labelling, D1 construction."""

import pytest

from repro.config import SeedBank
from repro.ecosystem import IntelService, default_engine_fleet
from repro.simnet import Browser
from repro.sim.historical import (
    D1Dataset,
    DYNDNS_PROVIDERS,
    HistoricalPipeline,
    VT_PHISHING_THRESHOLD,
)


@pytest.fixture(scope="module")
def pipeline_run():
    pipeline = HistoricalPipeline(seed=23)
    dataset = pipeline.run(scale=0.012)
    return pipeline, dataset


class TestPipeline:
    def test_threshold_matches_literature(self):
        assert VT_PHISHING_THRESHOLD == 2

    def test_apex_urls_dropped_by_sld_filter(self, pipeline_run):
        _pipeline, dataset = pipeline_run
        assert dataset.dropped_no_sld > 0
        # Nothing without a subdomain survives into D1.
        assert all(s.url.has_subdomain for s in dataset.fwb_phishing)

    def test_dyndns_separated_from_fwb(self, pipeline_run):
        """DuckDNS/Netlify-style hosts are recognised but set aside (§2)."""
        _pipeline, dataset = pipeline_run
        assert dataset.dyndns_phishing
        dyndns_domains = {domain for _name, domain in DYNDNS_PROVIDERS}
        for sample in dataset.dyndns_phishing:
            assert sample.url.registered_domain in dyndns_domains
        for sample in dataset.fwb_phishing:
            assert sample.url.registered_domain not in dyndns_domains

    def test_d1_is_mostly_true_phishing(self, pipeline_run):
        """VT >= 2 labelling yields a high-purity dataset (the coders later
        confirm ~93% of a sample, §3)."""
        pipeline, dataset = pipeline_run
        phishing = benign = 0
        for sample in dataset.fwb_phishing:
            site = pipeline.web.site_for(sample.url)
            if site is not None and site.metadata.get("is_phishing"):
                phishing += 1
            else:
                benign += 1
        assert phishing / max(phishing + benign, 1) > 0.8

    def test_twitter_dominates_platform_split(self, pipeline_run):
        _pipeline, dataset = pipeline_run
        assert dataset.n_twitter > dataset.n_facebook

    def test_quarterly_counts_rise(self, pipeline_run):
        _pipeline, dataset = pipeline_run
        counts = dataset.quarterly_counts()
        early = sum(v for (q, _p), v in counts.items() if q <= 2)
        late = sum(v for (q, _p), v in counts.items() if q >= 8)
        assert late > early

    def test_fwb_mix_shifts_to_new_services(self, pipeline_run):
        _pipeline, dataset = pipeline_run
        mix = dataset.fwb_mix_by_quarter()
        first = mix[min(mix)]
        last = mix[max(mix)]
        assert set(last) - set(first), "new SLDs appear in later quarters"

    def test_benign_mass_filtered(self, pipeline_run):
        _pipeline, dataset = pipeline_run
        assert dataset.benign_or_undetected > 0


    def test_batched_labels_match_per_engine_reference(self, pipeline_run):
        """VT labels come from one batched fleet call; every engine's own
        ``evaluate`` labels the corpus identically."""
        _pipeline, dataset = pipeline_run
        fresh = HistoricalPipeline(seed=23)
        stream, _quarters = fresh.generate_stream(0.012)
        intel = IntelService(fresh.web, Browser(fresh.web))
        engines = default_engine_fleet(SeedBank(23))
        dyndns_domains = {domain for _name, domain in DYNDNS_PROVIDERS}
        week = 7 * 24 * 60
        fwb, dyndns, other = [], [], 0
        for sample in stream:
            if not sample.url.has_subdomain:
                continue
            url_intel = intel.intel_for(sample.url, 0)
            verdicts = [engine.evaluate(url_intel, 0) for engine in engines]
            if sum(d and t <= week for d, t in verdicts) < VT_PHISHING_THRESHOLD:
                other += 1
            elif sample.url.registered_domain in dyndns_domains:
                dyndns.append(str(sample.url))
            elif fresh.web.fwb_for(sample.url) is not None:
                fwb.append(str(sample.url))
            else:
                other += 1
        assert [str(s.url) for s in dataset.fwb_phishing] == fwb
        assert [str(s.url) for s in dataset.dyndns_phishing] == dyndns
        assert dataset.benign_or_undetected == other


class TestD1Dataset:
    def test_empty_dataset_properties(self):
        dataset = D1Dataset()
        assert dataset.n_twitter == 0
        assert dataset.quarterly_counts() == {}
        assert dataset.fwb_mix_by_quarter() == {}
