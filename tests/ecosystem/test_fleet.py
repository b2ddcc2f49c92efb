"""The compiled engine fleet against DetectionEngine.evaluate, its reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SeedBank, _stable_hash
from repro.core.monitor import VT_SAMPLE_OFFSETS
from repro.ecosystem import IntelService, VirusTotal, default_engine_fleet
from repro.ecosystem.fleet import MIN_DETECTION_LATENCY, EngineFleet
from repro.ecosystem.intel import (
    DEFAULT_WEIGHTS,
    SIGNAL_ORDER,
    UrlIntel,
    signal_vector,
    suspicion_score,
)
from repro.simnet import Browser, Web
from repro.simnet.tls import ValidationLevel
from repro.simnet.url import parse_url


def _reference(engines, intel, first_seen):
    return [engine.evaluate(intel, first_seen) for engine in engines]


def _verdicts(compiled, intel, first_seen):
    """The fleet's schedule spelled as ``_reference``'s verdict list."""
    verdicts = [(False, None)] * len(compiled)
    for engine, detection_time in compiled.schedule(intel, first_seen):
        verdicts[engine] = (True, detection_time)
    return verdicts


def _reference_positives(engines, intel, first_seen, now):
    return [
        engine.name
        for engine, (detects, when) in zip(engines, _reference(engines, intel, first_seen))
        if detects and when <= now
    ]


_intel = st.builds(
    lambda *fields: _make_intel(*fields),
    st.integers(0, 10 ** 9),
    st.booleans(),
    st.one_of(st.none(), st.floats(0, 20 * 365, allow_nan=False)),
    st.sampled_from([None, ValidationLevel.DV, ValidationLevel.OV, ValidationLevel.EV]),
    st.lists(st.booleans(), min_size=11, max_size=11),
    st.integers(0, 6),
)


def _make_intel(i, reachable, age, cert, flags, words):
    intel = UrlIntel(url=parse_url(f"https://site{i}.example.xyz/login"), reachable=reachable)
    intel.domain_age_days = age
    intel.cert_level = cert
    (intel.cheap_tld, intel.https, intel.in_ct_log, intel.indexed,
     intel.has_credential_form, intel.brand_title_mismatch, intel.kit_markup,
     intel.malicious_download, intel.external_iframe, intel.linkout_button,
     intel.hidden_elements) = flags
    intel.sensitive_url_words = words
    return intel


@pytest.fixture(scope="module")
def fleet():
    return default_engine_fleet(SeedBank(5))


@pytest.fixture(scope="module")
def compiled(fleet):
    return EngineFleet(fleet)


class TestSignalVector:
    def test_order_covers_every_weight(self):
        assert sorted(SIGNAL_ORDER) == sorted(DEFAULT_WEIGHTS)

    def test_unreachable_has_no_vector(self):
        assert signal_vector(UrlIntel(url=parse_url("https://a.example.com/"))) is None

    @settings(max_examples=200, deadline=None)
    @given(_intel, st.integers(0, 2 ** 32 - 1))
    def test_fold_repeats_suspicion_score(self, intel, weight_seed):
        rng = np.random.default_rng(weight_seed)
        weights = {
            name: value * float(1.0 + 0.3 * rng.normal())
            for name, value in DEFAULT_WEIGHTS.items()
        }
        vector = signal_vector(intel)
        if vector is None:
            assert suspicion_score(intel, weights) == 0.0
            return
        raw = 0.05
        for name, multiplier in zip(SIGNAL_ORDER, vector):
            raw += weights[name] * multiplier
        folded = 0.0 if raw <= 0.0 else float(1.0 - np.exp(-1.35 * raw))
        assert folded == suspicion_score(intel, weights)


class TestEngineFleet:
    def test_compiled_layout(self, fleet, compiled):
        assert len(compiled) == 76
        assert compiled.names == tuple(engine.name for engine in fleet)
        assert compiled.weights.shape == (76, len(SIGNAL_ORDER))
        column = SIGNAL_ORDER.index("kit_markup")
        assert compiled.weights[3, column] == fleet[3].weights["kit_markup"]

    @settings(max_examples=60, deadline=None)
    @given(_intel, st.integers(0, 10 ** 6))
    def test_verdicts_equal_evaluate(self, compiled, intel, first_seen):
        # evaluate caches per URL, so each example needs a fresh fleet.
        engines = default_engine_fleet(SeedBank(5))
        assert _verdicts(compiled, intel, first_seen) == _reference(engines, intel, first_seen)

    def test_small_engine_seeds_give_mixed_entropy_lengths(self):
        """Seeds below 2**32 (and 0) make one-word seed entropy in some lanes."""
        engines = default_engine_fleet(SeedBank(8))
        for engine, seed in zip(engines[::10], [0, 1, 12345, 2 ** 32 - 1, 2 ** 32, 77, 9, 3]):
            engine._seeds = SeedBank(seed)
        compiled = EngineFleet(engines)
        assert sorted(set(compiled._seed_lengths.tolist())) == [1, 2]
        hot = dict(domain_age_days=2.0, cheap_tld=True, has_credential_form=True,
                   brand_title_mismatch=True, kit_markup=True, sensitive_url_words=3)
        detections = 0
        for i in range(40):
            intel = UrlIntel(url=parse_url(f"https://scam{i}-login.xyz/"), reachable=True, **hot)
            expected = _reference(engines, intel, 50)
            assert _verdicts(compiled, intel, 50) == expected
            detections += sum(detects for detects, _when in expected)
        assert detections > 0

    def test_batch_equals_single(self, compiled):
        intels = [
            UrlIntel(url=parse_url(f"https://batch{i}.xyz/"), reachable=True,
                     domain_age_days=float(i), cheap_tld=True, has_credential_form=i % 2 == 0,
                     kit_markup=True, sensitive_url_words=i % 4)
            for i in range(300)  # more than one chunk
        ]
        batched = compiled.schedules(
            np.array([signal_vector(intel) for intel in intels]),
            [_stable_hash(str(intel.url)) for intel in intels],
            list(range(300)),
        )
        assert batched == [compiled.schedule(intel, i) for i, intel in enumerate(intels)]
        assert any(batched)

    def test_detection_times_respect_minimum_latency(self, compiled):
        intel = UrlIntel(url=parse_url("https://scam-now.xyz/"), reachable=True,
                         domain_age_days=1.0, cheap_tld=True, has_credential_form=True,
                         kit_markup=True, brand_title_mismatch=True)
        schedule = compiled.schedule(intel, 1000)
        assert schedule
        assert all(when >= 1000 + MIN_DETECTION_LATENCY for _engine, when in schedule)
        assert [engine for engine, _when in schedule] == sorted(e for e, _w in schedule)

    def test_unreachable_url_has_empty_schedule(self, compiled):
        assert compiled.schedule(UrlIntel(url=parse_url("https://gone.xyz/")), 0) == ()


class TestCampaignEquivalence:
    """Every URL a 1-day campaign tracked, against the per-engine reference."""

    def test_schedules_and_scan_reports(self, campaign_world_and_result):
        world, result = campaign_world_and_result
        vt = world.virustotal
        # A second fleet with the same seeds keeps the world's engines' own
        # verdict caches out of the comparison.
        engines = default_engine_fleet(SeedBank(world.config.seed))
        tracked = world.analysis._tracked
        assert tracked
        samples = {timeline.url: timeline.vt_samples for timeline in result.timelines}
        detected = 0
        for observation in tracked:
            url, key = observation.url, str(observation.url)
            first_seen = vt._first_seen[key]
            intel = world.intel.intel_for(url, first_seen)
            expected = _reference(engines, intel, first_seen)
            assert _verdicts(vt.fleet, intel, first_seen) == expected
            assert vt._schedules[key] == tuple(
                (index, when) for index, (detects, when) in enumerate(expected) if detects
            )
            detected += bool(vt._schedules[key])
            for offset in VT_SAMPLE_OFFSETS:
                now = first_seen + offset
                report = vt.scan(url, now)
                names = _reference_positives(engines, intel, first_seen, now)
                assert report.engines == names
                assert report.positives == len(names)
                assert (offset, len(names)) in samples[key]
        assert detected > 0


class TestLazyScheduling:
    @pytest.fixture()
    def vt(self, fleet):
        web = Web()
        return web, VirusTotal(fleet, IntelService(web, Browser(web)))

    def test_early_scans_wait_and_a_later_scan_schedules_all(self, vt, kit_generator, rng):
        web, vt = vt
        sites = [kit_generator.create_site(web.self_hosting, now=0, rng=rng) for _ in range(3)]
        for site in sites:
            report = vt.scan(site.root_url, now=0)
            assert report.positives == 0 and report.engines == []
        assert len(vt._pending) == 3 and not vt._schedules
        # Still inside the minimum latency: nothing can have fired yet.
        vt.scan(sites[0].root_url, now=MIN_DETECTION_LATENCY - 1)
        assert len(vt._pending) == 3
        week = vt.scan(sites[0].root_url, now=7 * 24 * 60)
        assert not vt._pending and len(vt._schedules) == 3
        assert week.positives > 0

    def test_registration_gathers_intel_once(self, vt, kit_generator, rng):
        web, vt = vt
        site = kit_generator.create_site(web.self_hosting, now=0, rng=rng)
        calls = []
        original = vt.intel_service.intel_for
        vt.intel_service.intel_for = lambda url, now: calls.append(now) or original(url, now)
        for now in (5, 10, 5000, 20000):
            vt.scan(site.root_url, now)
        assert calls == [5]
