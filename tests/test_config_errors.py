"""Configuration, RNG determinism, and the error hierarchy."""

import numpy as np
import pytest

import repro
from repro import errors
from repro.config import (
    DEFAULT_SEED,
    TWITTER_SHARE,
    SeedBank,
    SimulationConfig,
    hhmm_to_minutes,
    minutes_to_hhmm,
)
from repro.errors import ConfigError, ReproError


class TestRngFactory:
    """Named, deterministic generator streams from :class:`SeedBank`."""

    def test_same_name_same_stream(self):
        a = SeedBank(1).child("x").random(5)
        b = SeedBank(1).child("x").random(5)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        factory = SeedBank(1)
        a = factory.child("alpha").random(5)
        b = factory.child("beta").random(5)
        assert not np.array_equal(a, b)

    def test_child_is_cached_and_stateful(self):
        factory = SeedBank(1)
        first = factory.child("x")
        assert factory.child("x") is first
        draw_one = first.random()
        draw_two = factory.child("x").random()
        assert draw_one != draw_two  # stream continues, not restarts

    def test_fresh_restarts_stream(self):
        factory = SeedBank(1)
        factory.child("x").random(10)
        fresh = factory.fresh("x").random(3)
        assert np.array_equal(fresh, SeedBank(1).fresh("x").random(3))

    def test_different_seeds_differ(self):
        a = SeedBank(1).child("x").random(5)
        b = SeedBank(2).child("x").random(5)
        assert not np.array_equal(a, b)

    def test_seed_type_validated(self):
        with pytest.raises(ConfigError):
            SeedBank("not-an-int")


class TestTimeFormatting:
    @pytest.mark.parametrize("minutes,expected", [
        (0, "00:00"),
        (51, "00:51"),
        (361, "06:01"),
        (583, "09:43"),
        (7 * 24 * 60, "168:00"),
    ])
    def test_minutes_to_hhmm(self, minutes, expected):
        assert minutes_to_hhmm(minutes) == expected

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            minutes_to_hhmm(-1)

    @pytest.mark.parametrize("bad", ["", "12", "1:99", "-1:00", "x:y", None])
    def test_bad_hhmm_rejected(self, bad):
        with pytest.raises(ConfigError):
            hhmm_to_minutes(bad)


class TestSimulationConfig:
    def test_defaults_match_paper(self):
        config = SimulationConfig()
        assert config.duration_days == 180
        assert config.target_fwb_phishing == 31405
        assert abs(TWITTER_SHARE - 19724 / 31405) < 1e-12
        assert config.stream_interval_minutes == 10

    def test_duration_minutes(self):
        assert SimulationConfig(duration_days=2).duration_minutes == 2 * 24 * 60

    def test_seed_bank_uses_seed(self):
        config = SimulationConfig(seed=99)
        assert config.seed_bank().seed == 99


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, ReproError), name

    def test_specific_parentage(self):
        assert issubclass(errors.DomainTakenError, errors.DNSError)
        assert issubclass(errors.SiteRemovedError, errors.FetchError)

    def test_catchable_as_base(self):
        from repro.simnet.url import parse_url

        with pytest.raises(ReproError):
            parse_url("not a url")


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_default_seed_constant(self):
        assert DEFAULT_SEED == 20231024
