"""Deterministic randomness and global simulation parameters.

Every stochastic component in the library receives a ``numpy.random.Generator``
derived from a single root seed, so that full campaigns are reproducible
bit-for-bit. Components ask for a *named* child generator::

    rng = SeedBank(seed=7).child("social.twitter")

The same (seed, name) pair always yields the same stream, and distinct names
yield independent streams, so adding a new consumer never perturbs existing
ones. Components that take an integer seed (rather than a generator) draw a
*named* derived seed from :meth:`SeedBank.child_seed` — never ad-hoc
arithmetic like ``seed + 1``, which collides the moment two call sites pick
the same offset (reprolint's RP1xx family polices the related RNG rules).

Time is modelled as integer **minutes** since the simulation epoch; helpers
here convert between minutes, hours and ``hh:mm`` strings used by the paper's
tables.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import ConfigError

#: Default root seed used across examples and benchmarks.
DEFAULT_SEED = 20231024  # IMC'23 start date, a memorable constant.

#: The streaming module polls social platforms at this interval (paper §4.1).
STREAM_INTERVAL_MINUTES = 10

#: Monitoring window for coverage measurements: one week (paper §4.4).
MONITOR_WINDOW_MINUTES = 7 * 24 * 60

#: FWB takedown measurements extend to two weeks (paper §5.3).
TAKEDOWN_WINDOW_MINUTES = 14 * 24 * 60

#: Share of phishing announcements posted to Twitter: the measured
#: 19,724 Twitter / 11,681 Facebook split (paper §5).
TWITTER_SHARE = 19724 / 31405

MINUTES_PER_HOUR = 60
MINUTES_PER_DAY = 24 * 60


def _stable_hash(name: str) -> int:
    """Map a component name to a stable 64-bit integer (independent of
    Python's randomized ``hash``)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SeedBank:
    """Bank of named, independent ``numpy.random.Generator`` streams.

    Parameters
    ----------
    seed:
        Root seed. Two banks with the same seed produce identical child
        streams for identical names.
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        if not isinstance(seed, int):
            raise ConfigError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._children: Dict[str, np.random.Generator] = {}

    def child(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator object,
        so sequential draws continue the stream rather than restarting it.
        """
        if name not in self._children:
            seq = np.random.SeedSequence([self.seed, _stable_hash(name)])
            self._children[name] = np.random.default_rng(seq)
        return self._children[name]

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator for ``name`` starting at stream origin."""
        seq = np.random.SeedSequence([self.seed, _stable_hash(name)])
        return np.random.default_rng(seq)

    def child_seed(self, name: str) -> int:
        """Return a stable derived *integer* seed for ``name``.

        For components that take a seed rather than a generator. Replaces
        ad-hoc arithmetic like ``seed + 1``: derived seeds are independent
        per name and never collide between call sites.
        """
        return _stable_hash(f"{self.seed}:{name}") % (2 ** 31)


def minutes_to_hhmm(minutes: float) -> str:
    """Render a duration in minutes as the paper's ``hh:mm`` table format.

    >>> minutes_to_hhmm(361)
    '06:01'
    """
    if minutes < 0:
        raise ConfigError("duration cannot be negative")
    total = int(round(minutes))
    return f"{total // 60:02d}:{total % 60:02d}"


def hhmm_to_minutes(text: str) -> int:
    """Parse ``hh:mm`` (hours may exceed 24, as in the paper's max columns)."""
    try:
        hours_str, minutes_str = text.split(":")
        hours, mins = int(hours_str), int(minutes_str)
    except (ValueError, AttributeError) as exc:
        raise ConfigError(f"invalid hh:mm duration: {text!r}") from exc
    if hours < 0 or not 0 <= mins < 60:
        raise ConfigError(f"invalid hh:mm duration: {text!r}")
    return hours * 60 + mins


@dataclass
class SimulationConfig:
    """Top-level knobs for a full campaign simulation.

    The defaults mirror the paper's six-month measurement (Nov 2022 - May
    2023, 31,405 FWB phishing URLs split 19,724 Twitter / 11,681 Facebook).
    Scaled-down runs simply lower ``target_fwb_phishing``. Cadence, windows
    and the platform split are the module constants above.
    """

    seed: int = DEFAULT_SEED
    duration_days: int = 180
    target_fwb_phishing: int = 31405

    def __post_init__(self) -> None:
        if self.duration_days <= 0:
            raise ConfigError("duration_days must be positive")
        if self.target_fwb_phishing < 0:
            raise ConfigError("target_fwb_phishing cannot be negative")

    @property
    def duration_minutes(self) -> int:
        return self.duration_days * MINUTES_PER_DAY

    @property
    def stream_interval_minutes(self) -> int:
        return STREAM_INTERVAL_MINUTES

    def seed_bank(self) -> SeedBank:
        return SeedBank(self.seed)

    def scaled(self, fraction: float, seed: Optional[int] = None) -> "SimulationConfig":
        """Return a copy with the workload scaled by ``fraction``.

        Used by tests and benchmarks to run the same scenario shape at a
        laptop-friendly size.
        """
        if not 0 < fraction <= 1:
            raise ConfigError("fraction must lie in (0, 1]")
        return SimulationConfig(
            seed=self.seed if seed is None else seed,
            duration_days=max(1, int(self.duration_days * fraction)),
            target_fwb_phishing=max(1, int(self.target_fwb_phishing * fraction)),
        )
