"""Smoke tests: every shipped example must run clean end to end."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=240,
    )


class TestExamples:
    def test_quickstart(self):
        result = _run("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "PHISHING" in result.stdout
        assert "benign" in result.stdout
        assert "shared wildcard" in result.stdout

    def test_evasive_attacks(self):
        result = _run("evasive_attacks.py")
        assert result.returncode == 0, result.stderr
        for vector in ("two_step", "iframe", "driveby"):
            assert vector in result.stdout
        assert "clicking the call-to-action lands on" in result.stdout

    def test_browser_extension(self):
        result = _run("browser_extension.py")
        assert result.returncode == 0, result.stderr
        assert "BLOCKED" in result.stdout
        assert "navigations blocked" in result.stdout

    def test_measurement_campaign_small(self):
        result = _run("measurement_campaign.py", "--days", "1", "--target", "60")
        assert result.returncode == 0, result.stderr
        assert "FWB cov" in result.stdout
        assert "abuse-desk report outcomes" in result.stdout

    def test_adaptive_attacker(self):
        result = _run("adaptive_attacker.py")
        assert result.returncode == 0, result.stderr
        assert "responsive trio mass" in result.stdout

    def test_historical_analysis(self):
        result = _run("historical_analysis.py")
        assert result.returncode == 0, result.stderr
        assert "pipeline funnel" in result.stdout

    def test_feature_importance(self):
        result = _run("feature_importance.py")
        assert result.returncode == 0, result.stderr
        assert "Augmented feature set (ours)" in result.stdout
