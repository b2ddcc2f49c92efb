"""Tier-1 gate: the whole tree must be reprolint-clean.

This test is what turns the reproduction's determinism and purity
conventions into enforced invariants: any PR that introduces a wall-clock
read, an unseeded RNG, a real-network import, or feature-schema drift
fails the suite here unless it carries an explicit, justified
``# reprolint: disable=RPxxx`` suppression.
"""

from pathlib import Path

import pytest

from repro.lint import ProjectContext, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
LINTED_DIRS = ("src", "tests", "examples", "benchmarks", "scripts")


@pytest.fixture(scope="module")
def tree_report():
    paths = [REPO_ROOT / name for name in LINTED_DIRS if (REPO_ROOT / name).is_dir()]
    return run_lint(paths, project_root=REPO_ROOT)


class TestTreeIsClean:
    def test_no_unsuppressed_findings(self, tree_report):
        formatted = "\n".join(
            f"{f.path}:{f.line}: {f.rule_id} {f.message}"
            for f in tree_report.findings
        )
        assert not tree_report.findings, f"reprolint violations:\n{formatted}"

    def test_exit_code_clean(self, tree_report):
        assert tree_report.exit_code() == 0

    def test_whole_tree_was_scanned(self, tree_report):
        # A refactor that silently stopped scanning (moved dirs, glob bug)
        # would make this gate vacuous; pin a sane lower bound.
        assert tree_report.files_checked >= 150

    def test_every_suppression_carries_a_reason(self, tree_report):
        unjustified = [
            f"{f.path}:{f.line}: {f.rule_id}"
            for f in tree_report.suppressed
            if not f.suppress_reason
        ]
        assert not unjustified, (
            "suppressions must carry a justification after a dash:\n"
            + "\n".join(unjustified)
        )


class TestGateCatchesViolations:
    """The gate must actually fire: seed one violation of each family into
    a scratch library file and assert the linter reports it."""

    CASES = {
        "RP101": "import time\nt = time.time()\n",
        "RP201": "import requests\nrequests.get\n",
        "RP302": "def f(rng):\n    return rng\n",
        "RP403": "def f(x):\n    assert x\n",
    }

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_seeded_violation_detected(self, rule_id, tmp_path):
        scratch = tmp_path / "src" / "repro" / "seeded.py"
        scratch.parent.mkdir(parents=True)
        scratch.write_text(self.CASES[rule_id])
        report = run_lint(
            [scratch], project_root=tmp_path, project=ProjectContext()
        )
        assert [f.rule_id for f in report.findings] == [rule_id]
        assert report.exit_code() != 0
