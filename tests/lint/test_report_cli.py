"""JSON reporter schema, exit-code semantics, and the CLI front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint import RULES, RULES_BY_ID, Severity, select_rules
from repro.lint.cli import main
from repro.lint.report import (
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_INTERNAL,
    EXIT_WARNINGS,
    JSON_SCHEMA_VERSION,
)

from .snippets import lint_snippet

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_at_least_ten_distinct_rules(self):
        assert len({rule.id for rule in RULES}) >= 10

    def test_ids_unique_and_well_formed(self):
        ids = [rule.id for rule in RULES]
        assert len(ids) == len(set(ids))
        assert all(len(i) == 5 and i.startswith("RP") for i in ids)

    def test_every_rule_has_summary(self):
        assert all(rule.summary for rule in RULES)

    def test_every_rule_id_is_unit_tested(self):
        """Each registered rule must appear in a lint test module, so a new
        rule cannot land without violating+clean fixtures."""
        corpus = "".join(
            path.read_text()
            for path in (REPO_ROOT / "tests" / "lint").glob("test_rules_*.py")
        )
        untested = [rule.id for rule in RULES if rule.id not in corpus]
        assert not untested, f"rules without unit tests: {untested}"

    def test_family_selection(self):
        determinism = select_rules(select=["RP1"])
        assert {rule.id for rule in determinism} == {
            "RP101", "RP102", "RP103", "RP104", "RP105", "RP110", "RP111"
        }
        rest = select_rules(ignore=["RP1"])
        assert not any(rule.id.startswith("RP1") for rule in rest)
        assert RULES_BY_ID["RP403"] in rest


class TestJsonSchema:
    def test_finding_fields(self):
        report = lint_snippet("import time\nt = time.time()\n")
        payload = json.loads(report.render_json())
        assert payload["version"] == JSON_SCHEMA_VERSION
        (finding,) = payload["findings"]
        assert finding["rule"] == "RP101"
        assert finding["path"].endswith("module.py")
        assert finding["line"] == 2
        assert finding["severity"] == "error"
        assert "message" in finding and finding["col"] >= 1

    def test_summary_counts(self):
        source = (
            "import time\n"
            "t = time.time()\n"          # error
            "def f(xs=[]):\n"            # warning
            "    return xs\n"
        )
        payload = json.loads(lint_snippet(source).render_json())
        assert payload["summary"] == {
            "errors": 1, "warnings": 1, "suppressed": 0, "files": 1
        }


class TestExitCodes:
    def test_clean_is_zero(self):
        assert lint_snippet("x = 1\n").exit_code() == EXIT_CLEAN

    def test_errors_dominate(self):
        source = "import time\nt = time.time()\ndef f(xs=[]):\n    return xs\n"
        assert lint_snippet(source).exit_code() == EXIT_ERRORS

    def test_warnings_only(self):
        report = lint_snippet("def f(xs=[]):\n    return xs\n")
        assert report.exit_code() == EXIT_WARNINGS
        assert report.exit_code(fail_on=Severity.ERROR) == EXIT_CLEAN


class TestCliMain:
    def _write(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(source)
        return path

    def test_json_format_on_violating_file(self, tmp_path, capsys):
        bad = self._write(
            tmp_path, "bad.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        code = main(["--format", "json", str(bad)])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_ERRORS
        assert [f["rule"] for f in payload["findings"]] == ["RP103"]

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.py", "x = 1\n")
        assert main([str(good)]) == EXIT_CLEAN
        assert "0 errors" in capsys.readouterr().out

    def test_select_filters_rules(self, tmp_path, capsys):
        bad = self._write(
            tmp_path, "bad.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        assert main(["--select", "RP4", str(bad)]) == EXIT_CLEAN
        capsys.readouterr()

    def test_missing_path_is_internal_error(self, capsys):
        assert main(["/no/such/path.py"]) == EXIT_INTERNAL
        capsys.readouterr()

    def test_unknown_selector_is_internal_error(self, tmp_path, capsys):
        """A typo'd --select must not silently select zero rules and pass."""
        bad = self._write(
            tmp_path, "bad.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        assert main(["--select", "RPX", str(bad)]) == EXIT_INTERNAL
        assert "no rule matches" in capsys.readouterr().out
        assert main(["--ignore", "RP9", str(bad)]) == EXIT_INTERNAL
        capsys.readouterr()

    def test_rootless_file_keeps_its_name(self, tmp_path, capsys):
        """Without a pyproject/.git above, findings must still name the
        file, not collapse its relative path to '.'."""
        bad = self._write(tmp_path, "bad.py", "def f(:\n")
        code = main(["--format", "json", str(bad)])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_ERRORS
        assert payload["findings"][0]["path"].endswith("bad.py")

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.id in out

    def test_syntax_error_reported_not_crashed(self, tmp_path, capsys):
        bad = self._write(tmp_path, "broken.py", "def f(:\n")
        code = main(["--format", "json", str(bad)])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_ERRORS
        assert payload["findings"][0]["rule"] == "RP000"


class TestConsoleEntryPoint:
    def test_module_invocation_parses_json_format(self, tmp_path):
        """Smoke test for the freephish-lint entry point: ``python -m
        repro.lint --format json`` on a tiny violating tree."""
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--format", "json", str(bad)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(REPO_ROOT),
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == EXIT_ERRORS, result.stderr
        payload = json.loads(result.stdout)
        assert payload["summary"]["errors"] == 1

    def test_entry_point_declared_in_pyproject(self):
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert 'freephish-lint = "repro.lint.cli:main"' in text
