"""RP4xx hygiene rules: mutable defaults, bare except, library asserts,
unused imports."""

from repro.lint import ProjectContext, Severity

from .snippets import lint_snippet, rule_ids


class TestRP401MutableDefault:
    def test_list_literal_default_flagged(self):
        source = "def f(items=[]):\n    return items\n"
        report = lint_snippet(source, scope="tests")
        assert rule_ids(report) == ["RP401"]
        assert report.findings[0].severity is Severity.WARNING

    def test_dict_and_set_defaults_flagged(self):
        source = "def f(a={}, b={1}):\n    return a, b\n"
        assert rule_ids(lint_snippet(source)) == ["RP401", "RP401"]

    def test_factory_call_default_flagged(self):
        source = "def f(items=list()):\n    return items\n"
        assert rule_ids(lint_snippet(source)) == ["RP401"]

    def test_kwonly_default_flagged(self):
        source = "def f(*, items=[]):\n    return items\n"
        assert rule_ids(lint_snippet(source)) == ["RP401"]

    def test_none_default_clean(self):
        source = (
            "def f(items=None):\n"
            "    return [] if items is None else items\n"
        )
        assert rule_ids(lint_snippet(source)) == []

    def test_tuple_default_clean(self):
        source = "def f(names=('a', 'b')):\n    return names\n"
        assert rule_ids(lint_snippet(source)) == []


class TestRP402BareExcept:
    def test_bare_except_flagged_in_all_scopes(self):
        source = "try:\n    x = 1\nexcept:\n    pass\n"
        for scope in ("library", "tests", "examples"):
            assert rule_ids(lint_snippet(source, scope=scope)) == ["RP402"], scope

    def test_typed_except_clean(self):
        source = "try:\n    x = 1\nexcept ValueError:\n    pass\n"
        assert rule_ids(lint_snippet(source)) == []

    def test_broad_but_named_exception_clean(self):
        source = "try:\n    x = 1\nexcept Exception:\n    pass\n"
        assert rule_ids(lint_snippet(source)) == []


class TestRP403LibraryAssert:
    def test_assert_flagged_in_library(self):
        source = "def f(x):\n    assert x > 0\n    return x\n"
        report = lint_snippet(source)
        assert rule_ids(report) == ["RP403"]
        assert report.findings[0].severity is Severity.WARNING

    def test_tests_keep_their_asserts(self):
        source = "def test_f():\n    assert 1 + 1 == 2\n"
        assert rule_ids(lint_snippet(source, scope="tests")) == []

    def test_raise_instead_is_clean(self):
        source = (
            "def f(x):\n"
            "    if x <= 0:\n"
            "        raise ValueError('x must be positive')\n"
            "    return x\n"
        )
        assert rule_ids(lint_snippet(source)) == []


class TestRP404UnusedImport:
    def test_unused_import_flagged_in_all_scopes(self):
        source = "import os\n"
        for scope in ("library", "tests", "examples", "benchmarks"):
            report = lint_snippet(source, scope=scope)
            assert rule_ids(report) == ["RP404"], scope
            assert report.findings[0].severity is Severity.WARNING

    def test_only_the_unused_name_is_flagged(self):
        source = (
            "from typing import Dict, List\n"
            "TABLE: Dict[str, int] = {}\n"
        )
        report = lint_snippet(source)
        assert rule_ids(report) == ["RP404"]
        assert "'List'" in report.findings[0].message

    def test_aliased_and_dotted_imports_bind_their_names(self):
        source = (
            "import numpy as np\n"
            "import os.path\n"
            "from typing import Optional as Opt\n"
        )
        report = lint_snippet(source)
        assert sorted(f.message.split("'")[1] for f in report.findings) == [
            "Opt", "np", "os",
        ]

    def test_used_names_are_clean(self):
        source = (
            "import os.path\n"
            "from typing import List\n"
            "from .models import Page\n"
            "def f(pages: List['Page']) -> str:\n"
            "    return os.path.join(*pages)\n"
        )
        assert rule_ids(lint_snippet(source)) == []

    def test_string_annotation_counts_as_use(self):
        source = (
            "from .config import SimulationConfig\n"
            "def scaled() -> 'SimulationConfig':\n"
            "    return None\n"
        )
        assert rule_ids(lint_snippet(source)) == []

    def test_all_future_and_init_exempt(self):
        source = (
            "from __future__ import annotations\n"
            "from .attacker import AttackerModel\n"
            "__all__ = ['AttackerModel']\n"
        )
        assert rule_ids(lint_snippet(source)) == []
        reexports = "from .attacker import AttackerModel\n"
        assert rule_ids(
            lint_snippet(reexports, path="src/repro/sim/__init__.py")
        ) == []

    def test_function_level_imports_not_checked(self):
        source = "def f():\n    import os\n"
        assert rule_ids(lint_snippet(source)) == []

    def test_name_imported_by_another_module_is_a_reexport(self, tmp_path):
        importer = tmp_path / "src" / "repro" / "sim" / "world.py"
        importer.parent.mkdir(parents=True)
        source = "from ..config import SeedBank\n"
        alone = lint_snippet(
            source, path="src/repro/sim/base.py",
            project=ProjectContext(project_root=tmp_path),
        )
        assert rule_ids(alone) == ["RP404"]

        importer.write_text("from .base import SeedBank\n")
        reexported = lint_snippet(
            source, path="src/repro/sim/base.py",
            project=ProjectContext(project_root=tmp_path),
        )
        assert rule_ids(reexported) == []

    def test_bare_sibling_import_is_a_reexport(self, tmp_path):
        """Benchmarks import their helpers by bare module name."""
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "bench_x.py").write_text(
            "from conftest import emit\n"
        )
        report = lint_snippet(
            "from repro.obs import emit\n", path="benchmarks/conftest.py",
            project=ProjectContext(project_root=tmp_path),
        )
        assert rule_ids(report) == []
