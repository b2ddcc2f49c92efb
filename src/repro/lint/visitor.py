"""Single-pass AST dispatch: parse a file once, fan nodes out to rules.

``classify_scope`` maps a path to one of the rule scopes (``library`` for
``src/repro``, else the top-level directory name), ``FileChecker`` runs
every applicable rule over one file, and :func:`run_lint` drives a whole
file set and aggregates a :class:`~repro.lint.report.LintReport`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .project import ProjectContext
from .report import Finding, LintReport, Severity
from .rules import RULES, Rule
from .suppress import SuppressionIndex

#: Directory names that are never linted.
_EXCLUDED_DIRS = frozenset({"__pycache__", ".git", ".venv", "venv", "build", "dist"})


def classify_scope(path: Path, project_root: Path) -> str:
    """Map a file path to a rule scope.

    Anything under a ``src`` tree is ``library``; otherwise the first
    path component under the project root (``tests``, ``examples``,
    ``benchmarks``, ``scripts``) names the scope, defaulting to ``other``.
    """
    try:
        rel = path.resolve().relative_to(project_root.resolve())
    except ValueError:
        rel = path
    parts = rel.parts
    if not parts:
        return "other"
    if "src" in parts[:2]:
        return "library"
    head = parts[0]
    if head in ("tests", "examples", "benchmarks", "scripts"):
        return head
    return "other"


class FileContext:
    """Mutable per-file state handed to every rule hook."""

    def __init__(
        self,
        path: Path,
        rel_path: str,
        scope: str,
        project: ProjectContext,
        suppressions: SuppressionIndex,
    ) -> None:
        self.path = path
        self.rel_path = rel_path
        self.scope = scope
        self.project = project
        self.suppressions = suppressions
        self.report_sink = LintReport(files_checked=1)
        #: Names holding feature-name collections (RP301 taint pass).
        self.feature_tainted: Set[str] = set()

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        end_line = getattr(node, "end_lineno", None)
        hit = self.suppressions.find(rule.id, line, end_line)
        self.report_sink.add(
            Finding(
                rule_id=rule.id,
                path=self.rel_path,
                line=line,
                col=col + 1,
                severity=rule.severity,
                message=message,
                suppressed=hit is not None,
                suppress_reason=hit[1] if hit is not None else None,
            )
        )


class _Dispatcher(ast.NodeVisitor):
    """Walks the AST once, invoking each rule's hook for its node types."""

    def __init__(self, rules: Sequence[Rule], ctx: FileContext) -> None:
        self.ctx = ctx
        self.hooks: Dict[str, List] = {}
        for rule in rules:
            for attr in dir(rule):
                if attr.startswith("check_"):
                    self.hooks.setdefault(attr[len("check_"):], []).append(
                        getattr(rule, attr)
                    )

    def generic_visit(self, node: ast.AST) -> None:
        for hook in self.hooks.get(type(node).__name__, ()):
            hook(node, self.ctx)
        super().generic_visit(node)


class FileChecker:
    """Lints one file with a fixed rule set and shared project context."""

    def __init__(
        self,
        project: ProjectContext,
        rules: Optional[Sequence[Rule]] = None,
        project_root: Optional[Path] = None,
    ) -> None:
        self.project = project
        self.rules = list(rules) if rules is not None else list(RULES)
        self.project_root = project_root if project_root is not None else Path.cwd()

    def check(self, path: Path, source: Optional[str] = None) -> LintReport:
        scope = classify_scope(path, self.project_root)
        try:
            rel = str(path.resolve().relative_to(self.project_root.resolve()))
        except ValueError:
            rel = str(path)
        if source is None:
            try:
                source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                report = LintReport(files_checked=1)
                report.add(Finding("RP000", rel, 1, 1, Severity.ERROR,
                                   f"cannot read file: {exc}"))
                return report
        ctx = FileContext(
            path=path,
            rel_path=rel,
            scope=scope,
            project=self.project,
            suppressions=SuppressionIndex.from_source(source),
        )
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            ctx.report_sink.add(Finding(
                "RP000", rel, exc.lineno or 1, (exc.offset or 0) + 1,
                Severity.ERROR, f"syntax error: {exc.msg}",
            ))
            return ctx.report_sink
        active = [rule for rule in self.rules if rule.applies_to(scope)]
        if active:
            _Dispatcher(active, ctx).visit(tree)
        return ctx.report_sink


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    out: Set[Path] = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            out.add(path.resolve())
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if not any(part in _EXCLUDED_DIRS for part in candidate.parts):
                    out.add(candidate.resolve())
    return sorted(out)


def run_lint(
    paths: Sequence[Path],
    project_root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
    project: Optional[ProjectContext] = None,
    flow: bool = True,
    flow_cache: Optional[Path] = None,
) -> LintReport:
    """Lint every Python file under ``paths`` and aggregate the findings.

    When ``flow`` is true and the run touches library code, the
    interprocedural pass (:mod:`repro.lint.flow`) runs over the whole
    ``src`` tree and its findings merge into the same report.
    ``flow_cache`` names the summary-cache file; ``None`` runs cold.
    """
    root = project_root if project_root is not None else Path.cwd()
    if project is None:
        package_dir = Path(__file__).resolve().parent.parent
        project = ProjectContext.build(package_dir, root)
    checker = FileChecker(project=project, rules=rules, project_root=root)
    report = LintReport()
    saw_library = False
    for path in iter_python_files(paths):
        saw_library = saw_library or classify_scope(path, root) == "library"
        report.extend(checker.check(path))

    flow_rules = [r for r in checker.rules if getattr(r, "is_flow", False)]
    if flow and flow_rules and saw_library and (root / "src").is_dir():
        # Imported lazily: flow is an optional whole-program pass and the
        # per-file machinery must not depend on it.
        from .flow.cache import SummaryCache
        from .flow.engine import FlowEngine

        engine = FlowEngine(
            root,
            enabled=[r.id for r in flow_rules],
            severities={r.id: r.severity for r in flow_rules},
            cache=SummaryCache(flow_cache) if flow_cache is not None else None,
        )
        report.extend(engine.run())
    return report
