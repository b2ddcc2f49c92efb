"""The flow-analysis orchestrator.

One :class:`FlowEngine` run is: scan the library tree → load or extract
per-module summaries (content-hash cache) → build the symbol index and
call graph → execute the enabled interprocedural rules → return a
:class:`~repro.lint.report.LintReport`.

The engine reports ``files_checked=0`` because :func:`repro.lint.run_lint`
already counts every file in its per-file pass; flow findings merge into
the same report without double-counting. ``index``/``graph`` stay
available after :meth:`build` for ``--graph-dump``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..report import LintReport, Severity
from .cache import SummaryCache, content_hash
from .callgraph import CallGraph, SymbolIndex
from .symbols import ModuleSummary, extract_module
from .taint import (
    FlowContext,
    check_hardcoded_seed_args,
    check_rng_provenance,
    check_simnet_purity,
    check_transitive_wall_time,
)

#: Directory names never scanned (mirrors the per-file pass).
_EXCLUDED_DIRS = frozenset({"__pycache__", ".git", ".venv", "venv", "build", "dist"})

#: The interprocedural rule IDs this engine implements.
FLOW_RULE_IDS = ("RP105", "RP110", "RP111", "RP210")


class FlowEngine:
    """Whole-program analysis over a project's ``src`` tree."""

    def __init__(
        self,
        project_root: Path,
        enabled: Optional[Sequence[str]] = None,
        severities: Optional[Dict[str, Severity]] = None,
        cache: Optional[SummaryCache] = None,
    ) -> None:
        self.project_root = Path(project_root)
        self.enabled = (
            tuple(enabled) if enabled is not None else FLOW_RULE_IDS
        )
        self.severities = severities if severities is not None else {}
        self.cache = cache
        self.summaries: List[ModuleSummary] = []
        self.index: Optional[SymbolIndex] = None
        self.graph: Optional[CallGraph] = None

    # -- phases --------------------------------------------------------------

    def files(self) -> List[Path]:
        src = self.project_root / "src"
        if not src.is_dir():
            return []
        return sorted(
            p for p in src.rglob("*.py")
            if not any(part in _EXCLUDED_DIRS for part in p.parts)
        )

    def build(self) -> None:
        """Extract (or load cached) summaries and build the call graph."""
        self.summaries = []
        live: List[str] = []
        for path in self.files():
            try:
                data = path.read_bytes()
            except OSError:
                continue  # the per-file pass reports unreadable files
            rel = path.relative_to(self.project_root).as_posix()
            live.append(rel)
            sha = content_hash(data)
            summary = self.cache.get(rel, sha) if self.cache is not None else None
            if summary is None:
                try:
                    source = data.decode("utf-8")
                except UnicodeDecodeError:
                    continue
                summary = extract_module(rel, source, sha)
                if summary is None:
                    continue  # syntax error — RP000 from the per-file pass
                if self.cache is not None:
                    self.cache.put(rel, summary)
            self.summaries.append(summary)
        if self.cache is not None:
            self.cache.prune(live)
            self.cache.save()
        self.index = SymbolIndex(self.summaries)
        self.graph = CallGraph.build(self.index)

    def run(self) -> LintReport:
        """Build (if needed) and execute the enabled flow rules."""
        if self.graph is None:
            self.build()
        if self.index is None or self.graph is None:  # pragma: no cover
            raise RuntimeError("flow engine build() did not produce a graph")
        ctx = FlowContext(self.index, self.graph, self.severities)
        report = LintReport(files_checked=0)
        enabled = set(self.enabled)
        if "RP105" in enabled:
            for finding in check_transitive_wall_time(ctx):
                report.add(finding)
        if "RP210" in enabled:
            for finding in check_simnet_purity(ctx):
                report.add(finding)
        rng_sites = set()
        if "RP110" in enabled:
            findings, rng_sites = check_rng_provenance(ctx)
            for finding in findings:
                report.add(finding)
        if "RP111" in enabled:
            for finding in check_hardcoded_seed_args(ctx, rng_sites):
                report.add(finding)
        return report
