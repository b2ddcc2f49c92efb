"""``python -m repro.lint`` / ``freephish-lint`` command-line front end.

Examples
--------
Lint the whole tree (the CI gate)::

    python -m repro.lint src tests examples benchmarks

Machine-readable output, determinism rules only::

    freephish-lint --format json --select RP1 src

Exit codes: 0 clean, 1 warnings only, 2 errors, 3 internal failure
(see :mod:`repro.lint.report`).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional

from .flow.baseline import BASELINE_FILENAME, Baseline
from .flow.cache import CACHE_FILENAME
from .project import ProjectContext
from .report import EXIT_INTERNAL, Severity
from .rules import RULES, select_rules
from .visitor import run_lint


def _find_project_root(start: Path) -> Path:
    """Walk up from ``start`` to the nearest directory with a pyproject."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").exists() or (candidate / ".git").exists():
            return candidate
    return current


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freephish-lint",
        description="AST-based invariant checker for the FreePhish "
                    "reproduction: determinism, simulation purity, "
                    "feature-schema drift, hygiene.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--select", action="append", default=None,
                        metavar="RPxxx",
                        help="only run rules whose ID starts with this "
                             "prefix (repeatable; RP1 = whole family)")
    parser.add_argument("--ignore", action="append", default=None,
                        metavar="RPxxx",
                        help="skip rules whose ID starts with this prefix")
    parser.add_argument("--fail-on", choices=("warning", "error"),
                        default="warning",
                        help="lowest severity that causes a non-zero exit "
                             "(default: warning)")
    parser.add_argument("--project-root", type=Path, default=None,
                        help="repository root for scope classification "
                             "(default: nearest pyproject.toml/.git upward)")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also list suppressed findings (text format)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    parser.add_argument("--no-flow", action="store_true",
                        help="skip the interprocedural pass (per-file "
                             "rules only)")
    parser.add_argument("--cache", type=Path, default=None, metavar="PATH",
                        help="flow summary-cache file (default: "
                             ".reprolint-cache.json at the project root)")
    parser.add_argument("--no-cache", action="store_true",
                        help="run the flow pass cold, without reading or "
                             "writing the summary cache")
    parser.add_argument("--graph-dump", choices=("dot", "json"), default=None,
                        help="print the resolved call graph in the given "
                             "format and exit")
    parser.add_argument("--baseline", type=Path, default=None, metavar="PATH",
                        help="baseline file for --ratchet/--write-baseline "
                             "(default: lint-baseline.json at the project "
                             "root)")
    parser.add_argument("--ratchet", action="store_true",
                        help="subtract baselined findings: fail only on "
                             "violations not recorded in the baseline")
    parser.add_argument("--write-baseline", action="store_true",
                        help="snapshot the current findings to the baseline "
                             "file and exit clean")
    return parser


def _render_rule_list() -> str:
    lines = []
    for rule in RULES:
        scopes = ",".join(sorted(rule.scopes)) if len(rule.scopes) < 6 else "all"
        lines.append(f"{rule.id}  {rule.name:<24} [{rule.severity.value:<7}] "
                     f"scope={scopes}")
        lines.append(f"       {rule.summary}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_render_rule_list())
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"freephish-lint: path does not exist: {', '.join(missing)}")
        return EXIT_INTERNAL

    for pattern in (args.select or []) + (args.ignore or []):
        if not any(rule.id.startswith(pattern) for rule in RULES):
            print(f"freephish-lint: no rule matches selector {pattern!r} "
                  f"(see --list-rules)")
            return EXIT_INTERNAL

    root = args.project_root if args.project_root else _find_project_root(paths[0])
    rules = select_rules(select=args.select, ignore=args.ignore)
    project = ProjectContext.build(Path(__file__).resolve().parent.parent, root)

    if args.no_cache:
        cache_path: Optional[Path] = None
    elif args.cache is not None:
        cache_path = args.cache
    else:
        cache_path = root / CACHE_FILENAME

    if args.graph_dump is not None:
        from .flow.cache import SummaryCache
        from .flow.engine import FlowEngine

        engine = FlowEngine(
            root,
            cache=SummaryCache(cache_path) if cache_path is not None else None,
        )
        engine.build()
        if engine.graph is None:  # pragma: no cover
            print("freephish-lint: call-graph construction failed")
            return EXIT_INTERNAL
        if args.graph_dump == "dot":
            print(engine.graph.to_dot())
        else:
            print(json.dumps(engine.graph.to_json_dict(), indent=2))
        return 0

    report = run_lint(paths, project_root=root, rules=rules, project=project,
                      flow=not args.no_flow, flow_cache=cache_path)

    baseline_path = args.baseline if args.baseline else root / BASELINE_FILENAME
    if args.write_baseline:
        Baseline.from_report(report).save(baseline_path)
        print(f"freephish-lint: wrote {len(report.findings)} finding(s) to "
              f"{baseline_path}")
        return 0
    if args.ratchet:
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, OSError) as exc:
            print(f"freephish-lint: {exc}")
            return EXIT_INTERNAL
        report = baseline.apply(report)

    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text(show_suppressed=args.show_suppressed))

    fail_on = Severity.ERROR if args.fail_on == "error" else Severity.WARNING
    return report.exit_code(fail_on)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
