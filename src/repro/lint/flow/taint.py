"""The interprocedural rules: RP105, RP110, RP111, RP210.

Each rule is a driver over the shared :class:`FlowContext` (symbol index
+ call graph + per-module suppression data) producing plain
:class:`~repro.lint.report.Finding` objects:

* **RP105 — transitive wall-clock.** Generalizes RP101 across call
  edges: a library function whose call chain reaches ``time.*`` /
  ``datetime.now`` is flagged at the call site where the taint enters,
  with the full chain down to the clock read in the message. Functions
  containing a *direct* read are RP101's territory and are skipped here.
* **RP110 — RNG provenance.** Every ``np.random.default_rng(seed)``
  mint must trace its seed to ``SeedBank`` (``child_seed``/``child``/
  ``fresh``), an explicit ``SeedSequence``, a seed-carrying attribute,
  or a named integer constant. Seeds arriving through parameters are
  chased through library call sites; a hardcoded or untraceable value
  anywhere along the chain is flagged where it enters.
* **RP111 — hardcoded seed at a call site.** An integer literal passed
  to a seed-named parameter (``seed`` / ``random_state`` / …) of a
  *project* function or class pins a sub-stream independently of the
  root seed. Defaults declared in signatures are the documented
  contract and stay exempt; call sites must derive.
* **RP210 — simnet purity.** Functions in the ``simnet`` substrate must
  not perform I/O or write module globals, directly or through any
  callee; the finding carries the chain to the impure operation.

Suppression directives apply at both the taint **origin** and the
**sink** call-site line (see :mod:`repro.lint.flow.lattice`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..report import Finding, Severity
from .callgraph import CallGraph, SymbolIndex
from .lattice import Origin, Witness, propagate
from .symbols import FunctionSummary, ModuleSummary

#: Parameter names that carry seeds across call boundaries (RP110/RP111).
SEED_PARAM_NAMES = frozenset(
    {"seed", "random_state", "rng_seed", "root_seed", "seed_value"}
)


class FlowContext:
    """Shared state for one whole-program pass."""

    def __init__(
        self,
        index: SymbolIndex,
        graph: CallGraph,
        severities: Optional[Dict[str, Severity]] = None,
    ) -> None:
        self.index = index
        self.graph = graph
        self.severities = severities if severities is not None else {}

    # -- helpers -------------------------------------------------------------

    def summary_of(self, func_qual: str) -> Optional[ModuleSummary]:
        fn = self.index.functions.get(func_qual)
        if fn is None:
            return None
        return self.index.modules.get(fn.module)

    def path_of(self, func_qual: str) -> str:
        summary = self.summary_of(func_qual)
        return summary.path if summary is not None else "<unknown>"

    def suppression_for(self, rule_id: str):
        def check(func_qual: str, line: int):
            summary = self.summary_of(func_qual)
            if summary is None:
                return None
            return summary.suppressed_at(rule_id, line)
        return check

    def severity(self, rule_id: str) -> Severity:
        return self.severities.get(rule_id, Severity.ERROR)

    def finding(
        self,
        rule_id: str,
        func_qual: str,
        line: int,
        message: str,
        suppressed: bool = False,
        reason: Optional[str] = None,
    ) -> Finding:
        return Finding(
            rule_id=rule_id,
            path=self.path_of(func_qual),
            line=line,
            col=1,
            severity=self.severity(rule_id),
            message=message,
            suppressed=suppressed,
            suppress_reason=reason,
        )


def _short(qualname: str) -> str:
    return qualname[len("repro."):] if qualname.startswith("repro.") else qualname


def _render_chain(ctx: FlowContext, func_qual: str, witness: Witness) -> str:
    names = [func_qual] + [f for f, _line in witness.steps[1:]] \
        + [witness.origin.func]
    # The witness's first step *is* func_qual; dedupe adjacent repeats.
    rendered: List[str] = []
    for name in names:
        if not rendered or rendered[-1] != name:
            rendered.append(_short(name))
    origin_at = f"{ctx.path_of(witness.origin.func)}:{witness.origin.line}"
    return f"{' -> '.join(rendered)} [{witness.origin.detail} at {origin_at}]"


def _iter_functions(ctx: FlowContext) -> List[Tuple[ModuleSummary, FunctionSummary]]:
    out = []
    for module in sorted(ctx.index.modules):
        summary = ctx.index.modules[module]
        for fn in summary.functions:
            out.append((summary, fn))
    return out


# ---------------------------------------------------------------------------
# Reachability rules: RP105 (wall clock) and RP210 (simnet purity)
# ---------------------------------------------------------------------------

def _collect_sources(
    ctx: FlowContext,
    rule_id: str,
    attr: str,
) -> Tuple[Dict[str, Origin], List[Finding]]:
    """First unsuppressed direct source per function; suppressed ones
    become suppressed findings at their origin lines."""
    sources: Dict[str, Origin] = {}
    suppressed: List[Finding] = []
    check = ctx.suppression_for(rule_id)
    for _summary, fn in _iter_functions(ctx):
        for line, detail in getattr(fn, attr):
            hit = check(fn.qualname, line)
            if hit is not None:
                suppressed.append(ctx.finding(
                    rule_id, fn.qualname, line,
                    f"direct source {detail} sanctioned here",
                    suppressed=True, reason=hit[1],
                ))
                continue
            if fn.qualname not in sources:
                sources[fn.qualname] = Origin(fn.qualname, line, str(detail))
    return sources, suppressed


def _in_simnet(func_qual: str) -> bool:
    return "simnet" in func_qual.split(".")


def check_transitive_wall_time(ctx: FlowContext) -> List[Finding]:
    """RP105: no library call chain may reach a wall-clock read."""
    sources, pre_suppressed = _collect_sources(ctx, "RP105", "wall_sources")
    result = propagate(ctx.graph, sources, ctx.suppression_for("RP105"))
    findings = list(pre_suppressed)
    for func_qual in sorted(result.tainted):
        witness = result.tainted[func_qual]
        if not witness.steps:
            continue  # direct read: RP101's finding, not ours
        findings.append(ctx.finding(
            "RP105", func_qual, witness.sink_line,
            "wall-clock read reachable through call chain "
            f"{_render_chain(ctx, func_qual, witness)}; simulation results "
            "must be pure functions of the seed",
        ))
    for hit in result.suppressed:
        if hit.func in sources and hit.line == sources[hit.func].line:
            continue  # already reported by _collect_sources
        findings.append(ctx.finding(
            "RP105", hit.func, hit.line,
            f"wall-clock chain via {_short(hit.origin.func)} sanctioned here",
            suppressed=True, reason=hit.reason,
        ))
    return findings


def check_simnet_purity(ctx: FlowContext) -> List[Finding]:
    """RP210: simnet functions must not reach I/O or global writes."""
    sources, pre_suppressed = _collect_sources(ctx, "RP210", "impure_sources")
    result = propagate(ctx.graph, sources, ctx.suppression_for("RP210"))
    findings = list(pre_suppressed)
    for func_qual in sorted(result.tainted):
        if not _in_simnet(func_qual):
            continue
        witness = result.tainted[func_qual]
        if witness.steps:
            message = (
                "impure operation reachable from simnet through call chain "
                f"{_render_chain(ctx, func_qual, witness)}; the simulated "
                "substrate must not perform I/O or write globals"
            )
        else:
            message = (
                f"impure operation {witness.origin.detail} in simnet code; "
                "the simulated substrate must not perform I/O or write globals"
            )
        findings.append(ctx.finding(
            "RP210", func_qual, witness.sink_line, message,
        ))
    for hit in result.suppressed:
        if not _in_simnet(hit.func):
            continue
        if hit.func in sources and hit.line == sources[hit.func].line:
            continue
        findings.append(ctx.finding(
            "RP210", hit.func, hit.line,
            f"impure chain via {_short(hit.origin.func)} sanctioned here",
            suppressed=True, reason=hit.reason,
        ))
    return findings


# ---------------------------------------------------------------------------
# Provenance rules: RP110 (generator seeds) and RP111 (hardcoded seeds)
# ---------------------------------------------------------------------------

def _resolve_value_kind(
    ctx: FlowContext, summary: ModuleSummary, value: Dict[str, object]
) -> Dict[str, object]:
    """Fold ``name`` references through the symbol index: a name that
    resolves to a module-level integer constant is sanctioned provenance
    (it is named once, in one place); anything else stays opaque."""
    if value.get("kind") != "name":
        return value
    resolved = ctx.index.resolve_local(summary, str(value.get("ref", "")))
    if resolved is not None and resolved[0] == "const" \
            and resolved[1].get("kind") == "int":
        return {"kind": "sanctioned", "via": str(value.get("ref"))}
    return {"kind": "opaque"}


def _describe_value(value: Dict[str, object]) -> str:
    kind = value.get("kind")
    if kind == "literal":
        return f"hardcoded literal {value.get('value')}"
    if kind == "none":
        return "None (falls back to OS entropy)"
    return "an untraceable expression"


def _actual_for(
    site, params: List[str], param: str
) -> Optional[Dict[str, object]]:
    """The classified actual bound to ``param`` at ``site``; None if the
    parameter's default applies."""
    if param in site.kwargs:
        return site.kwargs[param]
    if param in params:
        position = params.index(param)
        if position < len(site.args):
            return site.args[position]
    return None


def check_rng_provenance(ctx: FlowContext) -> Tuple[List[Finding], Set[Tuple[str, int]]]:
    """RP110: every generator's seed must trace back to the seed bank.

    Returns the findings plus the set of ``(path, line)`` call sites it
    reported, so RP111 does not double-report the same literal.
    """
    findings: List[Finding] = []
    reported_sites: Set[Tuple[str, int]] = set()
    check = ctx.suppression_for("RP110")
    #: Worklist of parameters that must receive sanctioned seeds:
    #: (func_qual, param, chain of (func, line) from demander to mint).
    demands: List[Tuple[str, str, Tuple[Tuple[str, int], ...]]] = []
    seen: Set[Tuple[str, str]] = set()

    def emit(func_qual: str, line: int, message: str, origin_line: int,
             origin_func: str) -> None:
        hit = check(func_qual, line)
        if hit is None and origin_func != func_qual:
            hit = check(origin_func, origin_line)
        if hit is not None:
            findings.append(ctx.finding(
                "RP110", func_qual, line, message,
                suppressed=True, reason=hit[1],
            ))
            return
        findings.append(ctx.finding("RP110", func_qual, line, message))
        reported_sites.add((ctx.path_of(func_qual), line))

    for summary, fn in _iter_functions(ctx):
        for mint in fn.rng_mints:
            line = int(mint["line"])
            value = _resolve_value_kind(ctx, summary, dict(mint["arg"]))
            kind = value.get("kind")
            if kind == "sanctioned":
                continue
            if kind == "param":
                key = (fn.qualname, str(value["name"]))
                if key not in seen:
                    seen.add(key)
                    demands.append((fn.qualname, str(value["name"]), ()))
                continue
            emit(
                fn.qualname, line,
                f"np.random.Generator minted from {_describe_value(value)}; "
                "derive the seed from SeedBank.child_seed so it traces to "
                "the root seed",
                line, fn.qualname,
            )

    while demands:
        func_qual, param, chain = demands.pop(0)
        mint_fn = chain[-1][0] if chain else func_qual
        params = ctx.index.callee_params(func_qual)
        for edge in sorted(
            ctx.graph.callers_of(func_qual), key=lambda e: (e.caller, e.line)
        ):
            caller = ctx.index.functions.get(edge.caller)
            caller_summary = ctx.summary_of(edge.caller)
            if caller is None or caller_summary is None:
                continue
            site = caller.calls[edge.site]
            actual = _actual_for(site, params, param)
            if actual is None:
                continue  # signature default applies — documented contract
            value = _resolve_value_kind(ctx, caller_summary, dict(actual))
            kind = value.get("kind")
            if kind == "sanctioned":
                continue
            if kind == "param":
                key = (edge.caller, str(value["name"]))
                if key not in seen:
                    seen.add(key)
                    demands.append((
                        edge.caller, str(value["name"]),
                        ((func_qual, edge.line),) + chain,
                    ))
                continue
            path_names = [edge.caller, func_qual] + [f for f, _l in chain]
            rendered = " -> ".join(_short(n) for n in path_names)
            mint_line = edge.line if not chain else chain[-1][1]
            emit(
                edge.caller, edge.line,
                f"{_describe_value(value)} flows into np.random.default_rng "
                f"through {param}= along {rendered}; derive it from "
                "SeedBank.child_seed",
                mint_line, mint_fn,
            )
    return findings, reported_sites


def check_hardcoded_seed_args(
    ctx: FlowContext, skip_sites: Optional[Set[Tuple[str, int]]] = None
) -> List[Finding]:
    """RP111: integer literals bound to seed-named parameters of project
    callables at library call sites."""
    skip = skip_sites if skip_sites is not None else set()
    findings: List[Finding] = []
    check = ctx.suppression_for("RP111")
    for summary, fn in _iter_functions(ctx):
        for site in fn.calls:
            callees = ctx.index.resolve_call(summary, fn, site)
            if not callees:
                continue
            bad: List[Tuple[str, Dict[str, object]]] = []
            params: List[str] = []
            for callee in callees:
                params.extend(
                    p for p in ctx.index.callee_params(callee)
                    if p not in params
                )
            for name, value in sorted(site.kwargs.items()):
                if name in SEED_PARAM_NAMES and value.get("kind") == "literal":
                    bad.append((name, value))
            for position, value in enumerate(site.args):
                if (
                    position < len(params)
                    and params[position] in SEED_PARAM_NAMES
                    and value.get("kind") == "literal"
                ):
                    bad.append((params[position], value))
            if not bad:
                continue
            if (summary.path, site.line) in skip:
                continue
            callee_name = _short(callees[0])
            for name, value in bad:
                message = (
                    f"hardcoded seed {value.get('value')} passed as {name}= "
                    f"to {callee_name}(); derive it from SeedBank.child_seed "
                    "so every stream traces to the root seed"
                )
                hit = check(fn.qualname, site.line)
                findings.append(ctx.finding(
                    "RP111", fn.qualname, site.line, message,
                    suppressed=hit is not None,
                    reason=hit[1] if hit is not None else None,
                ))
    return findings
