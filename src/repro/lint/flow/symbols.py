"""Per-module fact extraction for the interprocedural analysis.

One file is parsed exactly once into a :class:`ModuleSummary` — a plain,
JSON-serializable record of everything the whole-program passes need:

* the import alias table (``np`` → ``numpy``, relative imports resolved
  to absolute module paths);
* classes with bases, methods, and statically inferable attribute types
  (class-level annotations plus ``self.x = ClassName(...)`` in methods);
* module-level constants, including ``functools.partial`` bindings;
* one :class:`FunctionSummary` per function/method (module-level
  statements form a ``<module>`` pseudo-function) holding every call
  site with its receiver chain and classified arguments, plus the
  *direct* facts the taint passes seed from: wall-clock reads, impure
  operations (I/O, global writes), and ``default_rng`` mints;
* the file's suppression directives (so flow findings can honour
  suppressions at both taint origins and sinks without re-reading files
  on warm runs).

A summary depends only on the file's content — never on other modules —
which is what makes the content-hash cache sound: resolution against the
rest of the project happens later, in :mod:`repro.lint.flow.callgraph`.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..project import module_name_for, resolve_relative
from ..rules import WallClockRule, dotted_name
from ..suppress import SuppressionIndex

#: Pseudo-function name for statements at module top level.
MODULE_BODY = "<module>"

#: ``default_rng`` spellings accepted by RP103; mirrored here for mints.
_DEFAULT_RNG_CHAINS = frozenset(
    {"default_rng", "np.random.default_rng", "numpy.random.default_rng"}
)

#: Seed expressions considered *sanctioned* provenance when they appear
#: syntactically: SeedBank streams, explicit SeedSequences, and
#: seed-carrying attributes (``self.seed``, ``config.random_state``, …).
_SANCTIONED_SEED_CALLS = frozenset({"child_seed", "child", "fresh", "SeedSequence"})
_SANCTIONED_SEED_ATTRS = frozenset({"seed", "_seed", "random_state", "root_seed"})

#: Call chains that perform I/O or otherwise escape the simulation
#: substrate; any function reaching one is impure for RP210.
_IMPURE_CALLS = frozenset({
    "open", "io.open",
    "os.remove", "os.unlink", "os.rename", "os.replace", "os.rmdir",
    "os.mkdir", "os.makedirs", "os.removedirs", "os.truncate",
    "os.chmod", "os.system",
})
_IMPURE_CALL_PREFIXES = ("shutil.", "sys.stdout.", "sys.stderr.")
#: Method names that write regardless of receiver (pathlib-style).
_IMPURE_METHODS = frozenset({"write_text", "write_bytes", "touch"})

_BANNED_WALL_CALLS = WallClockRule._BANNED_CALLS
_BANNED_FROM_TIME = WallClockRule._BANNED_FROM_TIME


@dataclass
class CallSite:
    """One resolved-later call expression inside a function body."""

    line: int
    col: int
    #: Receiver chain, e.g. ``["self", "cache", "get"]`` or
    #: ``["build_ground_truth"]``; resolution happens against the project
    #: symbol index.
    chain: List[str]
    #: Classified positional arguments (see :func:`classify_value`).
    args: List[Dict[str, object]] = field(default_factory=list)
    #: Classified keyword arguments by name.
    kwargs: Dict[str, Dict[str, object]] = field(default_factory=dict)


@dataclass
class FunctionSummary:
    """Statically harvested facts about one function or method."""

    qualname: str
    name: str
    module: str
    cls: Optional[str]
    line: int
    params: List[str] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    #: Function-local ``functools.partial`` bindings: var → target ref.
    local_partials: Dict[str, str] = field(default_factory=dict)
    #: ``[line, detail]`` pairs of direct wall-clock reads/imports.
    wall_sources: List[List[object]] = field(default_factory=list)
    #: ``[line, detail]`` pairs of direct impure operations.
    impure_sources: List[List[object]] = field(default_factory=list)
    #: ``default_rng`` mints: ``{"line": n, "arg": <classified value>}``.
    rng_mints: List[Dict[str, object]] = field(default_factory=list)
    #: Annotated/constructed local variable types: var → type ref string.
    local_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ClassSummary:
    name: str
    bases: List[str] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)
    #: Attribute name → type reference string (``"VerdictService"`` or
    #: ``"serve.service.VerdictService"``), resolved later.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything the whole-program passes need from one file."""

    module: str
    path: str
    sha256: str
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: Module-level bindings: name → {"kind": "int"|"partial", ...}.
    constants: Dict[str, Dict[str, object]] = field(default_factory=dict)
    functions: List[FunctionSummary] = field(default_factory=list)
    #: Suppression directives: ``{"file_rules": [...], "lines": [[line,
    #: [rules...]], ...], "reasons": [[line, rule, reason], ...],
    #: "file_reasons": [[rule, reason], ...]}`` — list-of-pairs form so a
    #: JSON round-trip is lossless (JSON object keys are strings).
    suppressions: Dict[str, list] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ModuleSummary":
        summary = cls(
            module=payload["module"],
            path=payload["path"],
            sha256=payload["sha256"],
            imports=dict(payload.get("imports", {})),
            constants={k: dict(v) for k, v in payload.get("constants", {}).items()},
            suppressions={k: list(v) for k, v in payload.get("suppressions", {}).items()},
        )
        for name, raw in payload.get("classes", {}).items():
            summary.classes[name] = ClassSummary(
                name=raw["name"],
                bases=list(raw.get("bases", [])),
                methods=list(raw.get("methods", [])),
                attr_types=dict(raw.get("attr_types", {})),
            )
        for raw in payload.get("functions", []):
            summary.functions.append(FunctionSummary(
                qualname=raw["qualname"],
                name=raw["name"],
                module=raw["module"],
                cls=raw.get("cls"),
                line=raw["line"],
                params=list(raw.get("params", [])),
                calls=[
                    CallSite(
                        line=c["line"], col=c["col"], chain=list(c["chain"]),
                        args=[dict(a) for a in c.get("args", [])],
                        kwargs={k: dict(v) for k, v in c.get("kwargs", {}).items()},
                    )
                    for c in raw.get("calls", [])
                ],
                local_partials=dict(raw.get("local_partials", {})),
                wall_sources=[list(s) for s in raw.get("wall_sources", [])],
                impure_sources=[list(s) for s in raw.get("impure_sources", [])],
                rng_mints=[dict(m) for m in raw.get("rng_mints", [])],
                local_types=dict(raw.get("local_types", {})),
            ))
        return summary

    def suppressed_at(self, rule_id: str, line: int) -> Optional[Tuple[bool, Optional[str]]]:
        """Mirror :meth:`SuppressionIndex.find` over the serialized form."""
        data = self.suppressions
        if rule_id in data.get("file_rules", []):
            for rule, reason in data.get("file_reasons", []):
                if rule == rule_id:
                    return True, reason
            return True, None
        for entry_line, rules in data.get("lines", []):
            if entry_line == line and rule_id in rules:
                for r_line, rule, reason in data.get("reasons", []):
                    if r_line == line and rule == rule_id:
                        return True, reason
                return True, None
        return None


def _chain_of(func: ast.expr) -> Optional[List[str]]:
    chain = dotted_name(func)
    return chain.split(".") if chain is not None else None


def _annotation_ref(annotation: Optional[ast.expr]) -> Optional[str]:
    """Dotted reference of a (possibly wrapped/stringified) annotation."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    # Unwrap Optional[X] / Final[X]; element types of sequences are not
    # tracked here (method calls on elements stay unresolved — safe).
    if isinstance(annotation, ast.Subscript):
        head = dotted_name(annotation.value)
        if head is not None and head.split(".")[-1] in ("Optional", "Final", "Annotated"):
            inner = annotation.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_ref(inner)
        return None
    return dotted_name(annotation)


class _FunctionScanner:
    """Collects calls, sources, mints, and local types for one function."""

    def __init__(self, summary: FunctionSummary, aliases: Dict[str, str]) -> None:
        self.summary = summary
        self.aliases = aliases
        self._global_names: set = set()
        self._local_values: Dict[str, Dict[str, object]] = {}

    # -- value classification ----------------------------------------------

    def classify_value(self, node: ast.expr) -> Dict[str, object]:
        """Classify a seed-carrying expression for the provenance pass."""
        if isinstance(node, ast.Constant):
            if node.value is None:
                return {"kind": "none"}
            if isinstance(node.value, bool):
                return {"kind": "const"}
            if isinstance(node.value, int):
                return {"kind": "literal", "value": node.value}
            return {"kind": "const"}
        if isinstance(node, ast.Call):
            chain = _chain_of(node.func)
            if chain is not None and chain[-1] in _SANCTIONED_SEED_CALLS:
                return {"kind": "sanctioned", "via": chain[-1]}
            return {"kind": "opaque"}
        if isinstance(node, ast.Attribute):
            if node.attr in _SANCTIONED_SEED_ATTRS:
                return {"kind": "sanctioned", "via": node.attr}
            return {"kind": "opaque"}
        if isinstance(node, ast.Name):
            if node.id in self.summary.params:
                return {"kind": "param", "name": node.id}
            if node.id in self._local_values:
                return dict(self._local_values[node.id])
            # Module constant or imported name: judged at resolution time.
            return {"kind": "name", "ref": self.aliases.get(node.id, node.id)}
        if isinstance(node, (ast.BinOp, ast.IfExp)):
            # Seed arithmetic (``base + 97 * k``) and conditional fallbacks
            # derive from their operands: if any operand is sanctioned the
            # expression is a sanctioned derivation; a lone parameter
            # operand keeps flowing as that parameter.
            if isinstance(node, ast.BinOp):
                operands = [node.left, node.right]
            else:
                operands = [node.body, node.orelse]
            kinds = [self.classify_value(operand) for operand in operands]
            for value in kinds:
                if value["kind"] in ("sanctioned", "name"):
                    return dict(value)
            for value in kinds:
                if value["kind"] == "param":
                    return dict(value)
        return {"kind": "opaque"}

    # -- traversal ----------------------------------------------------------

    def scan(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._scan_stmt(stmt)

    def _scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Global):
            self._global_names.update(stmt.names)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module == "time":
            for alias in stmt.names:
                if alias.name in _BANNED_FROM_TIME:
                    self.summary.wall_sources.append(
                        [stmt.lineno, f"time.{alias.name}"]
                    )
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._scan_assign(stmt)
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.stmt):
                self._scan_stmt(node)
            else:
                self._scan_expr_tree(node)

    def _scan_assign(self, stmt: ast.stmt) -> None:
        targets: List[ast.expr]
        value: Optional[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        else:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id in self._global_names:
                self.summary.impure_sources.append(
                    [stmt.lineno, f"write to module global {target.id!r}"]
                )
        if value is None:
            return
        single = targets[0] if len(targets) == 1 else None
        if isinstance(single, ast.Name):
            # Local type from annotation or constructor-looking call, plus
            # functools.partial bindings so ``f = partial(g); f()`` edges
            # resolve to ``g``.
            if isinstance(stmt, ast.AnnAssign):
                ref = _annotation_ref(stmt.annotation)
                if ref is not None:
                    self.summary.local_types[single.id] = ref
            elif isinstance(value, ast.Call):
                chain = _chain_of(value.func)
                if chain is not None and chain[-1] == "partial" and value.args:
                    inner = _chain_of(value.args[0])
                    if inner is not None:
                        self.summary.local_partials[single.id] = ".".join(inner)
                elif chain is not None and chain[-1][:1].isupper():
                    self.summary.local_types[single.id] = ".".join(chain)
            # Local seed value for classification (last assignment wins).
            self._local_values[single.id] = self.classify_value(value)

    def _scan_expr_tree(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._record_call(sub)

    def _record_call(self, node: ast.Call) -> None:
        chain = _chain_of(node.func)
        if chain is None:
            return
        dotted = ".".join(chain)
        resolved = self.aliases.get(chain[0])
        expanded = (
            ".".join([resolved] + chain[1:]) if resolved is not None else dotted
        )
        line = node.lineno

        if dotted in _BANNED_WALL_CALLS or expanded in _BANNED_WALL_CALLS:
            self.summary.wall_sources.append([line, dotted])
        if (
            dotted in _IMPURE_CALLS
            or expanded in _IMPURE_CALLS
            or expanded.startswith(_IMPURE_CALL_PREFIXES)
            or chain[-1] in _IMPURE_METHODS
        ):
            self.summary.impure_sources.append([line, dotted])
        if dotted in _DEFAULT_RNG_CHAINS or expanded in _DEFAULT_RNG_CHAINS:
            seed_arg: Optional[ast.expr] = node.args[0] if node.args else None
            for kw in node.keywords:
                if kw.arg == "seed":
                    seed_arg = kw.value
            if seed_arg is not None:
                self.summary.rng_mints.append(
                    {"line": line, "arg": self.classify_value(seed_arg)}
                )

        self.summary.calls.append(CallSite(
            line=line,
            col=node.col_offset,
            chain=chain,
            args=[self.classify_value(arg) for arg in node.args],
            kwargs={
                kw.arg: self.classify_value(kw.value)
                for kw in node.keywords
                if kw.arg is not None
            },
        ))


def _param_names(args: ast.arguments) -> List[str]:
    return [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]


def _harvest_function(
    node: ast.stmt,
    module: str,
    cls: Optional[str],
    aliases: Dict[str, str],
) -> FunctionSummary:
    qual = f"{module}.{cls}.{node.name}" if cls else f"{module}.{node.name}"
    summary = FunctionSummary(
        qualname=qual, name=node.name, module=module, cls=cls, line=node.lineno,
        params=_param_names(node.args),
    )
    scanner = _FunctionScanner(summary, aliases)
    for arg in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]:
        ref = _annotation_ref(arg.annotation)
        if ref is not None:
            summary.local_types[arg.arg] = ref
    scanner.scan(node.body)
    return summary


def _harvest_class(
    node: ast.ClassDef, module: str, aliases: Dict[str, str]
) -> Tuple[ClassSummary, List[FunctionSummary]]:
    cls = ClassSummary(name=node.name)
    for base in node.bases:
        ref = dotted_name(base)
        if ref is not None:
            cls.bases.append(ref)
    methods: List[FunctionSummary] = []
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods.append(item.name)
            methods.append(_harvest_function(item, module, node.name, aliases))
            for sub in ast.walk(item):
                if (
                    isinstance(sub, ast.Assign)
                    and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Attribute)
                    and isinstance(sub.targets[0].value, ast.Name)
                    and sub.targets[0].value.id == "self"
                    and isinstance(sub.value, ast.Call)
                ):
                    chain = _chain_of(sub.value.func)
                    if chain is not None and chain[-1][:1].isupper():
                        cls.attr_types.setdefault(
                            sub.targets[0].attr, ".".join(chain)
                        )
                elif (
                    isinstance(sub, ast.AnnAssign)
                    and isinstance(sub.target, ast.Attribute)
                    and isinstance(sub.target.value, ast.Name)
                    and sub.target.value.id == "self"
                ):
                    ref = _annotation_ref(sub.annotation)
                    if ref is not None:
                        cls.attr_types.setdefault(sub.target.attr, ref)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            ref = _annotation_ref(item.annotation)
            if ref is not None:
                cls.attr_types.setdefault(item.target.id, ref)
    return cls, methods


def _suppressions_payload(source: str) -> Dict[str, list]:
    index = SuppressionIndex.from_source(source)
    return {
        "file_rules": sorted(index.file_rules),
        "lines": [
            [line, sorted(rules)] for line, rules in sorted(index.line_rules.items())
        ],
        "reasons": [
            [line, rule, reason]
            for (line, rule), reason in sorted(index.reasons.items())
        ],
        "file_reasons": sorted(index.file_reasons.items()),
    }


def extract_module(
    rel_path: str, source: str, sha256: str = ""
) -> Optional[ModuleSummary]:
    """Parse ``source`` into a :class:`ModuleSummary`; None on syntax error
    (the per-file pass reports RP000 for those)."""
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError:
        return None
    module = module_name_for(rel_path)
    is_package = rel_path.replace("\\", "/").endswith("__init__.py")
    summary = ModuleSummary(
        module=module, path=rel_path, sha256=sha256,
        suppressions=_suppressions_payload(source),
    )

    # Pass 1: aliases and module-level constants, needed by every scanner.
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                name = alias.asname if alias.asname else alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                summary.imports[name] = target
        elif isinstance(stmt, ast.ImportFrom):
            base = resolve_relative(module, is_package, stmt.level, stmt.module)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                name = alias.asname if alias.asname else alias.name
                summary.imports[name] = f"{base}.{alias.name}" if base else alias.name
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            target_name = stmt.targets[0].id
            value = stmt.value
            if isinstance(value, ast.Constant) and isinstance(value.value, int) \
                    and not isinstance(value.value, bool):
                summary.constants[target_name] = {"kind": "int", "value": value.value}
            elif isinstance(value, ast.Call):
                chain = _chain_of(value.func)
                if chain is not None and chain[-1] == "partial" and value.args:
                    inner = _chain_of(value.args[0])
                    if inner is not None:
                        summary.constants[target_name] = {
                            "kind": "partial", "target": ".".join(inner),
                        }

    # Pass 2: functions, classes, and the module-body pseudo-function.
    body_fn = FunctionSummary(
        qualname=f"{module}.{MODULE_BODY}", name=MODULE_BODY, module=module,
        cls=None, line=1,
    )
    body_scanner = _FunctionScanner(body_fn, summary.imports)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.functions.append(
                _harvest_function(stmt, module, None, summary.imports)
            )
        elif isinstance(stmt, ast.ClassDef):
            cls_summary, methods = _harvest_class(stmt, module, summary.imports)
            summary.classes[cls_summary.name] = cls_summary
            summary.functions.extend(methods)
        else:
            body_scanner._scan_stmt(stmt)
    if body_fn.calls or body_fn.wall_sources or body_fn.impure_sources \
            or body_fn.rng_mints:
        summary.functions.append(body_fn)
    return summary
