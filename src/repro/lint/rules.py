"""The reprolint rule registry.

Four families, mirroring the reproduction's core invariants
(see ``docs/LINTING.md`` for the full rationale of each rule):

* **RP1xx — determinism.** Every measurement must be a pure function of
  the seed; wall-clock reads and unseeded / global RNGs silently break
  that without failing a single test.
* **RP2xx — simulation purity.** The simnet layer is the *only*
  substrate; real network or process access in library code would let a
  "reproduction" quietly depend on the live internet.
* **RP3xx — cross-module schema.** Feature names, ``rng`` parameter
  types, and exported dataclass fields drift independently across
  modules; these rules pin them to their single source of truth.
* **RP4xx — hygiene.** Failure modes (mutable defaults, bare excepts,
  strippable asserts) that corrupt long campaign runs in ways a unit
  test never sees, and unused imports that hide a module's real
  dependencies.

Each rule is a singleton class with ``check_<NodeType>`` hooks; the
dispatcher in :mod:`repro.lint.visitor` walks each file's AST exactly
once and fans nodes out to every rule registered for that node type and
active in the file's scope (``library`` = ``src/repro``, plus ``tests``,
``examples``, ``benchmarks``, ``scripts``).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from .project import module_name_for
from .report import Severity

#: Every scope a file can be classified into (see visitor.classify_scope).
ALL_SCOPES: FrozenSet[str] = frozenset(
    {"library", "tests", "examples", "benchmarks", "scripts", "other"}
)
LIBRARY_ONLY: FrozenSet[str] = frozenset({"library"})
RUNNABLE: FrozenSet[str] = frozenset({"library", "examples", "benchmarks", "scripts"})


def dotted_name(node: ast.expr) -> Optional[str]:
    """Render ``a.b.c`` attribute chains as a string; None for anything
    that is not a pure Name/Attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _string_elements(node: ast.expr) -> List[ast.Constant]:
    """Constant-string elements of a list/tuple/set literal."""
    if not isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return []
    return [
        element
        for element in node.elts
        if isinstance(element, ast.Constant) and isinstance(element.value, str)
    ]


class Rule:
    """Base class: metadata + per-node-type ``check_<Type>`` hooks."""

    id: str = "RP000"
    name: str = "base"
    severity: Severity = Severity.ERROR
    scopes: FrozenSet[str] = ALL_SCOPES
    summary: str = ""

    def applies_to(self, scope: str) -> bool:
        return scope in self.scopes


class FlowRule(Rule):
    """Base class for interprocedural rules.

    Flow rules have no ``check_<NodeType>`` hooks — the per-file
    dispatcher skips them — and are instead executed by
    :class:`repro.lint.flow.engine.FlowEngine` over the whole-program
    call graph. They live in this registry so ``--select``/``--ignore``,
    ``--list-rules``, and the JSON output treat them like any other rule.
    """

    is_flow = True


# ---------------------------------------------------------------------------
# RP1xx — determinism
# ---------------------------------------------------------------------------

class WallClockRule(Rule):
    """RP101: no wall-clock reads in library code."""

    id = "RP101"
    name = "wall-clock-read"
    scopes = LIBRARY_ONLY
    summary = (
        "datetime.now()/time.time()/date.today() make results depend on when "
        "the simulation ran; use the simulated clock (integer minutes)."
    )

    _BANNED_CALLS = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today", "datetime.date.today",
    })
    _BANNED_FROM_TIME = frozenset({
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns",
    })

    def check_Call(self, node: ast.Call, ctx) -> None:
        chain = dotted_name(node.func)
        if chain in self._BANNED_CALLS:
            ctx.report(self, node, f"wall-clock call {chain}() in library code; "
                                   "simulation time is integer minutes from the epoch")

    def check_ImportFrom(self, node: ast.ImportFrom, ctx) -> None:
        if node.module != "time":
            return
        for alias in node.names:
            if alias.name in self._BANNED_FROM_TIME:
                ctx.report(self, node,
                           f"import of wall-clock function time.{alias.name}")


class StdlibRandomRule(Rule):
    """RP102: no stdlib ``random`` (hidden global state) in library code."""

    id = "RP102"
    name = "stdlib-random"
    scopes = LIBRARY_ONLY
    summary = (
        "the random module's global Mersenne Twister is shared mutable state; "
        "thread an explicit np.random.Generator instead."
    )

    def check_Import(self, node: ast.Import, ctx) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                ctx.report(self, node, "import of stdlib random; use a seeded "
                                       "np.random.Generator from SeedBank")

    def check_ImportFrom(self, node: ast.ImportFrom, ctx) -> None:
        if node.module == "random":
            ctx.report(self, node, "import from stdlib random; use a seeded "
                                   "np.random.Generator from SeedBank")

    def check_Call(self, node: ast.Call, ctx) -> None:
        chain = dotted_name(node.func)
        if chain is not None and chain.startswith("random."):
            ctx.report(self, node, f"call to stdlib {chain}() uses the global "
                                   "Mersenne Twister")


class UnseededRngRule(Rule):
    """RP103: ``default_rng()`` must receive a seed."""

    id = "RP103"
    name = "unseeded-default-rng"
    scopes = ALL_SCOPES
    summary = (
        "default_rng() with no argument seeds from OS entropy, so two runs "
        "of the same campaign diverge; always derive the seed from config."
    )

    def check_Call(self, node: ast.Call, ctx) -> None:
        chain = dotted_name(node.func)
        if chain is None or chain.split(".")[-1] != "default_rng":
            return
        if chain not in ("default_rng", "np.random.default_rng",
                         "numpy.random.default_rng"):
            return
        if not node.args and not node.keywords:
            ctx.report(self, node, f"{chain}() called without a seed")


class LegacyNumpyRandomRule(Rule):
    """RP104: no legacy ``np.random.*`` global-state API."""

    id = "RP104"
    name = "legacy-numpy-random"
    scopes = ALL_SCOPES
    summary = (
        "np.random.seed()/randint()/choice() mutate one hidden global stream "
        "shared by the whole process; use Generator methods."
    )

    _ALLOWED = frozenset({
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
    })

    def check_Call(self, node: ast.Call, ctx) -> None:
        chain = dotted_name(node.func)
        if chain is None:
            return
        parts = chain.split(".")
        if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            if parts[2] not in self._ALLOWED:
                ctx.report(self, node,
                           f"legacy global-state RNG call {chain}(); use a "
                           "np.random.Generator method instead")

    def check_ImportFrom(self, node: ast.ImportFrom, ctx) -> None:
        if node.module != "numpy.random":
            return
        for alias in node.names:
            if alias.name not in self._ALLOWED:
                ctx.report(self, node,
                           f"import of legacy numpy.random.{alias.name}")


class TransitiveWallClockRule(FlowRule):
    """RP105: no library call chain may reach a wall-clock read."""

    id = "RP105"
    name = "transitive-wall-clock"
    scopes = LIBRARY_ONLY
    summary = (
        "RP101 catches a direct time.time(); this rule follows the call "
        "graph, so a clock read laundered through helpers in other modules "
        "is flagged at the call site where the taint enters, with the full "
        "chain in the message."
    )


class RngProvenanceRule(FlowRule):
    """RP110: every Generator's seed must trace to the SeedBank."""

    id = "RP110"
    name = "rng-seed-provenance"
    scopes = LIBRARY_ONLY
    summary = (
        "np.random.default_rng(seed) is only reproducible if the seed "
        "derives from the root seed; seeds are traced through parameters "
        "across modules, and a hardcoded or untraceable value anywhere "
        "along the chain is flagged where it enters."
    )


class HardcodedSeedArgRule(FlowRule):
    """RP111: no integer literals bound to seed parameters at call sites."""

    id = "RP111"
    name = "hardcoded-seed-argument"
    scopes = LIBRARY_ONLY
    summary = (
        "passing seed=0 or random_state=7 at a call site pins a sub-stream "
        "independently of the campaign's root seed; signature defaults are "
        "the documented contract and stay exempt, call sites must derive "
        "via SeedBank.child_seed."
    )


# ---------------------------------------------------------------------------
# RP2xx — simulation purity
# ---------------------------------------------------------------------------

class ForbiddenImportRule(Rule):
    """RP201: no real-network / process imports inside ``src/repro``."""

    id = "RP201"
    name = "forbidden-import"
    scopes = LIBRARY_ONLY
    summary = (
        "the simnet layer is the only substrate; requests/socket/subprocess "
        "in library code would let results depend on the live internet."
    )

    _BANNED_TOP = frozenset({
        "requests", "socket", "subprocess", "aiohttp", "httpx", "ftplib",
        "smtplib", "telnetlib", "socketserver", "xmlrpc",
    })
    _BANNED_DOTTED = ("urllib.request", "urllib.error", "http.client",
                      "http.server", "xmlrpc.")

    def _flag(self, module: str, node: ast.stmt, ctx) -> bool:
        top = module.split(".")[0]
        if top in self._BANNED_TOP or any(
            module == banned.rstrip(".") or module.startswith(banned)
            for banned in self._BANNED_DOTTED
        ):
            ctx.report(self, node,
                       f"import of {module} in library code; all network and "
                       "process access must go through the simnet substrate")
            return True
        return False

    def check_Import(self, node: ast.Import, ctx) -> None:
        for alias in node.names:
            self._flag(alias.name, node, ctx)

    def check_ImportFrom(self, node: ast.ImportFrom, ctx) -> None:
        if node.module is None:
            return
        if self._flag(node.module, node, ctx):
            return
        # `from urllib import request` smuggles the same module in.
        for alias in node.names:
            if self._flag(f"{node.module}.{alias.name}", node, ctx):
                return


class EnvironmentAccessRule(Rule):
    """RP202: no ambient environment reads in library code."""

    id = "RP202"
    name = "environment-access"
    scopes = LIBRARY_ONLY
    summary = (
        "os.environ / os.getenv smuggle host-specific state into results; "
        "configuration enters through SimulationConfig only."
    )

    _BANNED_CALLS = frozenset({"os.getenv", "os.putenv", "os.unsetenv"})

    def check_Attribute(self, node: ast.Attribute, ctx) -> None:
        if dotted_name(node) in ("os.environ", "os.environb"):
            ctx.report(self, node, "access to os.environ in library code; pass "
                                   "configuration through SimulationConfig")

    def check_Call(self, node: ast.Call, ctx) -> None:
        chain = dotted_name(node.func)
        if chain in self._BANNED_CALLS:
            ctx.report(self, node, f"call to {chain}() in library code; pass "
                                   "configuration through SimulationConfig")


class PrintInLibraryRule(Rule):
    """RP203: no ``print()`` in library code; use the obs event log."""

    id = "RP203"
    name = "print-in-library"
    scopes = LIBRARY_ONLY
    summary = (
        "print() bypasses the structured event log, so campaign progress is "
        "invisible to telemetry exports and impossible to assert on; emit an "
        "event through repro.obs instead. Renderers (analysis/report.py, "
        "cli.py) and the linter's own CLI are exempt."
    )

    _EXEMPT_FILES = frozenset({"cli.py"})

    def _exempt(self, ctx) -> bool:
        parts = ctx.rel_path.replace("\\", "/").split("/")
        if "lint" in parts:
            return True
        if parts[-1] in self._EXEMPT_FILES:
            return True
        return parts[-2:] == ["analysis", "report.py"]

    def check_Call(self, node: ast.Call, ctx) -> None:
        if not (isinstance(node.func, ast.Name) and node.func.id == "print"):
            return
        if self._exempt(ctx):
            return
        ctx.report(self, node,
                   "print() in library code; emit a structured event via "
                   "repro.obs (EventLog) so output reaches telemetry exports")


class SimnetPurityRule(FlowRule):
    """RP210: nothing reachable from simnet may do I/O or write globals."""

    id = "RP210"
    name = "simnet-impurity"
    scopes = LIBRARY_ONLY
    summary = (
        "the simulated substrate must be a pure function of (config, seed); "
        "file writes or module-global mutation reachable from any simnet "
        "function — directly or through callees in other modules — makes "
        "crawls order-dependent and unreproducible."
    )


# ---------------------------------------------------------------------------
# RP3xx — cross-module schema
# ---------------------------------------------------------------------------

class FeatureNameRule(Rule):
    """RP301: feature-name strings must exist in the canonical schema."""

    id = "RP301"
    name = "unknown-feature-name"
    scopes = ALL_SCOPES
    summary = (
        "feature names live in core/features.py; a typo elsewhere selects a "
        "wrong column or raises deep inside a campaign."
    )

    _VECTOR_CALLS = frozenset({"vector", "extract_matrix", "split_arrays"})

    def _check_literal(self, literal: ast.Constant, ctx) -> None:
        if not ctx.project.feature_names:
            return
        if not ctx.project.is_feature_name(literal.value):
            ctx.report(
                self, literal,
                f"unknown feature name {literal.value!r}: not in "
                "BASE_FEATURE_NAMES / FWB_FEATURE_NAMES (core/features.py)",
            )

    def _is_schema_ref(self, node: ast.expr, ctx) -> bool:
        chain = dotted_name(node)
        if chain is None:
            return False
        if "FEATURE_NAMES" in chain:
            return True
        return chain in ctx.feature_tainted

    def check_Module(self, node: ast.Module, ctx) -> None:
        # Taint pass: variables assigned from expressions that mention a
        # *FEATURE_NAMES* collection hold feature names themselves, so
        # string literals combined with them are checkable. Two passes
        # pick up one level of transitive assignment.
        for _ in range(2):
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Assign):
                    value, targets = stmt.value, stmt.targets
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    value, targets = stmt.value, [stmt.target]
                else:
                    continue
                if any(
                    self._is_schema_ref(sub, ctx)
                    for sub in ast.walk(value)
                    if isinstance(sub, (ast.Name, ast.Attribute))
                ):
                    for target in targets:
                        if isinstance(target, ast.Name):
                            ctx.feature_tainted.add(target.id)

    def check_Call(self, node: ast.Call, ctx) -> None:
        func = node.func
        # FWB_FEATURE_NAMES.index("...") / tainted.count("...")
        if isinstance(func, ast.Attribute) and func.attr in ("index", "count"):
            if self._is_schema_ref(func.value, ctx):
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        self._check_literal(arg, ctx)
            return
        # page_features.vector([...]) / extractor.extract_matrix(pairs, [...])
        callee = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if callee in self._VECTOR_CALLS:
            candidates = list(node.args) + [kw.value for kw in node.keywords
                                            if kw.arg == "names"]
            for candidate in candidates:
                for literal in _string_elements(candidate):
                    self._check_literal(literal, ctx)

    def check_Compare(self, node: ast.Compare, ctx) -> None:
        # "name" in FWB_FEATURE_NAMES
        if not isinstance(node.left, ast.Constant) or not isinstance(
            node.left.value, str
        ):
            return
        if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops) and any(
            self._is_schema_ref(comp, ctx) for comp in node.comparators
        ):
            self._check_literal(node.left, ctx)

    def check_Subscript(self, node: ast.Subscript, ctx) -> None:
        # page.features.values["name"] — PageFeatures' raw dict.
        if not (isinstance(node.value, ast.Attribute) and node.value.attr == "values"):
            return
        index = node.slice
        if isinstance(index, ast.Constant) and isinstance(index.value, str):
            self._check_literal(index, ctx)

    def check_BinOp(self, node: ast.BinOp, ctx) -> None:
        # _BASE_MINUS + ("obfuscated_fwb_banner",)
        if not isinstance(node.op, ast.Add):
            return
        pairs = ((node.left, node.right), (node.right, node.left))
        for schema_side, literal_side in pairs:
            if self._is_schema_ref(schema_side, ctx):
                for literal in _string_elements(literal_side):
                    self._check_literal(literal, ctx)


class RngAnnotationRule(Rule):
    """RP302: ``rng`` parameters must be annotated ``np.random.Generator``."""

    id = "RP302"
    name = "untyped-rng-param"
    scopes = RUNNABLE
    summary = (
        "an untyped rng parameter accepts legacy RandomState or None without "
        "complaint; the Generator annotation documents the seeding contract."
    )

    def _check(self, node, ctx) -> None:
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg != "rng":
                continue
            if arg.annotation is None:
                ctx.report(self, arg,
                           f"parameter 'rng' of {node.name}() is untyped; "
                           "annotate it np.random.Generator")
                continue
            rendered = ast.unparse(arg.annotation)
            if "Generator" not in rendered:
                ctx.report(self, arg,
                           f"parameter 'rng' of {node.name}() is annotated "
                           f"{rendered!r}; expected np.random.Generator")

    check_FunctionDef = _check
    check_AsyncFunctionDef = _check


class ExportSchemaRule(Rule):
    """RP303: attribute access on project dataclasses must match their
    declared surface (keeps ``analysis/export.py`` round-trips honest)."""

    id = "RP303"
    name = "schema-attribute-drift"
    scopes = LIBRARY_ONLY
    summary = (
        "export/report code reads dataclass fields by name; a renamed field "
        "only fails when that exact exporter runs, so it is checked statically."
    )

    def _annotation_binding(self, annotation: ast.expr):
        """Return ("direct"|"element", class_name) or None."""
        from .project import _SEQUENCE_WRAPPERS, _TRANSPARENT_WRAPPERS, _last_segment

        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(annotation, ast.Subscript):
            wrapper = _last_segment(annotation.value)
            inner = annotation.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            if wrapper in _TRANSPARENT_WRAPPERS:
                return self._annotation_binding(inner)
            if wrapper in _SEQUENCE_WRAPPERS:
                name = _last_segment(inner) if isinstance(
                    inner, (ast.Name, ast.Attribute)
                ) else None
                return ("element", name) if name else None
            return None
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            name = _last_segment(annotation)
            return ("direct", name) if name else None
        return None

    def _check(self, node, ctx) -> None:
        direct: Dict[str, str] = {}
        element: Dict[str, str] = {}
        for arg in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]:
            if arg.annotation is None:
                continue
            binding = self._annotation_binding(arg.annotation)
            if binding is None:
                continue
            kind, class_name = binding
            if ctx.project.attribute_surface(class_name) is None:
                continue
            (direct if kind == "direct" else element)[arg.arg] = class_name

        if not direct and not element:
            return

        # Loop variables iterating a Sequence[X] parameter get type X —
        # both statement loops and comprehension generators.
        for sub in ast.walk(node):
            if (
                isinstance(sub, (ast.For, ast.AsyncFor))
                and isinstance(sub.iter, ast.Name)
                and sub.iter.id in element
                and isinstance(sub.target, ast.Name)
            ):
                direct.setdefault(sub.target.id, element[sub.iter.id])
            elif (
                isinstance(sub, ast.comprehension)
                and isinstance(sub.iter, ast.Name)
                and sub.iter.id in element
                and isinstance(sub.target, ast.Name)
            ):
                direct.setdefault(sub.target.id, element[sub.iter.id])

        # Rebinding a name invalidates its inferred type.
        rebound: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in direct:
                        rebound.add(target.id)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not node:
                for arg in [*sub.args.posonlyargs, *sub.args.args, *sub.args.kwonlyargs]:
                    if arg.arg in direct:
                        rebound.add(arg.arg)

        for sub in ast.walk(node):
            if not isinstance(sub, ast.Attribute):
                continue
            if not isinstance(sub.value, ast.Name):
                continue
            var = sub.value.id
            if var not in direct or var in rebound:
                continue
            class_name = direct[var]
            surface = ctx.project.attribute_surface(class_name)
            if surface is None:
                continue
            if sub.attr not in surface:
                ctx.report(self, sub,
                           f"{var}.{sub.attr}: class {class_name} declares no "
                           f"attribute {sub.attr!r} (schema drift)")

    check_FunctionDef = _check
    check_AsyncFunctionDef = _check


class ServeCacheKeyRule(Rule):
    """RP304: cache keys must come from a sanctioned producer — the
    ``simnet.url`` normalizers (``cache_key`` / ``domain_key``) in the
    serve layer, ``snapshot_key`` in the feature-cache layer — never raw
    strings."""

    id = "RP304"
    name = "raw-cache-key"
    scopes = LIBRARY_ONLY
    summary = (
        "two spellings of one URL (case, default path, fragment) must share "
        "a cache line; a raw-string key in repro/serve or the feature-cache "
        "layer bypasses cache_key()/domain_key()/snapshot_key() and "
        "silently splits or misses entries."
    )

    #: Methods on cache-like receivers whose first argument is a key/URL.
    _KEYED_METHODS = frozenset({
        "get", "put", "lookup", "store", "evict",
        "invalidate", "invalidate_blocked", "invalidate_takedown",
        "move_to_end",
    })
    #: Receiver-name fragments that mark a cache-like object.
    _CACHE_HINTS = ("cache", "tier", "exact", "domain", "negative")

    #: Modules whose caches are keyed by ``snapshot_key`` — the
    #: feature-cache layer added alongside the serve tiers.
    _FEATURE_CACHE_MODULES = frozenset({
        "src/repro/core/features.py",
        "src/repro/core/preprocess.py",
    })

    @classmethod
    def _in_scope(cls, ctx) -> bool:
        rel = ctx.rel_path.replace("\\", "/")
        return "serve" in rel.split("/") or rel in cls._FEATURE_CACHE_MODULES

    def _is_raw_key(self, node: ast.expr) -> bool:
        """String built without going through the URL parser."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return True
        if isinstance(node, ast.JoinedStr):  # f-string
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
            return self._is_raw_key(node.left) or self._is_raw_key(node.right)
        if isinstance(node, ast.Call):
            # str(url) / "...".format(...) stringify without normalizing;
            # cache_key()/domain_key() are the sanctioned producers.
            if isinstance(node.func, ast.Name) and node.func.id == "str":
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("format", "join", "lower", "strip")
            ):
                return True
        return False

    def _cache_receiver(self, expr: ast.expr) -> Optional[str]:
        """Dotted receiver name when ``expr`` names a cache-like object."""
        receiver = dotted_name(expr)
        if receiver is None:
            return None
        lowered = receiver.lower()
        if not any(hint in lowered for hint in self._CACHE_HINTS):
            return None
        return receiver

    def check_Call(self, node: ast.Call, ctx) -> None:
        if not self._in_scope(ctx):
            return
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in self._KEYED_METHODS:
            return
        receiver = self._cache_receiver(func.value)
        if receiver is None:
            return
        candidates = list(node.args[:1]) + [
            kw.value for kw in node.keywords if kw.arg in ("key", "url")
        ]
        for candidate in candidates:
            if self._is_raw_key(candidate):
                ctx.report(
                    self, candidate,
                    f"raw string passed as cache key to {receiver}."
                    f"{func.attr}(); cache keys must come from "
                    "cache_key()/domain_key() (serve layer) or "
                    "snapshot_key() (feature cache)",
                )

    def check_Subscript(self, node: ast.Subscript, ctx) -> None:
        """``cache["raw"]`` indexing bypasses the keyed methods but is the
        same bug: the entry lands under an unnormalized key."""
        if not self._in_scope(ctx):
            return
        receiver = self._cache_receiver(node.value)
        if receiver is None:
            return
        if self._is_raw_key(node.slice):
            ctx.report(
                self, node.slice,
                f"raw string used as subscript key on {receiver}; cache "
                "keys must come from cache_key()/domain_key() (serve "
                "layer) or snapshot_key() (feature cache)",
            )


# ---------------------------------------------------------------------------
# RP4xx — hygiene
# ---------------------------------------------------------------------------

class MutableDefaultRule(Rule):
    """RP401: no mutable default arguments."""

    id = "RP401"
    name = "mutable-default"
    severity = Severity.WARNING
    scopes = ALL_SCOPES
    summary = (
        "a list/dict/set default is shared across every call; state leaks "
        "between campaign runs in the same process."
    )

    _FACTORY_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def _check(self, node, ctx) -> None:
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                ctx.report(self, default,
                           f"mutable default argument in {node.name}(); use "
                           "None and create inside the function")
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in self._FACTORY_CALLS
            ):
                ctx.report(self, default,
                           f"mutable default {default.func.id}() in "
                           f"{node.name}(); use None and create inside")

    check_FunctionDef = _check
    check_AsyncFunctionDef = _check


class BareExceptRule(Rule):
    """RP402: no bare ``except:`` clauses."""

    id = "RP402"
    name = "bare-except"
    severity = Severity.WARNING
    scopes = ALL_SCOPES
    summary = (
        "bare except swallows KeyboardInterrupt/SystemExit and hides "
        "simulation-state corruption; catch ReproError or a specific type."
    )

    def check_ExceptHandler(self, node: ast.ExceptHandler, ctx) -> None:
        if node.type is None:
            ctx.report(self, node, "bare except: catches SystemExit and "
                                   "KeyboardInterrupt; name the exception type")


class LibraryAssertRule(Rule):
    """RP403: no ``assert`` for invariants in library code."""

    id = "RP403"
    name = "library-assert"
    severity = Severity.WARNING
    scopes = LIBRARY_ONLY
    summary = (
        "python -O strips asserts, so an assert-guarded invariant silently "
        "stops being checked in optimized runs; raise a ReproError subclass."
    )

    def check_Assert(self, node: ast.Assert, ctx) -> None:
        ctx.report(self, node, "assert in library code is stripped under "
                               "python -O; raise a ReproError subclass instead")


def _names_read(tree: ast.Module) -> Set[str]:
    """Every name the module reads, including names inside string
    annotations (``-> "SimulationConfig"``) and ``__all__`` entries."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(element.value for element in _string_elements(node.value))
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    parsed = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


class UnusedImportRule(Rule):
    """RP404: no unused module-level imports."""

    id = "RP404"
    name = "unused-import"
    severity = Severity.WARNING
    scopes = ALL_SCOPES
    summary = (
        "an import nothing reads hides the module's real dependencies; "
        "package __init__ files, names in __all__, __future__ imports and "
        "names another project file imports from this module are exempt."
    )

    def check_Module(self, node: ast.Module, ctx) -> None:
        if ctx.path.name == "__init__.py":
            return
        used = _names_read(node) | {"*"}
        module = module_name_for(ctx.rel_path)
        for stmt in node.body:
            if isinstance(stmt, ast.Import) or (
                isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
            ):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used and not ctx.project.is_imported_from(
                        module, bound
                    ):
                        ctx.report(self, alias, f"{bound!r} is imported but unused")


#: Registry, in report order. Ten-plus distinct IDs, each unit-tested.
RULES: Sequence[Rule] = (
    WallClockRule(),
    StdlibRandomRule(),
    UnseededRngRule(),
    LegacyNumpyRandomRule(),
    TransitiveWallClockRule(),
    RngProvenanceRule(),
    HardcodedSeedArgRule(),
    ForbiddenImportRule(),
    EnvironmentAccessRule(),
    PrintInLibraryRule(),
    SimnetPurityRule(),
    FeatureNameRule(),
    RngAnnotationRule(),
    ExportSchemaRule(),
    ServeCacheKeyRule(),
    MutableDefaultRule(),
    BareExceptRule(),
    LibraryAssertRule(),
    UnusedImportRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in RULES}

#: The interprocedural subset, executed by the flow engine.
FLOW_RULES: Sequence[Rule] = tuple(
    rule for rule in RULES if isinstance(rule, FlowRule)
)


def select_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """Filter the registry by ID prefixes (``RP1`` selects the family)."""
    chosen = list(RULES)
    if select:
        prefixes = tuple(select)
        chosen = [rule for rule in chosen if rule.id.startswith(prefixes)]
    if ignore:
        prefixes = tuple(ignore)
        chosen = [rule for rule in chosen if not rule.id.startswith(prefixes)]
    return chosen
