"""Cross-module context for the RP3xx schema rules.

The determinism and purity rules are purely local, but schema-drift
checks need to know things defined *elsewhere* in the package:

* the canonical feature schema — the union of ``BASE_FEATURE_NAMES`` and
  ``FWB_FEATURE_NAMES`` from :mod:`repro.core.features`;
* the attribute surface of every class defined under ``src/repro`` (its
  dataclass fields, class-level constants, methods, properties, and
  ``self.x = ...`` assignments), so a function annotated
  ``timeline: UrlTimeline`` can be checked against the real class.

* which names each module's siblings import from it, so RP404 can tell
  a re-export from an unused import.

All are computed once per run and shared by every file checker. The
feature schema is imported at runtime (the linter ships inside the
package it lints, so the import is always available in a working tree);
the class table is built statically from the AST so that unparseable or
import-broken modules degrade to "unknown class: skip the check" rather
than crashing the linter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set

#: Attribute surface of builtin / stdlib bases we resolve through. A class
#: whose bases are all listed here (or defined in the project) is "closed":
#: accessing an attribute outside its surface is a finding. Any other base
#: leaves the class "open" and exempt from RP303.
_BUILTIN_BASE_ATTRS: Dict[str, FrozenSet[str]] = {
    "object": frozenset(dir(object)),
    "Exception": frozenset(dir(Exception)),
    "str": frozenset(dir(str)),
    "int": frozenset(dir(int)),
    "float": frozenset(dir(float)),
    "dict": frozenset(dir(dict)),
    "list": frozenset(dir(list)),
    "tuple": frozenset(dir(tuple)),
    "set": frozenset(dir(set)),
    # Enum's name/value are DynamicClassAttributes that dir() misses on
    # some interpreter versions, so they are added explicitly.
    "Enum": frozenset(dir(object)) | {"name", "value", "_name_", "_value_"},
    "IntEnum": frozenset(dir(int)) | {"name", "value", "_name_", "_value_"},
}

#: Typing wrappers whose single argument is the "element" type: a parameter
#: annotated ``Sequence[UrlTimeline]`` binds loop variables iterating over
#: it to ``UrlTimeline``.
_SEQUENCE_WRAPPERS = frozenset(
    {"Sequence", "List", "Iterable", "Iterator", "Tuple", "FrozenSet", "Set",
     "list", "tuple", "set", "frozenset"}
)

#: Wrappers that forward the inner type unchanged (``Optional[X]`` → X).
_TRANSPARENT_WRAPPERS = frozenset({"Optional", "Final", "Annotated"})


def module_name_for(rel_path: str) -> str:
    """``src/repro/serve/bench.py`` → ``repro.serve.bench`` (the leading
    ``src`` component and ``__init__`` suffix are dropped)."""
    parts = rel_path.replace("\\", "/").split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def resolve_relative(module: str, is_package: bool, level: int,
                     target: Optional[str]) -> str:
    """Absolute module path for a (possibly relative) ``from`` import."""
    if level == 0:
        return target or ""
    parts = module.split(".") if module else []
    # The package containing this module: itself for __init__.py.
    package = parts if is_package else parts[:-1]
    if level > 1:
        package = package[: len(package) - (level - 1)]
    base = list(package)
    if target:
        base.extend(target.split("."))
    return ".".join(base)


def _collect_from_imports(project_root: Optional[Path]) -> FrozenSet[str]:
    """Every ``module.name`` that a ``from module import name`` anywhere
    under ``project_root`` imports, with relative imports resolved."""
    from .visitor import iter_python_files  # the visitor imports this module

    imported: Set[str] = set()
    for path in iter_python_files([project_root] if project_root else []):
        rel = path.relative_to(project_root.resolve()).as_posix()
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (SyntaxError, OSError, UnicodeDecodeError):
            continue
        module = module_name_for(rel)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                base = resolve_relative(module, rel.endswith("__init__.py"),
                                        node.level, node.module)
                imported.update(f"{base}.{alias.name}" for alias in node.names)
    return frozenset(imported)


@dataclass
class ClassInfo:
    """Statically harvested attribute surface of one class."""

    name: str
    attrs: Set[str] = field(default_factory=set)
    bases: List[str] = field(default_factory=list)
    #: False once a base could not be resolved — exempts the class.
    closed: bool = True


def _last_segment(node: ast.expr) -> Optional[str]:
    """``a.b.C`` → ``C``; bare names pass through; else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _harvest_class(node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(name=node.name)
    for base in node.bases:
        segment = _last_segment(base)
        if segment is None:
            info.closed = False
        else:
            info.bases.append(segment)
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            info.attrs.add(item.target.id)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    info.attrs.add(target.id)
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.attrs.add(item.name)
            for sub in ast.walk(item):
                if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = (
                        sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            info.attrs.add(target.attr)
    return info


class ProjectContext:
    """Shared cross-module facts for one linter run."""

    def __init__(
        self,
        feature_names: Optional[FrozenSet[str]] = None,
        classes: Optional[Dict[str, ClassInfo]] = None,
        project_root: Optional[Path] = None,
    ) -> None:
        self.feature_names: FrozenSet[str] = (
            feature_names if feature_names is not None else frozenset()
        )
        self.classes: Dict[str, ClassInfo] = classes if classes is not None else {}
        self._resolved: Dict[str, Optional[FrozenSet[str]]] = {}
        self.project_root = project_root
        self._from_imports: Optional[FrozenSet[str]] = None

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(
        cls, package_dir: Optional[Path], project_root: Optional[Path] = None
    ) -> "ProjectContext":
        """Build the context for the package rooted at ``package_dir``
        (the directory containing the ``repro`` sources), linted as part
        of the project at ``project_root``."""
        return cls(
            feature_names=cls._load_feature_schema(),
            classes=cls._build_class_table(package_dir),
            project_root=project_root,
        )

    @staticmethod
    def _load_feature_schema() -> FrozenSet[str]:
        try:
            from ..core.features import BASE_FEATURE_NAMES, FWB_FEATURE_NAMES
        except Exception:  # pragma: no cover - only on a broken tree
            return frozenset()
        return frozenset(BASE_FEATURE_NAMES) | frozenset(FWB_FEATURE_NAMES)

    @staticmethod
    def _build_class_table(package_dir: Optional[Path]) -> Dict[str, ClassInfo]:
        classes: Dict[str, ClassInfo] = {}
        if package_dir is None or not package_dir.is_dir():
            return classes
        for path in sorted(package_dir.rglob("*.py")):
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except (SyntaxError, OSError, UnicodeDecodeError):
                continue
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                info = _harvest_class(node)
                if node.name in classes:
                    # Same name defined twice: merge surfaces so the check
                    # stays conservative (union can only hide drift, never
                    # produce a false finding).
                    existing = classes[node.name]
                    existing.attrs |= info.attrs
                    existing.bases = list({*existing.bases, *info.bases})
                    existing.closed = existing.closed and info.closed
                else:
                    classes[node.name] = info
        return classes

    # -- queries -----------------------------------------------------------------

    def is_feature_name(self, name: str) -> bool:
        return name in self.feature_names

    def is_imported_from(self, module: str, name: str) -> bool:
        """Whether a project file imports ``name`` from ``module`` or from a
        dotted suffix of it (benchmarks import ``conftest`` by bare name)."""
        if self._from_imports is None:
            self._from_imports = _collect_from_imports(self.project_root)
        parts = module.split(".")
        return any(
            ".".join(parts[start:] + [name]) in self._from_imports
            for start in range(len(parts))
        )

    def attribute_surface(self, class_name: str) -> Optional[FrozenSet[str]]:
        """Full attribute set of ``class_name`` including inherited
        attributes, or ``None`` if the class is unknown or open."""
        if class_name in self._resolved:
            return self._resolved[class_name]
        self._resolved[class_name] = None  # cycle guard
        surface = self._resolve(class_name, seen=set())
        self._resolved[class_name] = surface
        return surface

    def _resolve(self, class_name: str, seen: Set[str]) -> Optional[FrozenSet[str]]:
        if class_name in seen:
            return frozenset()
        seen.add(class_name)
        info = self.classes.get(class_name)
        if info is None or not info.closed:
            return None
        attrs = set(info.attrs) | set(_BUILTIN_BASE_ATTRS["object"])
        for base in info.bases:
            if base in self.classes:
                base_surface = self._resolve(base, seen)
                if base_surface is None:
                    return None
                attrs |= base_surface
            elif base in _BUILTIN_BASE_ATTRS:
                attrs |= _BUILTIN_BASE_ATTRS[base]
            else:
                return None
        return frozenset(attrs)
