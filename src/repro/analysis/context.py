"""Cross-file analysis context for the invariant lint suite.

A per-file rule gets one parsed ``tree`` and cannot see past the
module boundary.  R006 and R008 need more — lock-discipline closure
over a class's self-call graph, and a metric-name registry that lives
in ``obs/bridge.py`` while the emissions live in ``service/`` and
``storage/``.  The :class:`AnalysisContext` is built **once** over
every linted file and handed to each rule next to the module under
check, so cross-file lookups are an index hit, not a re-parse.

Nothing here imports or executes project code; modules are represented
purely by their AST plus the raw source lines (the latter so rules can
read structured comments such as ``# guarded-by: _lock``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "AnalysisContext",
    "ClassInfo",
    "ModuleInfo",
    "build_context",
    "parent_map",
    "rel_module",
]


def parent_map(tree: ast.AST) -> dict[int, ast.AST]:
    """Child-id -> parent node, for dominance/ancestry queries."""
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def rel_module(path: str) -> str | None:
    """Path relative to the ``repro`` package root, or ``None``.

    ``src/repro/core/engine.py`` -> ``core/engine.py``.  Files outside a
    ``repro`` package (tests, fixtures, scripts) return ``None``, which
    applies every rule — explicit ``select`` lists drive those checks.
    """
    parts = Path(path).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1 :])
    return None


@dataclass
class ClassInfo:
    """One class definition plus its per-class call/attribute graph."""

    node: ast.ClassDef
    module: "ModuleInfo"
    #: Method name -> definition (sync and async alike).
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for stmt in self.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[stmt.name] = stmt

    def self_call_sites(self) -> dict[str, list[ast.Call]]:
        """Callee method name -> every ``self.<callee>(...)`` call node.

        Only calls to methods defined on this class are indexed; the
        result is the class's intra-class call graph, shared by R001's
        hot-closure and R006's lock-context closure.
        """
        sites: dict[str, list[ast.Call]] = {}
        for method in self.methods.values():
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and node.func.attr in self.methods
                ):
                    sites.setdefault(node.func.attr, []).append(node)
        return sites

    def enclosing_method(self, node: ast.AST) -> ast.FunctionDef | None:
        """The class method lexically containing ``node`` (or ``None``)."""
        parents = self.module.parents
        current = parents.get(id(node))
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if current.name in self.methods and self.methods[current.name] is current:
                    return current
            current = parents.get(id(current))
        return None


@dataclass
class ModuleInfo:
    """One parsed module: tree, parents, raw lines and package position."""

    path: str
    source: str
    tree: ast.Module
    rel: str | None = None
    lines: tuple[str, ...] = ()
    parents: dict[int, ast.AST] = field(default_factory=dict)
    classes: tuple[ClassInfo, ...] = ()

    @classmethod
    def parse(cls, source: str, path: str) -> "ModuleInfo":
        """Parse ``source``; raises :class:`SyntaxError` on bad input."""
        tree = ast.parse(source, filename=path)
        info = cls(
            path=path,
            source=source,
            tree=tree,
            rel=rel_module(path),
            lines=tuple(source.splitlines()),
            parents=parent_map(tree),
        )
        info.classes = tuple(
            ClassInfo(node=node, module=info)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        )
        return info

    def line(self, lineno: int) -> str:
        """1-based source line, empty string when out of range."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


#: Name of the metric-name table R008 validates emissions against.
METRIC_REGISTRY_NAME = "METRIC_REGISTRY"


def _registry_from_tree(tree: ast.Module) -> tuple[str, ...] | None:
    """Extract a literal ``METRIC_REGISTRY = (...)`` table from an AST."""
    for node in tree.body:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        named = any(
            isinstance(t, ast.Name) and t.id == METRIC_REGISTRY_NAME for t in targets
        )
        if not named or not isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            continue
        entries: list[str] = []
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                entries.append(element.value)
        return tuple(entries)
    return None


class AnalysisContext:
    """Project-wide index built once per lint run and handed to rules."""

    #: Package-relative path of the canonical metric registry module.
    BRIDGE_REL = "obs/bridge.py"

    def __init__(self, modules: Iterable[ModuleInfo] = ()) -> None:
        self._modules: dict[str, ModuleInfo] = {}
        self._by_rel: dict[str, ModuleInfo] = {}
        for module in modules:
            self.add(module)

    def add(self, module: ModuleInfo) -> None:
        self._modules[module.path] = module
        if module.rel is not None:
            self._by_rel[module.rel] = module

    def __len__(self) -> int:
        return len(self._modules)

    def modules(self) -> Iterator[ModuleInfo]:
        yield from self._modules.values()

    def module_for(self, path: str) -> ModuleInfo | None:
        return self._modules.get(path)

    def by_rel(self, rel: str) -> ModuleInfo | None:
        """Look a module up by its package-relative path."""
        return self._by_rel.get(rel)

    def classes(self) -> Iterator[ClassInfo]:
        for module in self._modules.values():
            yield from module.classes

    def metric_registry(self, module: ModuleInfo) -> tuple[str, ...]:
        """The metric-name table visible to ``module``.

        Resolution order: a literal ``METRIC_REGISTRY`` in the module
        itself (self-contained fixtures), then the obs bridge module if
        it is part of this lint run (the cross-file path), then the
        installed :data:`repro.obs.bridge.METRIC_REGISTRY` as a last
        resort so single-file lints still check against the shipped
        table.
        """
        own = _registry_from_tree(module.tree)
        if own is not None:
            return own
        bridge = self._by_rel.get(self.BRIDGE_REL)
        if bridge is not None:
            table = _registry_from_tree(bridge.tree)
            if table is not None:
                return table
        try:  # pragma: no cover - exercised when linting single files
            from ..obs.bridge import METRIC_REGISTRY

            return tuple(METRIC_REGISTRY)
        except Exception:  # pragma: no cover - analysis must never crash
            return ()


def build_context(
    sources: Iterable[tuple[str, str]],
) -> tuple[AnalysisContext, list[tuple[str, SyntaxError]]]:
    """Parse ``(path, source)`` pairs into a context.

    Returns the context plus the files that failed to parse (the driver
    turns those into ``E999`` diagnostics); unparseable files are left
    out of the index so rules never see partial modules.
    """
    context = AnalysisContext()
    failures: list[tuple[str, SyntaxError]] = []
    for path, source in sources:
        try:
            context.add(ModuleInfo.parse(source, path))
        except SyntaxError as exc:
            failures.append((path, exc))
    return context, failures
